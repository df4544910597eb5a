"""Command-line behavior: flows, outputs, error handling, seed override."""

import csv
import json
import os

import numpy as np
import pytest

from xrhead.cli import main
from xrhead.container import pack, unpack
from xrhead.harness import MODEL_MAGIC, MODEL_VERSION

TINY_SPEC = {
    "num_classes": 6,
    "num_superclasses": 3,
    "noise": 0.1,
    "train_per_class": 8,
    "test_per_class": 8,
    "tokens_per_image": 10,
}

TINY_CFG = {
    "epochs": 3,
    "shots": 4,
    "batch_size": 8,
    "feat_dim": 32,
    "ctx_len": 4,
}


@pytest.fixture()
def tiny_files(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    data_path = tmp_path / "tiny.xrvd"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(data_path)]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CFG, data_file=str(data_path))))
    return tmp_path, cfg_path, data_path


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_gen_data_writes_dataset(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    out = tmp_path / "d.xrvd"
    code, payload, _ = run_json(capsys, ["gen-data", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    assert payload["num_classes"] == 6
    assert out.exists()


def test_gen_data_bad_spec_exits_nonzero(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_classes": 1}))
    code = main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d.xrvd")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "d.xrvd").exists()


def test_wrong_json_type_in_a_spec_is_one_error_line(tmp_path, capsys):
    # a float count used to leak numpy's TypeError traceback
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_classes": 20.0}))
    code = main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d.xrvd")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "'num_classes' must be int" in err
    assert not (tmp_path / "d.xrvd").exists()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CFG, data_spec={"num_classes": 20.0})))
    assert main(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "noise", [float("nan"), float("inf"), 10**400], ids=["NaN", "Infinity", "beyond_float"]
)
def test_gen_data_refuses_a_noise_that_is_not_finite(noise, tmp_path, capsys):
    # json writes and reads the first two as the words NaN and Infinity; a NaN
    # noise would write a noise-free dataset, an infinite one a dataset no
    # reader loads, and an integer beyond the float range printed a traceback
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, noise=noise)))
    code = main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d.xrvd")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "noise must be >= 0 and finite" in err
    assert not (tmp_path / "d.xrvd").exists()


@pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe"], ids=["bad_json", "bad_utf8"])
def test_gen_data_unreadable_spec_exits_nonzero(tmp_path, capsys, content):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(content)
    code = main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d.xrvd")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "d.xrvd").exists()


def test_train_eval_flow(tiny_files, capsys):
    tmp_path, cfg_path, data_path = tiny_files
    model_dir = tmp_path / "model"
    code, report, _ = run_json(
        capsys, ["train", "--config", str(cfg_path), "--out", str(model_dir)]
    )
    assert code == 0
    assert (model_dir / "params.xrvp").exists()
    assert (model_dir / "config.json").exists()
    assert (model_dir / "report.json").exists()

    code, evaluation, _ = run_json(capsys, ["eval", "--model", str(model_dir)])
    assert code == 0
    assert evaluation["test_accuracy"] == report["test_accuracy"]

    code, evaluation2, _ = run_json(
        capsys, ["eval", "--model", str(model_dir), "--data", str(data_path)]
    )
    assert code == 0
    assert evaluation2["test_accuracy"] == report["test_accuracy"]


def test_eval_on_a_dataset_with_other_classes_is_one_error_line(tiny_files, capsys):
    # a 6-class model cannot score a 12-class dataset: no accuracy is printed
    tmp_path, cfg_path, _ = tiny_files
    model_dir = tmp_path / "model"
    assert main(["train", "--config", str(cfg_path), "--out", str(model_dir)]) == 0
    spec_path = tmp_path / "spec12.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, num_classes=12)))
    data_path = tmp_path / "d12.xrvd"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(data_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model_dir), "--data", str(data_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "(12 classes, sha256" in captured.err and "(6 classes, sha256" in captured.err


@pytest.mark.parametrize(
    "missing, message",
    [
        ("prompts.class_embeddings", "model file does not match its config"),
        ("attn.score.weight", "missing model array 'attn.score.weight'"),
    ],
    ids=["prompts.class_embeddings", "attn.score.weight"],
)
def test_eval_of_a_model_file_without_an_array_is_one_error_line(
    missing, message, tiny_files, capsys
):
    tmp_path, cfg_path, _ = tiny_files
    model_dir = tmp_path / "model"
    assert main(["train", "--config", str(cfg_path), "--out", str(model_dir)]) == 0
    params = model_dir / "params.xrvp"
    with open(params, "rb") as f:
        arrays, meta = unpack(f, MODEL_MAGIC, MODEL_VERSION, "model array")
    del arrays[missing]
    kept = [(name, values, "<f8") for name, values in arrays.items()]
    params.write_bytes(pack(MODEL_MAGIC, MODEL_VERSION, kept, meta))
    capsys.readouterr()
    assert main(["eval", "--model", str(model_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert message in captured.err


@pytest.mark.parametrize("command", ["eval", "export-attn"])
def test_a_dataset_that_is_not_the_models_own_is_one_error_line(command, tiny_files, capsys):
    # same spec, other seed: the class count and patch shape fit, the classes are others
    tmp_path, cfg_path, data_path = tiny_files
    model_dir = tmp_path / "model"
    assert main(["train", "--config", str(cfg_path), "--out", str(model_dir)]) == 0
    spec_path = tmp_path / "spec5.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, seed=5)))
    other = tmp_path / "seed5.xrvd"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(other)]) == 0
    out = tmp_path / "out"
    options = ["--out", str(out)] if command == "export-attn" else []
    capsys.readouterr()
    assert main([command, "--model", str(model_dir), "--data", str(other)] + options) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "are not the model's" in captured.err
    # the model's own dataset file still scores
    assert main([command, "--model", str(model_dir), "--data", str(data_path)] + options) == 0


@pytest.mark.parametrize("feat_dim", [10**30, 2**40])
def test_train_with_an_oversized_config_is_one_error_line(feat_dim, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"feat_dim": feat_dim}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert f"feat_dim {feat_dim} exceeds the limit" in captured.err


def test_train_unknown_config_key_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_compare_outputs_and_isolation(tiny_files, capsys):
    tmp_path, cfg_path, _ = tiny_files
    out = tmp_path / "cmp"
    code, payload, _ = run_json(
        capsys,
        [
            "compare",
            "--config",
            str(cfg_path),
            "--heads",
            "CRM_BASE,PWCS",
            "--seeds",
            "2",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    assert set(payload["summary"]) == {"CRM_BASE", "PWCS"}
    with open(out / "comparison.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["head", "seed_model", "seed_data", "train_accuracy", "test_accuracy"]
    assert len(rows) == 1 + 4 + 4
    stored = json.loads((out / "comparison.json").read_text())
    assert stored["num_seeds"] == 2


def test_compare_bad_head_leaves_no_outputs(tiny_files, capsys):
    tmp_path, cfg_path, _ = tiny_files
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--config", str(cfg_path), "--heads", "PWCS,NOPE", "--out", str(out)]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_seed_env_override_and_determinism(tiny_files, capsys, monkeypatch):
    tmp_path, cfg_path, _ = tiny_files
    args = ["compare", "--config", str(cfg_path), "--heads", "CRM_BASE,PWCS", "--seeds", "2"]
    monkeypatch.setenv("XRHEAD_SEED", "9")
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    monkeypatch.setenv("XRHEAD_SEED", "11")
    assert main(args + ["--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "comparison.csv").read_bytes()
    b = (tmp_path / "b" / "comparison.csv").read_bytes()
    c = (tmp_path / "c" / "comparison.csv").read_bytes()
    assert a == b
    assert a != c
    with open(tmp_path / "a" / "comparison.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][1] == "9"  # seed_model column reflects the override


def test_gen_data_seed_env_gives_the_bytes_of_that_spec_seed(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    seeded_path = tmp_path / "seeded.json"
    seeded_path.write_text(json.dumps(dict(TINY_SPEC, seed=5)))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "plain.xrvd")]) == 0
    assert main(["gen-data", "--spec", str(seeded_path), "--out", str(tmp_path / "spec.xrvd")]) == 0
    monkeypatch.setenv("XRHEAD_SEED", "5")
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "env.xrvd")]) == 0
    capsys.readouterr()
    env = (tmp_path / "env.xrvd").read_bytes()
    assert env == (tmp_path / "spec.xrvd").read_bytes()
    assert env != (tmp_path / "plain.xrvd").read_bytes()


def test_train_data_flag_overrides_the_configs_data_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, test_per_class=3)))
    data_path = tmp_path / "other.xrvd"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(data_path)]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CFG, data_spec=TINY_SPEC)))
    capsys.readouterr()
    code, report, err = run_json(
        capsys, ["train", "--config", str(cfg_path), "--data", str(data_path)]
    )
    assert code == 0 and err == ""
    assert report["num_test"] == 6 * 3  # the --data file's count, not the spec's 6 * 8


def test_invalid_seed_env(tiny_files, capsys, monkeypatch):
    _, cfg_path, _ = tiny_files
    monkeypatch.setenv("XRHEAD_SEED", "not-a-number")
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "XRHEAD_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_negative_seed_env_is_refused(tiny_files, capsys, monkeypatch, command):
    tmp_path, cfg_path, _ = tiny_files
    monkeypatch.setenv("XRHEAD_SEED", "-1")
    args = {"train": ["--config", str(cfg_path)], "gen-data": ["--out", str(tmp_path / "d")]}
    assert main([command] + args[command]) == 1
    assert capsys.readouterr().err == "error: XRHEAD_SEED must be >= 0, got -1\n"


def test_sweep_outputs(tiny_files, capsys):
    tmp_path, cfg_path, _ = tiny_files
    out = tmp_path / "swp"
    code, payload, _ = run_json(
        capsys, ["sweep", "--config", str(cfg_path), "--parts", "1,2", "--out", str(out)]
    )
    assert code == 0
    assert set(payload["flags"]) >= {"runtime_monotone", "best_parts"}
    assert (out / "sweep.csv").exists()
    assert (out / "sweep.svg").exists()
    stored = json.loads((out / "sweep.json").read_text())
    assert [r["num_parts"] for r in stored["rows"]] == [1, 2]
    assert "train_cpu_seconds" in stored["rows"][0]
    assert "train_cpu_seconds" not in (out / "sweep.csv").read_text()


def test_sweep_bad_parts(tiny_files, capsys):
    _, cfg_path, _ = tiny_files
    assert main(["sweep", "--config", str(cfg_path), "--parts", "1,x"]) == 1
    assert "comma-separated integers" in capsys.readouterr().err


def test_gradcheck_passes_and_respects_tol(tiny_files, capsys):
    _, cfg_path, _ = tiny_files
    code, payload, _ = run_json(capsys, ["gradcheck", "--config", str(cfg_path)])
    assert code == 0
    assert payload["ok"] is True
    assert payload["max"] < payload["tol"]
    code2 = main(["gradcheck", "--config", str(cfg_path), "--tol", "1e-18"])
    capsys.readouterr()
    assert code2 == 1


# NaN would run the whole check and print invalid JSON; no error is below 0 or -1
@pytest.mark.parametrize(
    "value", ["nan", "inf", "0", "-1"], ids=["tol_nan", "tol_inf", "tol_0", "tol_-1"]
)
def test_gradcheck_refuses_bad_options(tiny_files, capsys, value):
    _, cfg_path, _ = tiny_files
    code = main(["gradcheck", "--config", str(cfg_path), "--tol", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "--tol" in captured.err


def test_analyze_cne_from_features(tmp_path, capsys):
    from xrhead.encoders import save_features

    line = np.array([0.0, 1.0, 40.0, 49.0])
    emb = np.stack([line, np.zeros_like(line)], axis=1)
    feat_path = tmp_path / "emb.xrvf"
    save_features(str(feat_path), emb)
    out = tmp_path / "cne"
    code, payload, _ = run_json(
        capsys, ["analyze-cne", "--features", str(feat_path), "--bins", "4", "--out", str(out)]
    )
    assert code == 0
    assert payload["counts"] == [2, 0, 0, 2]
    assert (out / "cne_hist.csv").exists()
    assert (out / "cne_hist.svg").exists()
    assert (out / "cne_min_distances.csv").exists()
    assert (out / "cne_projection.svg").exists()


def test_analyze_cne_from_dataset(tiny_files, capsys):
    tmp_path, _, data_path = tiny_files
    out = tmp_path / "cne"
    code, payload, _ = run_json(
        capsys, ["analyze-cne", "--data", str(data_path), "--out", str(out)]
    )
    assert code == 0
    assert payload["mean"] > 0


def test_analyze_cne_requires_one_source(tiny_files, capsys):
    tmp_path, _, data_path = tiny_files
    assert main(["analyze-cne"]) == 1
    assert (
        main(["analyze-cne", "--features", str(data_path), "--data", str(data_path)]) == 1
    )
    capsys.readouterr()


def test_export_attn_outputs(tiny_files, capsys):
    tmp_path, cfg_path, _ = tiny_files
    model_dir = tmp_path / "model"
    assert main(["train", "--config", str(cfg_path), "--out", str(model_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "attn"
    code, payload, _ = run_json(
        capsys,
        ["export-attn", "--model", str(model_dir), "--n", "3", "--svg", "--out", str(out)],
    )
    assert code == 0
    assert payload["samples"] == 3
    assert "mutual_information" in payload["alignment"]
    for i in range(3):
        assert (out / f"attn_{i:03d}.csv").exists()
        assert (out / f"attn_{i:03d}.svg").exists()
    with open(out / "attn_000.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["token", "background", "part1", "part2", "part3", "part4", "true_part"]
    assert len(rows) == 1 + TINY_SPEC["tokens_per_image"]
    weights = np.array([[float(x) for x in row[1:6]] for row in rows[1:]])
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)
    # --n -1 used to slice from the end and export all but the last sample
    for n in ("-1", "0"):
        refused = tmp_path / f"attn{n}"
        code = main(["export-attn", "--model", str(model_dir), "--n", n, "--out", str(refused)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert not refused.exists()


def test_missing_model_dir_errors(capsys):
    assert main(["eval", "--model", "/nonexistent/model"]) == 1
    assert "error:" in capsys.readouterr().err
