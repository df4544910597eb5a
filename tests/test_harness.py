"""Config handling, model assembly, training, comparisons, analyses, persistence."""

import csv
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import bruteforce
from xrhead.attention import TAU, PartAttention
from xrhead.container import MAX_EXTENT, pack, unpack
from xrhead.data import SyntheticSpec, few_shot_split, generate
from xrhead.encoders import FrozenImageEncoder, FrozenTextEncoder, save_features
from xrhead.errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeMismatchError,
)
from xrhead import data as data_mod, experiments, harness, report as rpt
from xrhead.analysis import analyze_embeddings, attention_alignment, mutual_information, project_2d
from xrhead.experiments import ComparisonResult, compare_heads, sweep_parts
from xrhead.harness import (
    Model,
    RunReport,
    TrainConfig,
    build_model,
    class_name_embeddings,
    config_dataset,
    evaluate,
    export_attention,
    load_model,
    predict_logits,
    save_model,
    train,
)
from xrhead.heads import HeadKind
from xrhead.numerics import Sgd, constant, cosine_lr, no_grad

TINY_SPEC = {
    "num_classes": 6,
    "num_superclasses": 3,
    "noise": 0.1,
    "train_per_class": 8,
    "test_per_class": 8,
    "tokens_per_image": 10,
}


HEAD_KINDS = [kind.value for kind in HeadKind]


def tiny_config(**overrides):
    base = dict(
        epochs=3,
        shots=4,
        batch_size=8,
        feat_dim=32,
        ctx_len=4,
        data_spec=TINY_SPEC,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(SyntheticSpec.from_dict(TINY_SPEC))


# --- config -----------------------------------------------------------------------


def test_config_defaults_match_protocol():
    cfg = TrainConfig()
    assert cfg.epochs == 100
    assert cfg.num_parts == 4
    assert cfg.ctx_len == 16
    assert cfg.shots == 16
    # tau, the loss temperature, the encoder seed and the SGD values are
    # constants, not settings
    assert TAU == 64.0
    assert harness.LOSS_TEMPERATURE == 64.0
    assert harness.ENCODER_SEED == 7
    assert harness.LR0 == 2e-3
    assert Sgd.weight_decay == 1e-4
    assert Sgd.momentum == 0.9


def test_every_config_field_has_a_json_type():
    for codec, cls in (
        (harness._CONFIG_FIELDS, TrainConfig),
        (data_mod._SPEC_FIELDS, SyntheticSpec),
    ):
        assert codec.cls is cls
        assert set(codec.types) == {f.name for f in fields(cls)}
    with pytest.raises(TypeError, match="no JSON type"):
        rpt._json_types("list[int] | None")


def test_config_rejects_unknown_keys():
    # a typo, and the keys of options the model no longer has
    for key, value in (
        ("lr", 0.1),
        ("squared_denominator", False),
        ("normalize_prompts", False),
        ("proj_dim", 64),
        ("scale", 64.0),
        ("cosine_loss_scale", 64.0),
        ("encoder_seed", 7),
        ("prompt_mode", "learned"),
        ("lr0", 2e-3),
        ("weight_decay", 1e-4),
        ("momentum", 0.9),
        ("head_hidden", None),
        ("word_dim", 32),
    ):
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
            TrainConfig.from_dict({key: value})


def test_readme_config_table_names_every_field():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    keys = set()
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert keys == {f.name for f in fields(TrainConfig)}


@pytest.mark.parametrize(
    "overrides",
    [
        {"head": "NOT_A_HEAD"},
        {"num_parts": 0},
        {"ctx_len": 0},
        {"feat_dim": 0},
        {"epochs": 0},
        {"batch_size": 1},
        {"shots": 0},
        {"seed_model": -1},
        {"seed_data": -1},
        {"data_spec": {"num_classes": 4}, "data_file": "x.xrvd"},
        {"data_spec": {"num_classes": 1}},
        {"head": "ALIGN"},  # ALIGN is PWCS at one part, as build_head insists
    ],
)
def test_config_validation_errors(overrides):
    cfg = replace(TrainConfig(), **overrides)
    with pytest.raises((ConfigError, DataError)):
        cfg.validate()


def test_config_validation_accepts_the_edges():
    TrainConfig(head="ALIGN", num_parts=1).validate()
    TrainConfig(feat_dim=MAX_EXTENT, shots=MAX_EXTENT).validate()


@pytest.mark.parametrize(
    "field, value",
    [("shots", 2.5), ("epochs", 1.5), ("batch_size", 4.0), ("num_parts", 2.0), ("seed_model", 1.5)],
)
def test_config_made_in_python_is_type_checked(field, value, tiny_dataset):
    # refused by validate, before numpy or range sees a float count
    with pytest.raises(ConfigError, match=f"config key '{field}' must be int"):
        train(tiny_config(**{field: value}), tiny_dataset)


@pytest.mark.parametrize("size", [10**30, 2**40, MAX_EXTENT + 1])
@pytest.mark.parametrize(
    "name", ["num_parts", "ctx_len", "feat_dim", "batch_size", "shots"]
)
def test_config_refuses_a_size_above_the_extent_limit(name, size, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(harness, "Model", no_allocation)
    with pytest.raises(ConfigError, match=f"{name} {size} exceeds the limit {MAX_EXTENT}"):
        TrainConfig.from_dict({name: size})
    with pytest.raises(ConfigError, match="exceeds the limit"):
        build_model(replace(TrainConfig(), **{name: size}), None)


def test_config_json_file_round_trip(tmp_path):
    cfg = tiny_config(head="CRM_XPART", batch_size=6)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(asdict(cfg)))
    loaded = TrainConfig.from_json_file(str(path))
    assert loaded == cfg


def test_config_json_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not valid")
    with pytest.raises(ConfigError, match="invalid JSON"):
        TrainConfig.from_json_file(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        TrainConfig.from_json_file(str(path))


# --- model assembly ------------------------------------------------------------------


def test_build_model_parameter_names_unique(tiny_dataset):
    model = build_model(tiny_config(), tiny_dataset)
    names = [p.name for p in model.params()]
    assert len(names) == len(set(names))
    # every parameter trains; the class embeddings are a frozen input
    assert all(p.requires_grad for p in model.params())
    assert "prompts.class_embeddings" not in names
    assert model.param_count() == sum(p.values.size for p in model.params())


def test_mlps_model_has_no_prompt_side(tiny_dataset):
    model = build_model(tiny_config(head="MLPS"), tiny_dataset)
    assert model.bank is None
    assert model.prompt_features() is None
    assert all(p.requires_grad for p in model.params())
    # no prompt bank, so no text encoder to draw or to checksum
    assert model.text_encoder is None
    assert "text_encoder" not in model.frozen_checksums()


def test_manual_mode_loads_and_validates_features(tmp_path, tiny_dataset):
    good = tmp_path / "ok.xrvf"
    save_features(str(good), np.zeros((6, 4, 32)) + 0.5)
    model = build_model(tiny_config(prompt_file=str(good)), tiny_dataset)
    assert model.bank is None
    feats = model.prompt_features()
    assert feats.values.shape == (6, 4, 32)
    assert not feats.requires_grad
    # the features are given, so no text encoder runs
    assert model.text_encoder is None
    assert "text_encoder" not in model.frozen_checksums()

    bad = tmp_path / "bad.xrvf"
    save_features(str(bad), np.ones((6, 3, 32)))
    with pytest.raises(ConfigError, match="manual prompt features"):
        build_model(tiny_config(prompt_file=str(bad)), tiny_dataset)


def test_shared_modules_identically_seeded_across_heads(tiny_dataset):
    a = build_model(tiny_config(head="CRM_FULL"), tiny_dataset)
    b = build_model(tiny_config(head="PWCS"), tiny_dataset)
    np.testing.assert_array_equal(
        a.bank.contexts.values, b.bank.contexts.values
    )
    np.testing.assert_array_equal(
        a.attention.score.weight.values, b.attention.score.weight.values
    )


# --- training ------------------------------------------------------------------------


def test_train_is_deterministic(tiny_dataset):
    cfg = tiny_config()
    model1, report1 = train(cfg, tiny_dataset)
    model2, report2 = train(cfg, tiny_dataset)
    assert report1 == report2
    assert report1.epoch_losses == report2.epoch_losses
    for p1, p2 in zip(model1.params(), model2.params()):
        np.testing.assert_array_equal(p1.values, p2.values)


def test_train_encodes_each_training_image_once(tiny_dataset, monkeypatch):
    cfg = tiny_config()
    _, plain = train(cfg, tiny_dataset)
    encode = FrozenImageEncoder.encode
    rows = []

    def counted(self, patches):
        rows.append(len(patches))
        return encode(self, patches)

    monkeypatch.setattr(FrozenImageEncoder, "encode", counted)
    model, report = train(cfg, tiny_dataset)
    # the 24-image split once, for the steps and its accuracy; then the 48 test images
    assert rows == [24, 48]
    monkeypatch.undo()
    assert report == plain
    patches, labels = few_shot_split(tiny_dataset, cfg.shots, cfg.seed_data)
    assert report.train_accuracy == evaluate(model, patches, labels)


def test_train_validates_a_data_spec_once_per_public_entry(monkeypatch):
    # TrainConfig.validate in train and again in build_model, the public entry
    # train builds through; SyntheticSpec.from_dict in config_dataset; generate
    validate = SyntheticSpec.validate
    calls = []

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(SyntheticSpec, "validate", counted)
    train(tiny_config(epochs=1))
    assert len(calls) == 4


# epoch_losses of tiny_config() per head kind, as float.hex.  Work the engine
# skips (intermediate adjoints, gradients of constants, np.add.at on unique
# indices, SGD temporaries) must not move a bit; a change that reorders the
# floating-point work re-pins these and says why.
PINNED_TINY_LOSSES = {
    "ALIGN": ["0x1.5e6b77018249cp+2", "0x1.7ede10a388bc4p+1", "0x1.9e8d974924b39p+1"],
    "PWCS": ["0x1.3b429183ff681p+3", "0x1.7dfce5261915bp+2", "0x1.d2667c975acddp+0"],
    "MLPS": ["0x1.01139034dcad7p+1", "0x1.ef7c27437fe43p+0", "0x1.cee5638e246f5p+0"],
    "CRM_FULL": ["0x1.f08265c35a005p+0", "0x1.64ce0a546e2b1p+0", "0x1.01ac95258262ep+0"],
    "CRM_BASE": ["0x1.ffa10d300c1b7p+0", "0x1.df3f0b57a9e84p+0", "0x1.b8ebe130b42f3p+0"],
    "CRM_XCLASS": ["0x1.c71920d2da7adp+0", "0x1.7c236f00824fdp+0", "0x1.45ce089025487p+0"],
    "CRM_XPART": ["0x1.8807b62d5eb25p+0", "0x1.81cd52f7dd0e8p+0", "0x1.6b5e14959e5bfp+0"],
}


# SHA-256 of the saved params.xrvp, of the reloaded model's test-split
# logits and of its exported attention weights, for the trainings above.
# These hold for numpy PINNED_DIGESTS_NUMPY; a change that moves one re-pins
# it and says why.
PINNED_DIGESTS_NUMPY = "2.4.6"
PINNED_TINY_DIGESTS = {
    "ALIGN": (
        "aac13105ea32332646cb3c88b83869ed278abf25b60a43ccb14fc934f325c80a",
        "c095edc7edda284dbb7521aa982aa75d8dd0408ce300f14d4ab4a70fbdc93bba",
        "e27f8b2705f12bef838dfd761f8c990afb5a8ff2dedbf0a9d9fa71383f24f9f8",
    ),
    "PWCS": (
        "2f30929cd7f8c2f5d7ba492947df0c5c12568c8808196f284a70b5948c82247b",
        "3678341f6bad680d84ef99916395af067e639ae9b83de9fb0e5197847f241efb",
        "a44d41a44db5a2f4f7b07227d3d7fa35e2b0256c7725bf39521f141238e21a5b",
    ),
    "MLPS": (  # its params metadata holds no text-encoder checksum
        "538fcdf3f6c5901da14d0fb5dc1ae2e5906b9a10bf87e7a6ff38295274d4d963",
        "dbba112529e7f28b392543fb85e65a5656f12a0fa9b9f0538662890e53391efb",
        "21565e1d78248ec5c9ba02d8f443dbed2bfa88d3229e17c8c035599690ae8019",
    ),
    "CRM_FULL": (
        "79f46010a8ece649d7aeb2e116a0eb53ea0d58b773d9ecc5098036c3acae60f4",
        "df89894664668813834f60ac32288d0b22b7a584e215670d5c7ebf62bbf41e6a",
        "bac26fe14856bcdf09decb22afb571215e6bc73459aa176689d5f34ffd00f657",
    ),
    "CRM_BASE": (
        "81fa319aaee8446e90059a4f4aebf45a3fa4793c9bc307efa45b0b5213e7728f",
        "c429ce6ef26b5bba68d31386c4ad032889a031d0b436484c92c8628b31f11c52",
        "35e7a895422f9aab4782e91929a27f8fa1f8353d1578999447ec175eb9fe9979",
    ),
    "CRM_XCLASS": (
        "8c357bb3336199e1367e9a749f49a076d8fe6dab68f44dc848fa1d375faf744f",
        "28ee9d38762ae54881e3ed3afb5287f26db13d1ad46a26677febbf1ffcff7fa6",
        "934a3cf1a661a35e63ddc01a2115f7dac02012a7edf94ca0a0c61e8ba55df74f",
    ),
    "CRM_XPART": (
        "760e31ae27e96b131f2f31ab6bd4efcaef5e73c5c5294656c68753f3f9194e0a",
        "a69cc3ce9bdcd4a3d9482d65ded85ca1acabad3531301a985f8df8e7855e854d",
        "32a18c0d4db8bf9172dd8c7efe53e332b549fbab5774c0c4e5048f237ae16548",
    ),
}


def test_bit_pins_cover_every_head_kind():
    assert set(PINNED_TINY_LOSSES) == set(PINNED_TINY_DIGESTS) == set(HEAD_KINDS)


@pytest.mark.parametrize("kind", sorted(PINNED_TINY_LOSSES))
def test_epoch_losses_pinned_bitwise(kind, tiny_dataset, tmp_path):
    cfg = tiny_config(head=kind, num_parts=1 if kind == "ALIGN" else 4)
    model, report = train(cfg, tiny_dataset)
    assert [x.hex() for x in report.epoch_losses] == PINNED_TINY_LOSSES[kind]
    save_model(str(tmp_path), model, report)
    loaded, _ = load_model(str(tmp_path))
    logits = predict_logits(loaded, tiny_dataset.test_patches)
    assert logits.tobytes() == predict_logits(model, tiny_dataset.test_patches).tobytes()
    assert np.__version__ == PINNED_DIGESTS_NUMPY, (
        f"the digests are pinned for numpy {PINNED_DIGESTS_NUMPY}, "
        f"this is numpy {np.__version__}: re-pin"
    )
    samples = export_attention(loaded, tiny_dataset.test_patches, tiny_dataset.test_part_ids)
    weights = np.stack([sample["weights"] for sample in samples])
    with open(tmp_path / harness.PARAMS_FILE, "rb") as f:
        params = f.read()
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (params, logits, weights))
    assert digests == PINNED_TINY_DIGESTS[kind]


def test_epoch_losses_independent_of_blas_threads():
    code = (
        "import json; from xrhead.harness import TrainConfig, train;"
        "_, r = train(TrainConfig(epochs=3, data_spec={'cross_structure': True}));"
        "print(json.dumps([[x.hex() for x in r.epoch_losses], r.test_accuracy]))"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]


def test_divergence_names_epoch_and_step(tiny_dataset, monkeypatch):
    monkeypatch.setattr(harness, "LR0", 1e100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"epoch \d+, step \d+") as err:
            train(tiny_config(), tiny_dataset)
    assert isinstance(err.value.__cause__, NumericError)


def test_report_equality_ignores_timing(tiny_dataset):
    cfg = tiny_config()
    _, report1 = train(cfg, tiny_dataset)
    _, report2 = train(cfg, tiny_dataset)
    report2.timing = {"train_wall_seconds": 999.0, "train_cpu_seconds": 999.0}
    assert report1 == report2
    timing = report1.timing
    assert 0.0 < timing["step_cpu_min_seconds"] <= timing["train_cpu_seconds"]


def test_lr_trace_follows_cosine_schedule(tiny_dataset, monkeypatch):
    step_lrs = []
    step = Sgd.step

    def recording_step(opt, lr):
        step_lrs.append(lr)
        step(opt, lr)

    monkeypatch.setattr(Sgd, "step", recording_step)
    cfg = tiny_config(epochs=5)
    _, report = train(cfg, tiny_dataset)
    assert report.epoch_lrs[0] == harness.LR0
    expected_last = harness.LR0 * 0.5 * (1.0 + np.cos(np.pi * 4 / 5))
    assert report.epoch_lrs[-1] == pytest.approx(expected_last, rel=1e-12)
    assert all(a >= b for a, b in zip(report.epoch_lrs, report.epoch_lrs[1:]))
    # every step of epoch e updates at the rate the report gives for epoch e
    assert report.num_train % cfg.batch_size != 1  # no dropped tail: whole batches only
    steps = -(-report.num_train // cfg.batch_size)
    assert len(step_lrs) == cfg.epochs * steps
    for epoch, lr in enumerate(report.epoch_lrs):
        assert lr.hex() == cosine_lr(epoch, cfg.epochs, harness.LR0).hex(), epoch
        got = step_lrs[epoch * steps : (epoch + 1) * steps]
        assert [x.hex() for x in got] == [lr.hex()] * steps, epoch


def test_training_reduces_loss_and_learns(tiny_dataset):
    _, report = train(tiny_config(epochs=20), tiny_dataset)
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.train_accuracy > 0.5


def test_frozen_checksums_unchanged_by_training(tiny_dataset):
    cfg = tiny_config()
    model = build_model(cfg, tiny_dataset)
    before = model.frozen_checksums()
    trained, _ = train(cfg, tiny_dataset)
    assert trained.frozen_checksums() == before


@pytest.mark.parametrize(
    "encoder, weight",
    [(FrozenImageEncoder, "_w"), (FrozenTextEncoder, "_w1")],
    ids=["image", "text"],
)
def test_training_refuses_an_encoder_that_moves_its_weights(
    tiny_dataset, monkeypatch, encoder, weight
):
    encode = encoder.encode

    def drifting(self, *args):
        getattr(self, weight)[0, 0] += 1.0
        return encode(self, *args)

    monkeypatch.setattr(encoder, "encode", drifting)
    with pytest.raises(ConfigError, match="frozen parameters changed during training"):
        train(tiny_config(), tiny_dataset)


def test_singleton_tail_dropped_with_warning(tiny_dataset):
    # 6 classes x 4 shots = 24 samples; batch 23 leaves a 1-sample tail
    cfg = tiny_config(batch_size=23)
    with pytest.warns(UserWarning, match="singleton tail"):
        _, report = train(cfg, tiny_dataset)
    assert any("singleton tail" in note for note in report.notes)


def test_run_report_json_round_trip(tiny_dataset):
    _, report = train(tiny_config(), tiny_dataset)
    raw = json.loads(rpt.json_text(asdict(report)))
    again = RunReport.from_dict(raw)
    assert again == report
    assert again.timing == report.timing
    with pytest.raises(ConfigError, match="unknown report keys"):
        RunReport.from_dict({"bogus": 1})
    # notes and timing have defaults; every other field must be present
    del raw["notes"], raw["timing"]
    assert RunReport.from_dict(raw) == report
    del raw["test_accuracy"], raw["config"]
    with pytest.raises(ConfigError, match="^missing report keys: config, test_accuracy$"):
        RunReport.from_dict(raw)


# --- evaluation ------------------------------------------------------------------------


def test_predict_logits_matches_per_sample_loop(tiny_dataset, monkeypatch):
    model, _ = train(tiny_config(), tiny_dataset)
    patches = tiny_dataset.test_patches[:7]
    monkeypatch.setattr(harness, "EVAL_CHUNK", 3)
    batched = predict_logits(model, patches)
    feats = model.image_encoder.encode(patches)
    with no_grad():
        for i in range(patches.shape[0]):
            row = model.logits(constant(feats[i : i + 1]), training=False).values[0]
            np.testing.assert_allclose(batched[i], row, rtol=0, atol=1e-12)


def test_evaluate_accuracy_and_tie_breaking(tiny_dataset):
    model, report = train(tiny_config(), tiny_dataset)
    acc = evaluate(model, tiny_dataset.test_patches, tiny_dataset.test_labels)
    logits = predict_logits(model, tiny_dataset.test_patches)
    manual = np.mean(np.argmax(logits, axis=1) == tiny_dataset.test_labels)
    assert acc == pytest.approx(float(manual), abs=0)
    assert acc == report.test_accuracy
    assert 0.0 <= acc <= 1.0


def test_evaluate_empty_split_errors(tiny_dataset):
    model = build_model(tiny_config(), tiny_dataset)
    with pytest.raises(DataError, match="empty"):
        evaluate(model, tiny_dataset.test_patches[:0], tiny_dataset.test_labels[:0])


def test_evaluate_refuses_labels_that_do_not_fit_the_model(tiny_dataset, monkeypatch):
    model = build_model(tiny_config(), tiny_dataset)

    def fail(*args):
        raise AssertionError("encoded before the labels were checked")

    monkeypatch.setattr(model.image_encoder, "encode", fail)
    patches, labels = tiny_dataset.test_patches[:5], tiny_dataset.test_labels[:5]
    with pytest.raises(DataError, match="one label per image"):
        evaluate(model, patches, labels[:3])
    with pytest.raises(DataError, match="one label per image"):
        evaluate(model, patches, labels[:, None])
    for bad in (model.num_classes, -1):
        with pytest.raises(DataError, match=r"class indices in \[0, 6\)"):
            evaluate(model, patches, np.where(np.arange(5) == 2, bad, labels))
    with pytest.raises(DataError, match="class indices"):
        evaluate(model, patches, labels + 0.5)


def test_eval_refuses_patches_that_are_not_three_dimensional(tiny_dataset):
    model = build_model(tiny_config(), tiny_dataset)
    patches, part_ids = tiny_dataset.test_patches, tiny_dataset.test_part_ids
    for bad in (patches[0, 0], patches[:, 0]):
        with pytest.raises(ShapeMismatchError, match="images, tokens, features"):
            predict_logits(model, bad)
        with pytest.raises(ShapeMismatchError, match="images, tokens, features"):
            export_attention(model, bad, part_ids)


def test_export_attention_refuses_zero_d_patches(tiny_dataset):
    # a 0-d array has no images to slice or to count: it used to raise IndexError
    model = build_model(tiny_config(), tiny_dataset)
    for limit in (None, 2):
        with pytest.raises(ShapeMismatchError, match="images, tokens, features"):
            export_attention(model, np.float64(1.0), tiny_dataset.test_part_ids, limit=limit)


def test_eval_refuses_patches_that_are_not_numeric(tiny_dataset):
    model = build_model(tiny_config(), tiny_dataset)
    patches = tiny_dataset.test_patches[:4]
    for bad in (np.full(patches.shape, "x"), patches.astype(str)):
        with pytest.raises(DataError, match="numeric"):
            predict_logits(model, bad)
        with pytest.raises(DataError, match="numeric"):
            evaluate(model, bad, tiny_dataset.test_labels[:4])


def test_eval_refuses_patches_that_give_non_finite_logits(tiny_dataset):
    model = build_model(tiny_config(), tiny_dataset)
    patches = tiny_dataset.test_patches[:4].copy()
    patches[2, 1, 0] = np.nan
    with pytest.raises(DataError, match="non-finite logits"):
        predict_logits(model, patches)
    with pytest.raises(DataError, match="non-finite logits"):
        evaluate(model, patches, tiny_dataset.test_labels[:4])


def test_eval_encodes_one_chunk_at_a_time(tiny_dataset, monkeypatch):
    monkeypatch.setattr(harness, "EVAL_CHUNK", 5)
    model = build_model(tiny_config(), tiny_dataset)
    encode = model.image_encoder.encode
    rows = []

    def counted(patches):
        rows.append(patches.shape[0])
        return encode(patches)

    monkeypatch.setattr(model.image_encoder, "encode", counted)
    predict_logits(model, tiny_dataset.test_patches)
    assert rows == [5] * 9 + [3]  # 48 test images


@pytest.mark.parametrize("kind", HEAD_KINDS)
def test_chunked_eval_matches_whole_split_oracle(kind, tiny_dataset, monkeypatch):
    model, _ = train(tiny_config(head=kind, num_parts=1 if kind == "ALIGN" else 4), tiny_dataset)
    # 288 images: a multiple of neither the default chunk (256) nor 7
    patches = np.concatenate([tiny_dataset.test_patches] * 6)
    part_ids = np.concatenate([tiny_dataset.test_part_ids] * 6)
    folded = kind == "CRM_FULL"  # its eval head is the folded chain: see test_fold.py
    for raw in (patches, patches.astype(np.float32)):
        for chunk in (256, 7):
            monkeypatch.setattr(harness, "EVAL_CHUNK", chunk)
            want, _ = bruteforce.whole_split_eval(model, raw, chunk, folded)
            assert predict_logits(model, raw).tobytes() == want.tobytes()
        monkeypatch.setattr(harness, "EVAL_CHUNK", 256)
        want_logits, want_weights = bruteforce.whole_split_eval(model, raw, folded=folded)
        samples = export_attention(model, raw, part_ids)
        assert [s["index"] for s in samples] == list(range(raw.shape[0]))
        assert [s["prediction"] for s in samples] == np.argmax(want_logits, axis=1).tolist()
        for sample, weights, ids in zip(samples, want_weights, part_ids):
            assert sample["weights"].tobytes() == weights.tobytes()
            assert sample["part_ids"].tobytes() == ids.tobytes()


def test_eval_passes_run_on_the_calling_thread(tiny_dataset, monkeypatch):
    monkeypatch.setattr(harness, "EVAL_CHUNK", 5)
    model = build_model(tiny_config(), tiny_dataset)
    patches = tiny_dataset.test_patches
    want = predict_logits(model, patches)
    encode = model.image_encoder.encode
    encoded_on = []

    def recorded(chunk):
        encoded_on.append(threading.get_ident())
        return encode(chunk)

    monkeypatch.setattr(model.image_encoder, "encode", recorded)
    threads = threading.active_count()
    for _ in range(25):
        encoded_on.clear()
        assert predict_logits(model, patches).tobytes() == want.tobytes()
        assert encoded_on == [threading.get_ident()] * 10  # 48 test images
        assert threading.active_count() == threads


def test_eval_memory_does_not_grow_with_the_split():
    # a whole-split encode of 4x the split would hold 3 x 1,280 x 16 x 64
    # float64 more (31 MB)
    spec = {"cross_structure": True, "seed": 0}
    ds = generate(SyntheticSpec.from_dict(spec))
    model = build_model(TrainConfig(data_spec=spec), ds)
    small = ds.test_patches
    predict_logits(model, small)  # warm-up
    peaks = []
    for patches in (small, np.concatenate([small] * 4)):
        tracemalloc.start()
        try:
            logits = predict_logits(model, patches)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # token features are held one chunk at a time: only the logits grow
    assert peaks[1] - peaks[0] <= logits.nbytes


def test_untrained_model_near_chance():
    spec = dict(TINY_SPEC, test_per_class=32)
    ds = generate(SyntheticSpec.from_dict(spec))
    model = build_model(tiny_config(data_spec=spec), ds)
    acc = evaluate(model, ds.test_patches, ds.test_labels)
    # 192 samples at p = 1/6: keep within a generous 4-sigma binomial band
    assert abs(acc - 1 / 6) < 4 * np.sqrt((1 / 6) * (5 / 6) / 192)


# --- comparisons -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_comparison(tiny_dataset):
    return compare_heads(tiny_config(), ["CRM_BASE", "PWCS"], num_seeds=2, dataset=tiny_dataset)


def test_compare_rows_and_summary(small_comparison):
    result = small_comparison
    assert [r["head"] for r in result.rows] == ["CRM_BASE", "CRM_BASE", "PWCS", "PWCS"]
    assert [r["seed_model"] for r in result.rows] == [0, 1, 0, 1]
    for kind in ("CRM_BASE", "PWCS"):
        accs = [r["test_accuracy"] for r in result.rows if r["head"] == kind]
        assert result.summary[kind]["mean_test"] == pytest.approx(np.mean(accs))
        assert result.summary[kind]["std_test"] == pytest.approx(np.std(accs))


def test_compare_runs_reproduce_single_train(small_comparison, tiny_dataset):
    cfg = tiny_config(head="PWCS", seed_model=1, seed_data=1)
    _, solo = train(cfg, tiny_dataset)
    row = [r for r in small_comparison.rows if r["head"] == "PWCS" and r["seed_model"] == 1]
    assert row[0]["test_accuracy"] == solo.test_accuracy
    assert row[0]["train_accuracy"] == solo.train_accuracy


def test_compare_csv_shape_and_parse(small_comparison):
    text = small_comparison.csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ComparisonResult.CSV_HEADER
    assert len(rows) == 1 + 4 + 2 * 2  # header + runs + mean/std per kind
    assert rows[5][:2] == ["CRM_BASE", "mean"]
    parsed = float(rows[1][3])
    assert parsed == small_comparison.rows[0]["train_accuracy"]


def test_compare_validation(tiny_dataset):
    with pytest.raises(ConfigError, match="at least 2"):
        compare_heads(tiny_config(), ["PWCS"], num_seeds=1, dataset=tiny_dataset)
    with pytest.raises(ConfigError, match="duplicate"):
        compare_heads(tiny_config(), ["PWCS", "PWCS"], num_seeds=1, dataset=tiny_dataset)
    with pytest.raises(ConfigError, match="num_seeds"):
        compare_heads(tiny_config(), ["PWCS", "MLPS"], num_seeds=0, dataset=tiny_dataset)
    for kind in (5, None, 1.5):
        with pytest.raises(ConfigError, match="head kind must be a string"):
            compare_heads(tiny_config(), ["PWCS", kind], num_seeds=1, dataset=tiny_dataset)


def test_compare_refuses_seed_counts_that_are_not_integers(tiny_dataset, monkeypatch):
    def no_training(cfg, ds=None):
        raise AssertionError("trained")

    monkeypatch.setattr(experiments, "train", no_training)
    for bad in (1.5, True):
        with pytest.raises(ConfigError, match="num_seeds must be an integer"):
            compare_heads(tiny_config(), ["PWCS", "MLPS"], num_seeds=bad, dataset=tiny_dataset)
    with pytest.raises(AssertionError, match="trained"):  # numpy integers are counts
        compare_heads(tiny_config(), ["PWCS", "MLPS"], num_seeds=np.int64(1), dataset=tiny_dataset)


# --- sweeps ---------------------------------------------------------------------------------


def test_sweep_rows_flags_and_csv(tiny_dataset):
    result = sweep_parts(tiny_config(), [1, 2, 4], dataset=tiny_dataset)
    assert [r["num_parts"] for r in result.rows] == [1, 2, 4]
    assert [r["is_default"] for r in result.rows] == [False, False, True]
    assert set(result.flags) == {
        "runtime_monotone",
        "best_parts",
        "best_test_accuracy",
        "default_within_one_point",
    }
    best = max(result.rows, key=lambda r: r["test_accuracy"])
    assert result.flags["best_test_accuracy"] == best["test_accuracy"]
    rows = list(csv.reader(io.StringIO(result.csv())))
    assert rows[0] == ["num_parts", "train_accuracy", "test_accuracy", "is_default"]
    assert "train_cpu_seconds" not in result.csv()
    import xml.etree.ElementTree as ET

    ET.fromstring(result.svg())


def test_sweep_without_default_part_count(tiny_dataset):
    result = sweep_parts(tiny_config(), [1, 2], dataset=tiny_dataset)
    assert result.flags["default_within_one_point"] is None


def test_sweep_validation(tiny_dataset):
    with pytest.raises(ConfigError, match="at least one"):
        sweep_parts(tiny_config(), [], dataset=tiny_dataset)
    with pytest.raises(ConfigError, match=">= 1"):
        sweep_parts(tiny_config(), [0], dataset=tiny_dataset)
    with pytest.raises(ConfigError, match="duplicate"):
        sweep_parts(tiny_config(), [2, 2], dataset=tiny_dataset)


def test_sweep_refuses_part_counts_that_are_not_integers(tiny_dataset, monkeypatch):
    def no_training(cfg, ds=None):
        raise AssertionError(f"trained {cfg.num_parts} parts")

    monkeypatch.setattr(experiments, "train", no_training)
    for bad in ([1.5], [True, 2], [2, 2.0]):
        with pytest.raises(ConfigError, match="part counts must be an integer"):
            sweep_parts(tiny_config(), bad, dataset=tiny_dataset)
    with pytest.raises(AssertionError, match="trained 2 parts"):  # numpy integers are counts
        sweep_parts(tiny_config(), [np.int64(2)], dataset=tiny_dataset)


def test_bad_run_refused_before_any_training(tiny_dataset, monkeypatch):
    def no_training(cfg, ds=None):
        raise AssertionError(f"trained {cfg.head} at {cfg.num_parts} parts")

    monkeypatch.setattr(experiments, "train", no_training)
    with pytest.raises(ConfigError, match="ALIGN needs num_parts == 1"):
        compare_heads(tiny_config(), ["CRM_FULL", "ALIGN"], num_seeds=3, dataset=tiny_dataset)
    with pytest.raises(ConfigError, match="ALIGN needs num_parts == 1"):
        sweep_parts(tiny_config(head="ALIGN", num_parts=1), [1, 2], dataset=tiny_dataset)


def test_sweep_runtime_flag_reads_least_step_time(tiny_dataset, monkeypatch):
    real_train = experiments.train

    def loaded_train(cfg, ds=None):
        model, report = real_train(cfg, ds)
        # a load spike inflates the small runs' totals; the least step time still grows with S
        report.timing.update(
            train_cpu_seconds=10.0 - cfg.num_parts, step_cpu_min_seconds=float(cfg.num_parts)
        )
        return model, report

    monkeypatch.setattr(experiments, "train", loaded_train)
    result = sweep_parts(tiny_config(epochs=1), [1, 2, 4], dataset=tiny_dataset)
    assert [r["step_cpu_min_seconds"] for r in result.rows] == [1.0, 2.0, 4.0]
    assert result.flags["runtime_monotone"] is True


# --- embedding analyses ------------------------------------------------------------------------


def test_analyze_two_points_share_distance():
    stats = analyze_embeddings(np.array([[0.0, 0.0], [3.0, 4.0]]), bins=2)
    np.testing.assert_allclose(stats["min_distances"], [5.0, 5.0])
    assert stats["mean"] == 5.0
    assert stats["median"] == 5.0


def test_analyze_duplicated_row_min_zero():
    emb = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0]])
    stats = analyze_embeddings(emb, bins=2)
    assert stats["min_distances"][0] == 0.0
    assert stats["min_distances"][1] == 0.0


def test_analyze_two_cluster_bimodality_exact_counts():
    # nearest-neighbor distances: six points at spacing 1, four at spacing 9
    line = np.array([0.0, 1.0, 30.0, 31.0, 60.0, 61.0, 100.0, 109.0, 200.0, 209.0])
    emb = np.stack([line, np.zeros_like(line)], axis=1)
    stats = analyze_embeddings(emb, bins=4)
    np.testing.assert_array_equal(stats["counts"], [6, 0, 0, 4])


def test_analyze_validation():
    with pytest.raises(DataError):
        analyze_embeddings(np.zeros((1, 3)))
    with pytest.raises(DataError):
        analyze_embeddings(np.zeros(5))
    with pytest.raises(DataError):
        analyze_embeddings(np.zeros((4, 3)), bins=0)


def test_analyze_refuses_non_finite_rows():
    for bad in (np.nan, np.inf):
        emb = np.arange(12.0).reshape(4, 3)
        emb[1, 2] = bad
        with pytest.raises(DataError, match="finite"):
            analyze_embeddings(emb)


def test_project_2d_collinear_second_component_zero():
    emb = np.outer(np.array([0.0, 1.0, 2.0, 5.0]), np.array([1.0, -2.0, 0.5]))
    coords = project_2d(emb)
    assert coords.shape == (4, 2)
    np.testing.assert_allclose(coords[:, 1], 0.0, atol=1e-9)


def test_project_2d_rotation_preserves_distances():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(8, 5))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    a = project_2d(emb)
    b = project_2d(emb @ q)

    def pairwise(x):
        return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)

    np.testing.assert_allclose(pairwise(a), pairwise(b), atol=1e-9)


def test_project_2d_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(10, 6))
    coords = project_2d(emb)
    centered = emb - emb.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    oracle = centered @ evecs[:, ::-1][:, :2]
    for j in range(2):
        pivot = np.argmax(np.abs(oracle[:, j]))
        if oracle[pivot, j] < 0:
            oracle[:, j] = -oracle[:, j]
    np.testing.assert_allclose(coords, oracle, atol=1e-9)
    # sign convention: the largest-magnitude coordinate in each column is positive
    for j in range(2):
        assert coords[np.argmax(np.abs(coords[:, j])), j] > 0


def test_project_2d_needs_three_rows():
    with pytest.raises(DataError):
        project_2d(np.zeros((2, 4)))


def test_class_name_embeddings_deterministic(tiny_dataset):
    cfg = tiny_config()
    a = class_name_embeddings(cfg, tiny_dataset.class_embeddings)
    b = class_name_embeddings(cfg, tiny_dataset.class_embeddings)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, cfg.feat_dim)
    manual = bruteforce.manual_prompt_features(cfg, tiny_dataset.class_embeddings)
    assert manual.shape == (6, cfg.num_parts, cfg.feat_dim)
    np.testing.assert_array_equal(manual[:, 0], a)
    rand = bruteforce.random_prompt_features(cfg, 6, seed=1)
    assert rand.shape == (6, cfg.num_parts, cfg.feat_dim)
    np.testing.assert_array_equal(rand, bruteforce.random_prompt_features(cfg, 6, seed=1))


# --- attention export -----------------------------------------------------------------------


def test_export_attention_rows(tiny_dataset):
    model, _ = train(tiny_config(epochs=5), tiny_dataset)
    samples = export_attention(
        model, tiny_dataset.test_patches, tiny_dataset.test_part_ids, limit=4
    )
    assert len(samples) == 4
    for sample in samples:
        weights = sample["weights"]
        assert weights.shape == (10, 5)  # tokens x (parts + 1)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)
        assert sample["part_ids"].shape == (10,)
        assert 0 <= sample["prediction"] < 6


def test_export_attention_encodes_and_attends_once(tiny_dataset, monkeypatch):
    model, _ = train(tiny_config(), tiny_dataset)
    patches = tiny_dataset.test_patches
    calls = {"encode": 0, "forward": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(FrozenImageEncoder, "encode", counted("encode", FrozenImageEncoder.encode))
    monkeypatch.setattr(PartAttention, "forward", counted("forward", PartAttention.forward))
    samples = export_attention(model, patches, tiny_dataset.test_part_ids, limit=8)
    assert calls == {"encode": 1, "forward": 1}
    monkeypatch.undo()
    want = np.argmax(predict_logits(model, patches[:8]), axis=1)
    assert [s["prediction"] for s in samples] == want.tolist()
    with no_grad():
        feats = constant(model.image_encoder.encode(patches[:8]))
        _, weights = model.attention.forward(feats, training=False)
    for i, sample in enumerate(samples):
        assert sample["weights"].tobytes() == weights.values[i].tobytes()


def test_export_attention_refuses_missing_part_ids(tiny_dataset, monkeypatch):
    model = build_model(tiny_config(), tiny_dataset)

    def fail(patches):
        raise AssertionError("encoded before part_ids were checked")

    monkeypatch.setattr(model.image_encoder, "encode", fail)
    part_ids = tiny_dataset.test_part_ids[:3]
    for patches, limit in ((tiny_dataset.test_patches[:4], None), (tiny_dataset.test_patches, 4)):
        with pytest.raises(DataError, match="part_ids"):
            export_attention(model, patches, part_ids, limit=limit)


def test_export_attention_refuses_part_ids_it_would_misread(tiny_dataset, monkeypatch):
    # two ids for ten tokens would come back beside (10, 5) weights, and the
    # analyses would truncate fractional ids
    model = build_model(tiny_config(), tiny_dataset)

    def fail(patches):
        raise AssertionError("encoded before part_ids were checked")

    monkeypatch.setattr(model.image_encoder, "encode", fail)
    patches, part_ids = tiny_dataset.test_patches, tiny_dataset.test_part_ids
    for bad, match in (
        (part_ids[:, :2], r"needs a row of token ids"),
        (part_ids[:, 0], r"needs a row of token ids"),
        (part_ids + 0.5, "part_ids must be integers"),
        (part_ids > 0, "part_ids must be integers"),
    ):
        with pytest.raises(DataError, match=match):
            export_attention(model, patches, bad)


def test_export_attention_empty_errors(tiny_dataset):
    model = build_model(tiny_config(), tiny_dataset)
    with pytest.raises(DataError, match="empty"):
        export_attention(model, tiny_dataset.test_patches[:0], tiny_dataset.test_part_ids[:0])


@pytest.mark.parametrize(
    "limit",
    [0, -1, 2.5, "3", True, np.float64(2.0)],
    ids=["0", "-1", "float", "str", "bool", "numpy_float"],
)
def test_export_attention_refuses_limit_below_one(limit, tiny_dataset, monkeypatch):
    model = build_model(tiny_config(), tiny_dataset)

    def fail(patches):
        raise AssertionError("encoded before the limit was checked")

    monkeypatch.setattr(model.image_encoder, "encode", fail)
    with pytest.raises(ConfigError, match="limit"):
        export_attention(model, tiny_dataset.test_patches, tiny_dataset.test_part_ids, limit=limit)


def test_export_attention_takes_a_numpy_integer_limit(tiny_dataset):
    model = build_model(tiny_config(), tiny_dataset)
    patches, part_ids = tiny_dataset.test_patches, tiny_dataset.test_part_ids
    samples = export_attention(model, patches, part_ids, limit=np.int64(3))
    assert [s["index"] for s in samples] == [0, 1, 2]


def test_mutual_information_basics():
    x = np.array([0, 0, 1, 1, 2, 2])
    assert mutual_information(x, x) == pytest.approx(np.log(3))
    assert mutual_information(x, np.zeros_like(x)) == pytest.approx(0.0)
    with pytest.raises(DataError):
        mutual_information(x, x[:3])


def test_mutual_information_refuses_labels_it_would_misread():
    # a negative label would wrap to the last row, and floats would be truncated
    with pytest.raises(IndexError, match="labels must be >= 0"):
        mutual_information(np.array([-1, 0]), np.array([0, 1]))
    with pytest.raises(IndexError, match="labels must be >= 0"):
        mutual_information(np.array([0, 1]), np.array([0, -1]))
    for x, y in (([0.5, 1.7], [0, 1]), ([0, 1], [0.0, 1.0]), ([False, True], [0, 1])):
        with pytest.raises(DataError, match="labels must be integers"):
            mutual_information(np.array(x), np.array(y))
    assert mutual_information(np.array([1, 0]), np.array([0, 1])) == pytest.approx(np.log(2))


def test_attention_alignment_beats_permuted_baseline():
    spec = dict(TINY_SPEC, noise=0.0, cross_structure=True, true_parts=4, num_superclasses=2)
    ds = generate(SyntheticSpec.from_dict(spec))
    model, _ = train(tiny_config(epochs=15, data_spec=spec), ds)
    samples = export_attention(model, ds.test_patches, ds.test_part_ids, limit=24)
    scores = attention_alignment(samples)
    assert scores["mutual_information"] > scores["permuted_mutual_information"]


# --- persistence -----------------------------------------------------------------------------


# the batch norms each head kind stores in its model file, by name
HEAD_BATCH_NORMS = {
    "ALIGN": [],
    "PWCS": [],
    "MLPS": [f"head.part{i}.bn" for i in range(4)],
    "CRM_FULL": ["head.clf.bn"],
    "CRM_BASE": ["head.clf.bn"],
    "CRM_XCLASS": ["head.clf.bn"],
    "CRM_XPART": ["head.clf.bn"],
}


@pytest.mark.parametrize("kind", sorted(HEAD_BATCH_NORMS))
def test_save_load_model_round_trip(kind, tmp_path, tiny_dataset):
    cfg = tiny_config(head=kind, num_parts=1 if kind == "ALIGN" else 4)
    model, report = train(cfg, tiny_dataset)
    out = tmp_path / "model"
    save_model(str(out), model, report)
    loaded, loaded_report = load_model(str(out))
    assert loaded_report == report
    patches = tiny_dataset.test_patches[:6]
    assert predict_logits(model, patches).tobytes() == predict_logits(loaded, patches).tobytes()
    names = [bn.name for bn in model.batch_norms()]
    assert names == [bn.name for bn in loaded.batch_norms()]
    assert names == ["attn.bn"] + HEAD_BATCH_NORMS[kind]


def _names(prefix, leaves):
    return [f"{prefix}.{leaf}" for leaf in leaves]


_STATS = ("running_mean", "running_var")
_MLP = ("fc1.weight", "bn.gamma", "bn.beta", "fc2.weight", "fc2.bias")
_ATTENTION = _names("attn", ("bn.gamma", "bn.beta", "score.weight", "score.bias"))
_ATTENTION += _names("attn", ("proj.weight", "proj.bias"))
_PROMPTED = ["prompts.contexts"] + _ATTENTION
_PWCS_FILE = _PROMPTED + ["prompts.class_embeddings"] + _names("attn.bn", _STATS)
_CRM_FILE = _PROMPTED + _names("head.clf", _MLP) + ["prompts.class_embeddings"]
_CRM_FILE += _names("attn.bn", _STATS) + _names("head.clf.bn", _STATS)
_MLPS_FILE = _ATTENTION + [name for i in range(4) for name in _names(f"head.part{i}", _MLP)]
_MLPS_FILE += _names("attn.bn", _STATS)
_MLPS_FILE += [name for i in range(4) for name in _names(f"head.part{i}.bn", _STATS)]
# each head kind's model-file array names, in file order: the parameters as
# params() lists them, the frozen prompt side, then the batch-norm
# statistics sorted by norm name
MODEL_FILE_ARRAYS = {
    "ALIGN": _PWCS_FILE,
    "PWCS": _PWCS_FILE,
    "MLPS": _MLPS_FILE,
    "CRM_FULL": _CRM_FILE,
    "CRM_BASE": _CRM_FILE,
    "CRM_XCLASS": _CRM_FILE,
    "CRM_XPART": _CRM_FILE,
}


@pytest.mark.parametrize("kind", sorted(MODEL_FILE_ARRAYS))
def test_model_file_array_names_in_file_order(kind, tmp_path, tiny_dataset):
    cfg = tiny_config(head=kind, num_parts=1 if kind == "ALIGN" else 4)
    save_model(str(tmp_path), build_model(cfg, tiny_dataset))
    with open(tmp_path / "params.xrvp", "rb") as f:
        arrays, _ = unpack(f, harness.MODEL_MAGIC, harness.MODEL_VERSION, "array")
    assert list(arrays) == MODEL_FILE_ARRAYS[kind]


def _assert_in_arena(params, opt):
    for p in params:
        assert np.shares_memory(p.values, opt.values), p.name
        assert np.shares_memory(p.grad, opt.grads), p.name


@pytest.mark.parametrize("kind", sorted(HEAD_BATCH_NORMS))
def test_parameters_live_in_the_arena(kind, tmp_path, tiny_dataset):
    cfg = tiny_config(head=kind, num_parts=1 if kind == "ALIGN" else 4, epochs=2)
    model, report = train(cfg, tiny_dataset)
    # train packed every parameter into one flat values array and dropped the
    # adjoints after the last step: a trained model holds its values only
    first = model.params()[0]
    for p in model.params():
        assert p.values.base is first.values.base is not None, p.name
        assert p.grad is None, p.name
    save_model(str(tmp_path / "model"), model, report)
    for m in (build_model(cfg, tiny_dataset), load_model(str(tmp_path / "model"))[0]):
        params = m.params()
        assert [p.name for p in params if p.grad is not None] == []
        before = [p.values.tobytes() for p in params]
        opt = Sgd(params)
        _assert_in_arena(params, opt)
        assert not opt.grads.any()  # each adjoint starts at zero
        assert [p.values.tobytes() for p in params] == before
        assert opt.values.size == m.param_count() == report.param_count
        opt.grads.fill(1.0)
        opt.step(0.1)
        _assert_in_arena(params, opt)


def _rewrite_params(path, edit_meta=None, edit_arrays=None):
    """Rewrite a params file with edit_meta(metadata) and edit_arrays(arrays) applied;
    arrays is a dict from name to values."""
    with open(path, "rb") as f:
        arrays, meta = unpack(f, harness.MODEL_MAGIC, harness.MODEL_VERSION, "array")
    if edit_meta is not None:
        edit_meta(meta)
    if edit_arrays is not None:
        edit_arrays(arrays)
    triples = [(n, v, "<f8") for n, v in arrays.items()]
    path.write_bytes(pack(harness.MODEL_MAGIC, harness.MODEL_VERSION, triples, meta))


@pytest.mark.parametrize("kind", HEAD_KINDS)
def test_reloaded_parameters_are_fresh_writable_arrays(kind, tmp_path, tiny_dataset):
    model, _ = train(tiny_config(head=kind, num_parts=1 if kind == "ALIGN" else 4), tiny_dataset)
    save_model(str(tmp_path), model)
    loaded, _ = load_model(str(tmp_path))
    values = [p.values for p in loaded.params()]
    for i, v in enumerate(values):
        assert v.dtype == np.float64 and v.flags.writeable and v.flags.c_contiguous
        assert not any(np.shares_memory(v, other) for other in values[i + 1 :])
    patches = tiny_dataset.test_patches
    assert predict_logits(loaded, patches).tobytes() == predict_logits(model, patches).tobytes()


class _CountingGenerator:
    """A numpy Generator that records how many values each normal() call draws."""

    def __init__(self, rng, drawn: list):
        self._rng, self._drawn = rng, drawn

    def normal(self, *args, **kwargs):
        values = self._rng.normal(*args, **kwargs)
        self._drawn.append(np.size(values))
        return values

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("kind", ["CRM_FULL", "PWCS", "MLPS"])
def test_reload_draws_only_the_frozen_encoders(kind, tmp_path, tiny_dataset, monkeypatch):
    cfg = tiny_config(head=kind)
    model, _ = train(cfg, tiny_dataset)
    save_model(str(tmp_path), model)
    default_rng = np.random.default_rng
    drawn = []
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed=None: _CountingGenerator(default_rng(seed), drawn)
    )
    loaded, _ = load_model(str(tmp_path))
    monkeypatch.undo()
    w, f = tiny_dataset.spec.embed_dim, cfg.feat_dim
    # positions, w1, b1, w2, b2; MLPS has no prompt bank, so no text encoder
    text = 0 if kind == "MLPS" else (cfg.ctx_len + 1) * w + w * f + f + f * f + f
    image = tiny_dataset.spec.patch_dim * f + f  # w, b
    assert sum(drawn) == text + image
    stored = [p.values.tobytes() for p in model.params()]
    assert [p.values.tobytes() for p in loaded.params()] == stored


def test_load_model_refuses_integer_parameters(tmp_path, tiny_dataset):
    # dtype code 1 was int64; pack no longer writes it, so the bytes are framed by hand
    model, _ = train(tiny_config(), tiny_dataset)
    save_model(str(tmp_path), model)
    params = tmp_path / "params.xrvp"
    with open(params, "rb") as f:
        arrays, meta = unpack(f, harness.MODEL_MAGIC, harness.MODEL_VERSION, "array")
    name = model.params()[0].name
    framed = [(n, 1 if n == name else 2, v) for n, v in arrays.items()]
    raw, code_offsets = bruteforce.framed_by_hand(
        harness.MODEL_MAGIC, harness.MODEL_VERSION, framed, meta
    )
    params.write_bytes(raw)
    with pytest.raises(FormatError, match=re.escape(f"unknown dtype code 1 for {name}")) as err:
        load_model(str(tmp_path))
    assert err.value.offset == code_offsets[list(arrays).index(name)]


@pytest.mark.parametrize(
    "missing, error, match",
    [
        ("prompts.class_embeddings", DataError, "learned prompts need class embeddings"),
        ("attn.score.weight", FormatError, "missing model array 'attn.score.weight'"),
    ],
    ids=["class_embeddings", "parameter"],
)
def test_load_model_refuses_a_file_without_an_array(
    missing, error, match, tmp_path, tiny_dataset
):
    save_model(str(tmp_path), build_model(tiny_config(), tiny_dataset))
    _rewrite_params(tmp_path / "params.xrvp", edit_arrays=lambda arrays: arrays.pop(missing))
    with pytest.raises(error, match=match):
        load_model(str(tmp_path))


@pytest.mark.parametrize(
    "stored, match",
    [
        (lambda emb: emb[0], "class embeddings must be"),  # 1-D
        (lambda emb: np.concatenate([emb, emb], axis=1), "frozen"),  # twice as wide
    ],
    ids=["one_dim", "twice_as_wide"],
)
def test_load_model_refuses_class_embeddings_of_another_shape(
    stored, match, tmp_path, tiny_dataset
):
    # the text encoder takes its width from the stored embeddings
    save_model(str(tmp_path), build_model(tiny_config(), tiny_dataset))

    def edit(arrays):
        arrays["prompts.class_embeddings"] = stored(arrays["prompts.class_embeddings"])

    _rewrite_params(tmp_path / "params.xrvp", edit_arrays=edit)
    with pytest.raises(DataError, match=match):
        load_model(str(tmp_path))


def test_load_model_refuses_other_encoders(tmp_path, tiny_dataset):
    # the frozen encoders are rebuilt from patch_dim and the config's shapes;
    # their checksums in the params file catch an edit to either
    model, _ = train(tiny_config(), tiny_dataset)
    out = tmp_path / "model"
    save_model(str(out), model)
    params = out / "params.xrvp"
    saved = params.read_bytes()

    _rewrite_params(params, lambda meta: meta.update(patch_dim=meta["patch_dim"] + 1))
    with pytest.raises(DataError, match="frozen"):
        load_model(str(out))

    params.write_bytes(saved)
    _rewrite_params(params, lambda meta: meta.pop("frozen_checksums"))
    with pytest.raises(FormatError, match="frozen_checksums"):
        load_model(str(out))

    params.write_bytes(saved)
    config = json.loads((out / "config.json").read_text())
    config["ctx_len"] += 1  # more text-encoder positions
    (out / "config.json").write_text(json.dumps(config))
    with pytest.raises(DataError, match="frozen"):
        load_model(str(out))


def test_load_model_refuses_removed_config_keys(tmp_path, tiny_dataset):
    save_model(str(tmp_path), build_model(tiny_config(), tiny_dataset))
    config = json.loads((tmp_path / "config.json").read_text())
    for removed in (
        dict(proj_dim=None, squared_denominator=False, normalize_prompts=False),
        dict(scale=64.0, cosine_loss_scale=64.0, encoder_seed=7, prompt_mode="learned"),
        dict(lr0=2e-3, weight_decay=1e-4, momentum=0.9, head_hidden=None),
        dict(word_dim=32),
    ):
        (tmp_path / "config.json").write_text(json.dumps({**config, **removed}))
        with pytest.raises(FormatError, match="unknown config keys"):
            load_model(str(tmp_path))


def test_load_model_refuses_report_values_of_the_wrong_type(tmp_path, tiny_dataset):
    model, report = train(tiny_config(), tiny_dataset)
    save_model(str(tmp_path), model, report)
    saved = json.loads((tmp_path / "report.json").read_text())
    for key, value in (
        ("train_accuracy", "high"),
        ("num_train", [1]),
        ("num_test", True),
        ("epoch_losses", "none"),
        ("epoch_losses", [1.0, "nan"]),
        ("epoch_lrs", None),
        ("notes", [1]),
        ("config", []),
    ):
        (tmp_path / "report.json").write_text(json.dumps({**saved, key: value}))
        with pytest.raises(FormatError, match=f"report key '{key}' must be"):
            load_model(str(tmp_path))
    for text in ("[]", '{"head": "PWCS"}', "{"):
        (tmp_path / "report.json").write_text(text)
        with pytest.raises(FormatError, match="report is invalid"):
            load_model(str(tmp_path))
    (tmp_path / "report.json").write_text(json.dumps(saved))
    assert load_model(str(tmp_path))[1] == report


def test_load_model_refuses_malformed_batch_norm_state(tmp_path, tiny_dataset):
    model, _ = train(tiny_config(head="CRM_FULL"), tiny_dataset)
    out = tmp_path / "model"
    save_model(str(out), model)
    params = out / "params.xrvp"
    saved = params.read_bytes()

    def negative(values):
        values = values.copy()
        values[0] = -1.0
        return values

    def doubled(values):
        return np.stack([values, values])

    for name, edit, error, match in (
        ("attn.bn.running_mean", lambda values: values[:1], FormatError, r"has shape \(1,\)"),
        ("attn.bn.running_var", doubled, FormatError, "has shape"),
        ("head.clf.bn.running_var", negative, DataError, "negative"),
    ):
        params.write_bytes(saved)
        _rewrite_params(params, edit_arrays=lambda a: a.update({name: edit(a[name])}))
        with pytest.raises(error, match=match):
            load_model(str(out))


def test_save_model_refuses_a_non_finite_parameter(tmp_path, tiny_dataset):
    # such a file was written, and then refused by load_model
    model = build_model(tiny_config(), tiny_dataset)
    p = model.params()[-1]
    p.values.flat[0] = np.nan
    out = tmp_path / "model"
    with pytest.raises(FormatError, match=re.escape(f"array {p.name!r} has values that are not")):
        save_model(str(out), model)
    assert not out.exists()


def test_save_load_mlps_model(tmp_path, tiny_dataset):
    model, _ = train(tiny_config(head="MLPS"), tiny_dataset)
    out = tmp_path / "model"
    save_model(str(out), model)
    loaded, loaded_report = load_model(str(out))
    assert loaded_report is None
    np.testing.assert_array_equal(
        predict_logits(model, tiny_dataset.test_patches[:6]),
        predict_logits(loaded, tiny_dataset.test_patches[:6]),
    )


def test_save_load_manual_mode(tmp_path, tiny_dataset):
    feat_path = tmp_path / "manual.xrvf"
    save_features(str(feat_path), bruteforce.random_prompt_features(tiny_config(), 6, seed=5))
    cfg = tiny_config(prompt_file=str(feat_path))
    model, _ = train(cfg, tiny_dataset)
    out = tmp_path / "model"
    save_model(str(out), model)
    os.unlink(feat_path)  # saved model must be self-contained
    loaded, _ = load_model(str(out))
    np.testing.assert_array_equal(
        predict_logits(model, tiny_dataset.test_patches[:6]),
        predict_logits(loaded, tiny_dataset.test_patches[:6]),
    )


def test_load_model_corrupt_params(tmp_path, tiny_dataset):
    model, _ = train(tiny_config(), tiny_dataset)
    out = tmp_path / "model"
    save_model(str(out), model)
    params = out / "params.xrvp"
    data = bytearray(params.read_bytes())
    data[:4] = b"WRNG"
    params.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_model(str(out))


def test_config_dataset_sources(tmp_path, tiny_dataset):
    from xrhead.data import save_dataset

    path = tmp_path / "ds.xrvd"
    save_dataset(str(path), tiny_dataset)
    from_file = config_dataset(tiny_config(data_spec=None, data_file=str(path)))
    np.testing.assert_array_equal(from_file.test_patches, tiny_dataset.test_patches)
    from_spec = config_dataset(tiny_config())
    np.testing.assert_array_equal(from_spec.test_patches, tiny_dataset.test_patches)
