"""Acceptance gate: every release criterion, one test each, pinned tolerances.

Heavier end-to-end checks live here (full training runs, multi-seed
comparisons); each test prints a single summary line with the measured
numbers next to its threshold.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import bruteforce
from xrhead.attention import PartAttention
from xrhead.data import SyntheticSpec, few_shot_split, generate
from xrhead.encoders import save_features
from xrhead.analysis import analyze_embeddings
from xrhead.experiments import compare_heads, sweep_parts
from xrhead.harness import TrainConfig, build_model, train
from xrhead.heads import CrmHead, HeadKind, pwcs_batch, relation_batch
from xrhead.numerics import Tensor, constant, finite_diff_check

# --- shared fixtures -----------------------------------------------------------------

CROSS_SPEC = {"cross_structure": True}
HEAD_KINDS = ["CRM_FULL", "PWCS", "MLPS"]
NUM_SEEDS = 5


@pytest.fixture(scope="module")
def cross_dataset():
    return generate(SyntheticSpec(cross_structure=True))


@pytest.fixture(scope="module")
def cross_config():
    return TrainConfig(data_spec=dict(CROSS_SPEC))


@pytest.fixture(scope="module")
def cross_comparison(cross_config, cross_dataset):
    """5-seed learned-prompt comparison on the cross-structure benchmark."""
    return compare_heads(cross_config, HEAD_KINDS, num_seeds=NUM_SEEDS, dataset=cross_dataset)


# --- criterion: gradient integrity ---------------------------------------------------


def test_gradient_integrity():
    """Finite differences agree with backprop across the full pipeline."""
    start = time.perf_counter()
    config = TrainConfig(
        num_parts=2,
        ctx_len=3,
        feat_dim=8,
        shots=4,
        data_spec={
            "num_classes": 5,
            "num_superclasses": 5,
            "true_parts": 2,
            "tokens_per_image": 6,
            "embed_dim": 8,
            "train_per_class": 4,
            "test_per_class": 2,
        },
    )
    ds = generate(SyntheticSpec(**config.data_spec))
    patches, labels = few_shot_split(ds, config.shots, config.seed_data)
    model = build_model(config, ds)
    feats = constant(model.image_encoder.encode(patches[:4]))
    batch_labels = labels[:4]

    errors = finite_diff_check(lambda: model.loss(feats, batch_labels), model.params())
    elapsed = time.perf_counter() - start

    assert "prompts.class_embeddings" not in errors  # an input, not a parameter
    groups = {name.split(".")[0] for name in errors}
    assert groups == {"prompts", "attn", "head"}
    worst = max(errors.values())
    assert worst < 1e-4
    assert elapsed < 30.0
    print(f"[PASS] gradient integrity: max rel err {worst:.3e} < 1e-4 in {elapsed:.1f}s")


# --- criterion: oracle equivalence ---------------------------------------------------


def test_oracle_equivalence():
    """Vectorized heads match brute-force loops; BASE picks the FULL diagonal."""
    rng = np.random.default_rng(42)
    worst_rel, worst_pwcs = 0.0, 0.0
    for _ in range(100):
        s = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        w = int(rng.integers(2, 8))
        v = rng.standard_normal((1, s, d))
        t = rng.standard_normal((w, s, d))

        flat = relation_batch(Tensor(v), Tensor(t)).values[0]
        expected_flat = bruteforce.relation_flat(v[0], t)
        worst_rel = max(worst_rel, float(np.abs(flat - expected_flat).max()))

        logits = pwcs_batch(Tensor(v), Tensor(t)).values[0]
        expected_logits = bruteforce.pwcs_logits(v[0], t)
        worst_pwcs = max(worst_pwcs, float(np.abs(logits - expected_logits).max()))

        # BASE head reads exactly the s == s2 diagonal of the FULL relation vector
        head = CrmHead(HeadKind.CRM_BASE, num_classes=w, num_parts=s, hidden=4, seed=0)
        picked = flat[head.pick]
        diagonal = np.array(
            [flat[bruteforce.flat_index(i, i, c, s, w)] for c in range(w) for i in range(s)]
        )
        assert np.array_equal(picked, diagonal)

    assert worst_rel < 1e-9
    assert worst_pwcs < 1e-9

    # documented layout on a worked example: identity parts, swapped prompts
    v = np.eye(2)[None]
    t = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    flat = relation_batch(Tensor(v), Tensor(t)).values
    assert np.array_equal(flat, [[1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0]])
    print(
        f"[PASS] oracle equivalence: relation err {worst_rel:.1e},"
        f" pwcs err {worst_pwcs:.1e} < 1e-9 over 100 instances"
    )


# --- criterion: normalization invariants ---------------------------------------------


def test_normalization_invariants():
    """Attention rows are stochastic, part features land on the tau sphere."""
    rng = np.random.default_rng(7)
    attn = PartAttention(feat_dim=16, num_parts=4, seed=3)
    tokens = constant(rng.standard_normal((5, 12, 16)))

    parts, weights = attn.forward(tokens, training=False)
    row_err = float(np.abs(weights.values.sum(axis=2) - 1.0).max())
    assert row_err < 1e-9

    norms = np.sqrt((parts.values**2).sum(axis=(1, 2)))
    norm_err = float(np.abs(norms - 64.0).max())
    assert norm_err < 1e-6

    # one part degenerates to the plain cosine baseline
    v = rng.standard_normal((1, 1, 9))
    t = rng.standard_normal((6, 1, 9))
    pwcs = pwcs_batch(Tensor(v), Tensor(t)).values[0]
    align = bruteforce.align_logits(v[0, 0], t[:, 0, :])
    degen_err = float(np.abs(pwcs - align).max())
    assert degen_err < 1e-12
    print(
        f"[PASS] normalization invariants: softmax row err {row_err:.1e},"
        f" Frobenius err {norm_err:.1e}, S=1 degeneracy err {degen_err:.1e}"
    )


# --- criterion: equivariance ---------------------------------------------------------


def test_equivariance_suite():
    """Relabeling classes or parts permutes relation entries and logits."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = int(rng.integers(1, 5))
        d = int(rng.integers(2, 7))
        w = int(rng.integers(2, 8))
        b = int(rng.integers(1, 4))
        v = rng.standard_normal((b, s, d))
        t = rng.standard_normal((w, s, d))
        flat = relation_batch(Tensor(v), Tensor(t)).values

        # class relabeling: entry (s, s2, pi(w)) of the permuted run equals (s, s2, w)
        class_perm = rng.permutation(w)
        flat_c = relation_batch(Tensor(v), Tensor(t[class_perm])).values
        src = np.array(
            [
                bruteforce.flat_index(si, s2, wi, s, w)
                for si in range(s)
                for s2 in range(s)
                for wi in class_perm
            ]
        )
        assert np.array_equal(flat_c, flat[:, src])

        logits = pwcs_batch(Tensor(v[:1]), Tensor(t)).values[0]
        logits_c = pwcs_batch(Tensor(v[:1]), Tensor(t[class_perm])).values[0]
        assert np.array_equal(logits_c, logits[class_perm])

        # synchronized part relabeling: apply rho to image parts and prompt parts
        part_perm = rng.permutation(s)
        flat_p = relation_batch(Tensor(v[:, part_perm]), Tensor(t[:, part_perm])).values
        src = np.array(
            [
                bruteforce.flat_index(si, s2, wi, s, w)
                for si in part_perm
                for s2 in part_perm
                for wi in range(w)
            ]
        )
        assert np.array_equal(flat_p, flat[:, src])

        logits_p = pwcs_batch(Tensor(v[:1, part_perm]), Tensor(t[:, part_perm])).values[0]
        assert float(np.abs(logits_p - logits).max()) < 1e-12
    print("[PASS] equivariance: class and part relabelings permute values exactly (20 trials)")


# --- criterion: training sanity ------------------------------------------------------


def test_training_sanity():
    """A separable benchmark is solved outright within the epoch budget."""
    start = time.perf_counter()
    config = TrainConfig(data_spec={"noise": 0.1})
    _, report = train(config)
    elapsed = time.perf_counter() - start
    assert report.train_accuracy == 1.0
    assert report.test_accuracy >= 0.95
    assert elapsed < 120.0
    print(
        f"[PASS] training sanity: train {report.train_accuracy:.3f} == 1.0,"
        f" test {report.test_accuracy:.3f} >= 0.95 in {elapsed:.1f}s"
    )


# --- criterion: directional head ordering --------------------------------------------


def test_directional_head_ordering(cross_comparison):
    """Cross-relation beats both baselines when parts pair across classes."""
    summary = cross_comparison.summary
    crm = summary["CRM_FULL"]["mean_test"]
    pwcs = summary["PWCS"]["mean_test"]
    mlps = summary["MLPS"]["mean_test"]
    for row in cross_comparison.rows:
        print(
            f"  seed {row['seed_model']}: {row['head']:>8s}"
            f" train {row['train_accuracy']:.4f} test {row['test_accuracy']:.4f}"
        )
    assert crm >= pwcs
    assert crm >= mlps
    assert crm - pwcs >= 0.02
    print(
        f"[PASS] head ordering: CRM_FULL {crm:.4f} >= PWCS {pwcs:.4f} (gap"
        f" {crm - pwcs:.4f} >= 0.02) and >= MLPS {mlps:.4f} on {NUM_SEEDS}-seed means"
    )


# --- criterion: manual-prompt robustness ---------------------------------------------


def test_manual_prompt_robustness(
    cross_comparison, cross_config, cross_dataset, tmp_path_factory
):
    """Freezing prompts at random features hurts the cosine head more."""
    num_classes = cross_dataset.spec.num_classes
    feats = bruteforce.random_prompt_features(cross_config, num_classes, seed=99)
    path = str(tmp_path_factory.mktemp("manual") / "random_prompts.xrvf")
    save_features(path, feats)

    manual_means = {}
    for kind in ("CRM_FULL", "PWCS"):
        accs = []
        for i in range(NUM_SEEDS):
            cfg = replace(
                cross_config,
                head=kind,
                prompt_file=path,
                seed_model=cross_config.seed_model + i,
                seed_data=cross_config.seed_data + i,
            )
            _, report = train(cfg, cross_dataset)
            accs.append(report.test_accuracy)
        manual_means[kind] = float(np.mean(accs))

    crm_drop = cross_comparison.summary["CRM_FULL"]["mean_test"] - manual_means["CRM_FULL"]
    pwcs_drop = cross_comparison.summary["PWCS"]["mean_test"] - manual_means["PWCS"]
    assert pwcs_drop - crm_drop > 0
    print(
        f"[PASS] manual-prompt robustness: PWCS degrades {pwcs_drop:+.4f},"
        f" CRM_FULL {crm_drop:+.4f}, difference {pwcs_drop - crm_drop:.4f} > 0"
    )


# --- criterion: part-count sweep mechanics -------------------------------------------


def test_sweep_mechanics():
    """The sweep completes, runtime grows with parts, and flags are truthful."""
    config = TrainConfig(data_spec={})
    result = sweep_parts(config, [1, 2, 4, 8])
    assert [row["num_parts"] for row in result.rows] == [1, 2, 4, 8]
    timings = ", ".join(
        f"S={row['num_parts']} rounds {row['rounds_step_cpu_min_seconds']:.6f}"
        f" own {row['step_cpu_min_seconds']:.6f}"
        for row in result.rows
    )
    assert result.flags["runtime_monotone"] is True, f"least step CPU seconds: {timings}"

    by_parts = {row["num_parts"]: row["test_accuracy"] for row in result.rows}
    best = max(by_parts.values())
    expected_flag = best - by_parts[4] <= 0.01 + 1e-12
    assert result.flags["default_within_one_point"] == expected_flag
    status = "within" if expected_flag else "flagged outside"
    print(
        f"[PASS] sweep mechanics: 4 runs, runtime monotone, S=4 {status} 1 point of"
        f" best {best:.4f} (accs {[round(by_parts[s], 4) for s in [1, 2, 4, 8]]})"
    )


# --- criterion: embedding bimodality -------------------------------------------------


def test_embedding_bimodality():
    """Nearest-neighbor histogram reproduces a constructed two-cluster split."""
    start = time.perf_counter()
    line = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0, 103.0, 106.0, 109.0])
    embeddings = np.stack([line, np.zeros_like(line), np.zeros_like(line)], axis=1)
    stats = analyze_embeddings(embeddings, bins=2)
    elapsed = time.perf_counter() - start
    assert np.array_equal(stats["counts"], [6, 4])
    assert np.array_equal(stats["edges"], [1.0, 2.0, 3.0])
    assert stats["median"] == 1.0
    assert elapsed < 5.0
    print(
        f"[PASS] embedding bimodality: counts {[int(c) for c in stats['counts']]} == [6, 4]"
        f" in {elapsed:.2f}s"
    )


# --- criterion: end-to-end determinism -----------------------------------------------


def test_cli_determinism(tmp_path):
    """Two seeded comparison runs emit byte-identical CSVs."""
    spec = {
        "num_classes": 6,
        "num_superclasses": 3,
        "noise": 0.1,
        "train_per_class": 8,
        "test_per_class": 8,
        "tokens_per_image": 10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {"epochs": 3, "shots": 4, "batch_size": 8, "feat_dim": 32, "ctx_len": 4,
             "data_spec": spec}
        )
    )
    env = dict(os.environ, XRHEAD_SEED="3")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "xrhead.cli",
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
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "comparison.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print(f"[PASS] determinism: seeded comparison CSVs byte-identical ({len(outputs[0])} bytes)")
