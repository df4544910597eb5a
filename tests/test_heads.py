"""Prediction heads against brute-force references and layout oracles."""

import numpy as np
import pytest

from bruteforce import align_logits, flat_index, pwcs_logits, relation_flat
from xrhead.errors import ConfigError, ShapeMismatchError
from xrhead.heads import (
    CrmHead,
    HeadKind,
    MlpsHead,
    PwcsHead,
    build_head,
    pwcs_batch,
    relation_batch,
)
from xrhead.numerics import Tensor, constant, cross_entropy, finite_diff_check


def random_pair(b=3, s=4, w=5, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(b, s, d)), rng.normal(size=(w, s, d))


# --- relation layout ----------------------------------------------------------


def test_flat_index_layout():
    s, w = 3, 4
    seen = set()
    for a in range(s):
        for b in range(s):
            for c in range(w):
                seen.add(flat_index(a, b, c, s, w))
    assert seen == set(range(s * s * w))
    assert flat_index(1, 2, 3, s, w) == 1 * 12 + 2 * 4 + 3
    with pytest.raises(IndexError):
        flat_index(3, 0, 0, s, w)


def test_relation_single_image_matches_bruteforce():
    for seed in range(5):
        v3, t3 = random_pair(b=1, seed=seed)
        flat = relation_batch(constant(v3), constant(t3)).values
        assert flat.shape == (1, 4 * 4 * 5)
        np.testing.assert_allclose(flat[0], relation_flat(v3[0], t3), atol=1e-12)
        # flat_index names the entry that holds a direct dot product
        entry = flat[0, flat_index(2, 1, 3, num_parts=4, num_classes=5)]
        assert entry == pytest.approx(float(np.dot(v3[0, 2], t3[3, 1])))


def test_relation_batch_rows_match_singles():
    v3, t3 = random_pair(b=4, seed=9)
    flat = relation_batch(constant(v3), constant(t3))
    assert flat.values.shape == (4, 4 * 4 * 5)
    for i in range(4):
        np.testing.assert_allclose(flat.values[i], relation_flat(v3[i], t3), atol=1e-12)


# --- cosine heads ---------------------------------------------------------------


def test_pwcs_matches_bruteforce():
    for seed in range(5):
        v3, t3 = random_pair(b=1, seed=20 + seed)
        got = pwcs_batch(constant(v3), constant(t3))
        assert got.values.shape == (1, 5)
        np.testing.assert_allclose(got.values[0], pwcs_logits(v3[0], t3), atol=1e-12)


def test_pwcs_batch_rows_match_singles():
    v3, t3 = random_pair(b=4, seed=30)
    got = pwcs_batch(constant(v3), constant(t3))
    for i in range(4):
        np.testing.assert_allclose(got.values[i], pwcs_logits(v3[i], t3), atol=1e-12)


def test_align_matches_bruteforce():
    rng = np.random.default_rng(40)
    v = rng.normal(size=(3, 1, 6))
    t = rng.normal(size=(5, 1, 6))
    head = build_head(HeadKind.ALIGN, 5, 1, 6, seed=0)
    got = head.logits(constant(v), constant(t), training=False)
    for i in range(3):
        np.testing.assert_allclose(got.values[i], align_logits(v[i, 0], t[:, 0]), atol=1e-12)


def test_single_part_pwcs_equals_align():
    # at one part the mean of per-part cosines is the plain cosine matrix,
    # bit for bit: normalize the rows, one matmul, a sum over one part, * 1.0
    rng = np.random.default_rng(41)
    v3 = rng.normal(size=(4, 1, 6))
    t3 = rng.normal(size=(5, 1, 6))
    got = pwcs_batch(constant(v3), constant(t3)).values
    vn = v3[:, 0] / np.sqrt((v3[:, 0] * v3[:, 0]).sum(axis=1, keepdims=True))
    tn = t3[:, 0] / np.sqrt((t3[:, 0] * t3[:, 0]).sum(axis=1, keepdims=True))
    assert got.tobytes() == (vn @ tn.T).tobytes()


def test_pwcs_logits_bounded():
    v3, t3 = random_pair(b=6, seed=42)
    got = pwcs_batch(constant(v3), constant(t3))
    assert np.all(np.abs(got.values) <= 1.0 + 1e-12)


# --- relation heads -------------------------------------------------------------


def pick_oracle(kind, flat_row, s, w):
    """Assemble the variant classifier input per class by brute force."""
    if kind == HeadKind.CRM_BASE:
        return np.array([[flat_row[flat_index(p, p, c, s, w)] for p in range(s)] for c in range(w)])
    if kind == HeadKind.CRM_XCLASS:
        return np.concatenate(
            [[flat_row[flat_index(p, p, c, s, w)] for p in range(s)] for c in range(w)]
        )
    if kind == HeadKind.CRM_XPART:
        return np.array(
            [
                [flat_row[flat_index(p, q, c, s, w)] for p in range(s) for q in range(s)]
                for c in range(w)
            ]
        )
    raise AssertionError(kind)


def test_variant_pick_indices():
    s, w = 3, 4
    flat_row = np.arange(s * s * w, dtype=float)
    base = CrmHead(HeadKind.CRM_BASE, w, s, hidden=8, seed=0)
    np.testing.assert_array_equal(
        flat_row[base.pick].reshape(w, s), pick_oracle(HeadKind.CRM_BASE, flat_row, s, w)
    )
    xclass = CrmHead(HeadKind.CRM_XCLASS, w, s, hidden=8, seed=0)
    np.testing.assert_array_equal(
        flat_row[xclass.pick], pick_oracle(HeadKind.CRM_XCLASS, flat_row, s, w)
    )
    xpart = CrmHead(HeadKind.CRM_XPART, w, s, hidden=8, seed=0)
    np.testing.assert_array_equal(
        flat_row[xpart.pick].reshape(w, s * s), pick_oracle(HeadKind.CRM_XPART, flat_row, s, w)
    )


def test_crm_full_matches_manual_classifier():
    v3, t3 = random_pair(b=3, seed=50)
    head = CrmHead(HeadKind.CRM_FULL, 5, 4, hidden=16, seed=1)
    feats = constant(t3)
    got = head.logits(constant(v3), feats, training=False)
    flat = relation_batch(constant(v3), constant(t3))
    expected = head.clf(flat, training=False)
    np.testing.assert_allclose(got.values, expected.values, atol=1e-12)


def test_crm_single_sample_matches_batch():
    v3, t3 = random_pair(b=4, seed=51)
    for kind in (HeadKind.CRM_FULL, HeadKind.CRM_BASE, HeadKind.CRM_XCLASS, HeadKind.CRM_XPART):
        head = CrmHead(kind, 5, 4, hidden=8, seed=2)
        feats = constant(t3)
        batch_logits = head.logits(constant(v3), feats, training=False)
        for i in range(4):
            single = head.logits(constant(v3[i : i + 1]), feats, training=False)
            assert single.values.shape == (1, 5)
            np.testing.assert_allclose(single.values[0], batch_logits.values[i], atol=1e-12)


def test_mlps_average_of_parts():
    v3, _ = random_pair(b=3, seed=52)
    head = MlpsHead(5, 4, 6, hidden=8, seed=3)
    got = head.logits(constant(v3), None, training=False)
    manual = np.zeros((3, 5))
    for p, mlp in enumerate(head.mlps):
        manual += mlp(constant(v3[:, p, :]), training=False).values
    np.testing.assert_allclose(got.values, manual / 4.0, atol=1e-12)
    single = head.logits(constant(v3[:1]), None, training=False)
    np.testing.assert_allclose(single.values, got.values[:1], atol=1e-12)


def test_build_head_dispatch_and_validation():
    assert isinstance(build_head(HeadKind.ALIGN, 5, 1, 6, seed=0), PwcsHead)
    assert isinstance(build_head(HeadKind.PWCS, 5, 4, 6, seed=0), PwcsHead)
    assert isinstance(build_head(HeadKind.MLPS, 5, 4, 6, seed=0), MlpsHead)
    for kind in (HeadKind.CRM_FULL, HeadKind.CRM_BASE, HeadKind.CRM_XCLASS, HeadKind.CRM_XPART):
        head = build_head(kind, 5, 4, 6, seed=0)
        assert isinstance(head, CrmHead) and head.kind == kind
    with pytest.raises(ConfigError):
        build_head(HeadKind.ALIGN, 5, 4, 6, seed=0)
    with pytest.raises(ConfigError):
        build_head(HeadKind.CRM_FULL, 1, 4, 6, seed=0)
    with pytest.raises(ConfigError):
        HeadKind.parse("nope")
    assert HeadKind.parse("crm_full") == HeadKind.CRM_FULL


def test_default_hidden_widths():
    w, s = 5, 4
    # kind -> (classifier in, hidden, out)
    widths = {
        HeadKind.CRM_FULL: (s * s * w, 512, w),
        HeadKind.CRM_BASE: (s, 16, 1),
        HeadKind.CRM_XCLASS: (s * w, 512, w),
        HeadKind.CRM_XPART: (s * s, 16, 1),
    }
    for kind, (d_in, hidden, d_out) in widths.items():
        clf = build_head(kind, w, s, 6, seed=0).clf
        assert (clf.fc1.d_in, clf.fc1.d_out, clf.fc2.d_out) == (d_in, hidden, d_out), kind


def test_shape_mismatch_errors():
    v3, t3 = random_pair()
    with pytest.raises(ShapeMismatchError):
        relation_batch(constant(v3), constant(t3[:, :2]))
    with pytest.raises(ShapeMismatchError):
        pwcs_batch(constant(v3[:, :, :4]), constant(t3))
    with pytest.raises(ShapeMismatchError):
        pwcs_batch(constant(v3[0]), constant(t3))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (
            lambda: relation_batch(constant(np.ones((3, 4, 6))), constant(np.ones((4, 6)))),
            ShapeMismatchError,
            r"prompt features must be \(w, s, d\)",
        ),
        (
            lambda: MlpsHead(5, 4, 6, 8, seed=0).logits(constant(np.ones((3, 4, 5))), None, True),
            ShapeMismatchError,
            r"expected \(b, 4, 6\)",
        ),
        (
            lambda: CrmHead(HeadKind.PWCS, 5, 4, 8, seed=0),
            ConfigError,
            "is not a relation-matrix head",
        ),
        (
            lambda: CrmHead(HeadKind.CRM_FULL, 5, 2, 8, seed=0).logits_from_relation(
                constant(np.ones((3, 19))), training=True
            ),
            ShapeMismatchError,
            r"expected relation vectors \(b, 20\)",
        ),
    ],
    ids=["prompt_rank", "mlps_parts", "crm_kind", "crm_relation_width"],
)
def test_heads_refuse_mismatched_inputs(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_gradients_through_relation_heads():
    rng = np.random.default_rng(60)
    v3 = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True, name="v")
    t3 = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True, name="t")
    labels = np.array([0, 1, 2, 3])
    for kind in (HeadKind.CRM_FULL, HeadKind.CRM_BASE, HeadKind.CRM_XCLASS, HeadKind.CRM_XPART):
        head = CrmHead(kind, 4, 3, hidden=6, seed=4)
        params = [v3, t3] + head.params()

        def loss():
            logits = head.logits_from_relation(relation_batch(v3, t3), training=True)
            return cross_entropy(logits, labels)

        worst = finite_diff_check(loss, params, max_coords_per_param=8)
        assert max(worst.values()) < 1e-5, (kind, worst)


def test_pwcs_gradients():
    rng = np.random.default_rng(61)
    v3 = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True, name="v")
    t3 = Tensor(rng.normal(size=(6, 3, 5)), requires_grad=True, name="t")
    labels = np.array([0, 5, 2, 3])

    def loss():
        return cross_entropy(pwcs_batch(v3, t3) * 10.0, labels)

    worst = finite_diff_check(loss, [v3, t3])
    assert max(worst.values()) < 1e-6, worst
