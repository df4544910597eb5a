"""Attention pooling: shapes, normalization, scaling, equivariance."""

import numpy as np
import pytest

from xrhead.attention import TAU, PartAttention
from xrhead.errors import ConfigError, DegenerateInputError, ShapeMismatchError
from xrhead.numerics import Tensor, constant, finite_diff_check, tsum


def make_tokens(b=3, n=6, d=8, seed=0):
    return np.random.default_rng(seed).normal(size=(b, n, d))


def test_output_shapes_and_row_sums():
    attn = PartAttention(feat_dim=8, num_parts=4, seed=0)
    parts, weights = attn.forward(constant(make_tokens()), training=True)
    assert parts.values.shape == (3, 4, 8)
    assert weights.values.shape == (3, 6, 5)
    np.testing.assert_allclose(weights.values.sum(axis=2), np.ones((3, 6)), atol=1e-12)
    assert np.all(weights.values >= 0.0)


def test_frobenius_norm_pinned_to_scale():
    attn = PartAttention(feat_dim=8, num_parts=4, seed=1)
    parts, _ = attn.forward(constant(make_tokens(seed=1)), training=True)
    norms = np.sqrt((parts.values**2).sum(axis=(1, 2)))
    np.testing.assert_allclose(norms, TAU, atol=1e-6)
    # eval mode too
    parts, _ = attn.forward(constant(make_tokens(seed=2)), training=False)
    norms = np.sqrt((parts.values**2).sum(axis=(1, 2)))
    np.testing.assert_allclose(norms, TAU, atol=1e-6)


def test_token_permutation_equivariance():
    attn = PartAttention(feat_dim=8, num_parts=3, seed=4)
    tokens = make_tokens(b=2, n=7, d=8, seed=4)
    perm = np.random.default_rng(5).permutation(7)
    shuffled = tokens[:, perm, :]
    v1, w1 = attn.forward(constant(tokens), training=True)
    v2, w2 = attn.forward(constant(shuffled), training=True)
    np.testing.assert_allclose(v1.values, v2.values, atol=1e-12)
    np.testing.assert_allclose(w1.values[:, perm, :], w2.values, atol=1e-12)


def test_single_image_matches_batch_row():
    # eval mode pools each image on its own, so a batch of one gives that row
    attn = PartAttention(feat_dim=8, num_parts=3, seed=6)
    tokens = make_tokens(b=4, n=5, d=8, seed=6)
    v_b, w_b = attn.forward(constant(tokens), training=False)
    for i in range(4):
        v_s, w_s = attn.forward(constant(tokens[i : i + 1]), training=False)
        assert v_s.values.shape == (1, 3, 8) and w_s.values.shape == (1, 5, 4)
        np.testing.assert_allclose(v_s.values[0], v_b.values[i], atol=1e-15)
        np.testing.assert_allclose(w_s.values[0], w_b.values[i], atol=1e-15)


def test_degenerate_tokens_rejected():
    attn = PartAttention(feat_dim=8, num_parts=3, seed=7)
    with pytest.raises(DegenerateInputError):
        attn.forward(constant(np.zeros((2, 5, 8))), training=True)


def test_validation():
    with pytest.raises(ConfigError):
        PartAttention(feat_dim=8, num_parts=0, seed=0)
    attn = PartAttention(feat_dim=8, num_parts=2, seed=0)
    with pytest.raises(ShapeMismatchError):
        attn.forward(constant(np.zeros((2, 5, 7))), training=True)
    with pytest.raises(ShapeMismatchError):
        attn.forward(constant(np.zeros((5, 8))), training=True)


def test_gradients_through_pooling():
    attn = PartAttention(feat_dim=6, num_parts=2, seed=8)
    tokens = Tensor(make_tokens(b=2, n=4, d=6, seed=8), requires_grad=True, name="tokens")
    k = constant(np.random.default_rng(9).normal(size=(2, 2, 6)))

    def loss():
        parts, _ = attn.forward(tokens, training=True)
        return tsum(parts * k)

    params = [tokens] + attn.params()
    worst = finite_diff_check(loss, params, max_coords_per_param=10)
    assert max(worst.values()) < 1e-5, worst

