"""Prompt bank: sequence layout, encoding, gradient locality."""

import numpy as np
import pytest

from bruteforce import composed_text_encode
from xrhead.encoders import FrozenTextEncoder
from xrhead.errors import ConfigError, ShapeMismatchError
from xrhead.numerics import backward, constant, gather, reshape, tsum
from xrhead.prompts import PromptBank


def make_bank(w=4, s=3, m=2, d=6, seed=0):
    emb = np.random.default_rng(100 + seed).normal(size=(w, d))
    return PromptBank(emb, num_parts=s, ctx_len=m, seed=seed)


def test_bank_shapes_and_init():
    bank = make_bank()
    assert bank.contexts.values.shape == (4, 3, 2, 6)
    assert bank.class_embeddings.shape == (4, 6)
    assert bank.params() == [bank.contexts]  # class embeddings are an input, not trained
    # contexts start small and centered
    big = make_bank(w=16, s=4, m=8, d=32)
    ctx = big.contexts.values
    assert abs(ctx.mean()) < 0.005
    assert abs(ctx.std() - 0.02) < 0.005


def stacked_sequences(bank):
    """Every prompt as a whole sequence, built row by row: (W * S, ctx_len + 1, word_dim)."""
    ctx, cls = bank.contexts.values, bank.class_embeddings
    rows = [(k, s) for k in range(bank.num_classes) for s in range(bank.num_parts)]
    return np.stack([np.vstack([ctx[k, s], cls[k : k + 1]]) for k, s in rows])


def test_sequence_layout():
    # the prompt of class 2, part 1 is its contexts, then class 2's embedding
    bank = make_bank()
    enc = FrozenTextEncoder(seed=9, word_dim=6, feat_dim=10, num_positions=3)
    seq = stacked_sequences(bank)[2 * 3 + 1]
    want = composed_text_encode(enc, constant(seq[None]))
    np.testing.assert_allclose(bank.encode(enc).values[2, 1], want.values[0], rtol=1e-12)


def test_encode_matches_single_prompts():
    bank = make_bank()
    enc = FrozenTextEncoder(seed=9, word_dim=6, feat_dim=10, num_positions=3)
    want = composed_text_encode(enc, constant(stacked_sequences(bank)))
    assert bank.encode(enc).values.tobytes() == want.values.tobytes()


def test_encode_shape_and_determinism():
    bank = make_bank()
    enc = FrozenTextEncoder(seed=9, word_dim=6, feat_dim=10, num_positions=3)
    feats = bank.encode(enc)
    assert feats.values.shape == (4, 3, 10)
    np.testing.assert_array_equal(feats.values, bank.encode(enc).values)


def test_gradient_locality():
    bank = make_bank()
    enc = FrozenTextEncoder(seed=9, word_dim=6, feat_dim=10, num_positions=3)
    feats = bank.encode(enc)
    # pull gradient through a single (class, part) feature row
    flat = reshape(feats, (12, 10))
    backward(tsum(gather(flat, [2 * 3 + 1], 0)))
    g = bank.contexts.grad
    assert np.any(g[2, 1] != 0.0)
    g_rest = g.copy()
    g_rest[2, 1] = 0.0
    assert np.all(g_rest == 0.0)


def test_validation():
    emb = np.zeros((4, 6))
    with pytest.raises(ConfigError):
        PromptBank(emb, num_parts=0, ctx_len=2, seed=0)
    with pytest.raises(ConfigError):
        PromptBank(emb, num_parts=2, ctx_len=0, seed=0)
    with pytest.raises(ConfigError):
        PromptBank(np.zeros((1, 6)), num_parts=2, ctx_len=2, seed=0)
    with pytest.raises(ShapeMismatchError):
        PromptBank(np.zeros(6), num_parts=2, ctx_len=2, seed=0)
