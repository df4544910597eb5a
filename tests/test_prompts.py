"""Prompt bank: sequence assembly, encoding, gradient locality."""

import numpy as np
import pytest

from xrhead.encoders import FrozenTextEncoder
from xrhead.errors import ConfigError, ShapeMismatchError
from xrhead.numerics import backward, gather, reshape, tsum
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


def test_sequence_layout():
    bank = make_bank()
    seq = bank.all_sequences().values[2 * 3 + 1]  # class 2, part 1
    assert seq.shape == (3, 6)  # ctx_len + 1 rows
    np.testing.assert_array_equal(seq[:2], bank.contexts.values[2, 1])
    np.testing.assert_array_equal(seq[2], bank.class_embeddings[2])


def test_all_sequences_matches_singles():
    bank = make_bank()
    all_seqs = bank.all_sequences()
    assert all_seqs.values.shape == (12, 3, 6)
    ctx, cls = bank.contexts.values, bank.class_embeddings
    for k in range(4):
        for s in range(3):
            want = np.vstack([ctx[k, s], cls[k : k + 1]])
            np.testing.assert_array_equal(all_seqs.values[k * 3 + s], want)


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
