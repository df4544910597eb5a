"""Byte oracles across the row blocks of numerics.layers.rowwise, at drawn shapes.

Eval batch norm and the bias adds of attention and of the image encoder
run in blocks of whole rows, each row constant tiled to a block, and
attention's row max runs column by column.  Elementwise ops and a max do
not depend on blocking, so each layer must give the bytes of its composed
chain in bruteforce.py at any shape.  Hypothesis draws the shapes at widths
6, 64 and 512, with row counts that span two or more blocks and end in a
ragged one.  A GEMM's bits can depend on its row count, so the last test
checks, at the reference data's shapes, that no product was blocked.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bruteforce
from test_fused import assert_same_bits, jitter
from xrhead.attention import PartAttention
from xrhead.data import SyntheticSpec, generate
from xrhead.encoders import FrozenImageEncoder
from xrhead.harness import EVAL_CHUNK, TrainConfig, build_model
from xrhead.numerics import BatchNorm, Mlp, Tensor, constant, no_grad
from xrhead.numerics.layers import ROW_BLOCK, rowwise

BLOCKS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
WIDTHS = st.sampled_from([6, 64, 512])
# tracked: the input and the parameters on the tape; constant: the parameters
# only; untracked: no tape at all, the path of eval passes
MODES = st.sampled_from(["tracked", "constant", "untracked"])


def block_rows(d: int) -> int:
    return max(1, ROW_BLOCK // d)


@st.composite
def batches(draw, d: int):
    """(b, n): b >= 2 images of n tokens, whose b * n rows of width d fill
    one block or more and end in a ragged one."""
    rows = block_rows(d)
    b = draw(st.integers(2, 4))
    n = draw(st.integers(rows // b + 1, 2 * rows // b + 2))
    if b * n % rows == 0:
        n += 1  # b < rows, so b * n + b is not a whole number of blocks
    return b, n


def untrack(params):
    for p in params:
        p.requires_grad = False


def same_bits(make, fused, composed, mode):
    """assert_same_bits, or with no tape (mode "untracked") the values alone."""
    if mode != "untracked":
        return assert_same_bits(make, fused, composed)
    (state, _), (twin, _) = make(), make()
    got, want = fused(state), composed(twin)
    assert got._bw is None and got.values.tobytes() == want.values.tobytes()
    return state, twin


@BLOCKS
@given(data=st.data())
def test_rowwise_gives_the_bytes_of_the_broadcast_chain(data):
    d = data.draw(WIDTHS)
    n = data.draw(st.integers(0, 3 * block_rows(d) + 1))
    ufuncs = data.draw(st.lists(st.sampled_from([np.add, np.subtract, np.multiply, np.divide]),
                                min_size=1, max_size=4))
    in_place = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d))
    rows = [rng.normal(size=(1, d) if i % 2 else d) for i in range(len(ufuncs))]
    want = ufuncs[0](x, rows[0])
    for ufunc, row in zip(ufuncs[1:], rows[1:]):
        ufunc(want, row, out=want)
    got = rowwise(x, list(zip(ufuncs, rows)), out=x if in_place else None)
    assert got.shape == (n, d) and got.tobytes() == want.tobytes()
    assert (got is x) == in_place


@BLOCKS
@given(data=st.data())
def test_batch_norm_matches_composed_across_blocks(data):
    d = data.draw(WIDTHS)
    b, n = data.draw(batches(d))
    training, mode = data.draw(st.booleans()), data.draw(MODES)
    seed = data.draw(st.integers(0, 1000))

    def make():
        bn = BatchNorm(d, name="bn")
        jitter(bn.params(), seed)
        rng = np.random.default_rng(seed + 1)
        bn.running_mean = rng.normal(size=d)
        bn.running_var = rng.uniform(0.5, 2.0, size=d)
        x = Tensor(rng.normal(size=(b * n, d)) * 3.0 + 1.0, requires_grad=mode == "tracked")
        if mode == "untracked":
            untrack(bn.params())
        return (bn, x), [x, bn.gamma, bn.beta]

    (bn, _), (twin, _) = same_bits(
        make,
        lambda s: s[0](s[1], training),
        lambda s: bruteforce.composed_batch_norm(s[0], s[1], training),
        mode,
    )
    assert bn.running_mean.tobytes() == twin.running_mean.tobytes()
    assert bn.running_var.tobytes() == twin.running_var.tobytes()


@BLOCKS
@given(data=st.data())
def test_attention_matches_composed_across_blocks(data):
    d = data.draw(WIDTHS)
    b, n = data.draw(batches(d))
    parts = data.draw(st.integers(1, 8))
    training, mode = data.draw(st.booleans()), data.draw(MODES)
    seed = data.draw(st.integers(0, 1000))

    def make():
        attn = PartAttention(feat_dim=d, num_parts=parts, seed=seed)
        jitter(attn.params(), seed)
        rng = np.random.default_rng(seed + 1)
        attn.bn.running_mean = rng.normal(size=d)
        attn.bn.running_var = rng.uniform(0.5, 2.0, size=d)
        tokens = Tensor(rng.normal(size=(b, n, d)), requires_grad=mode == "tracked")
        if mode == "untracked":
            untrack(attn.params())
        return (attn, tokens), [tokens] + attn.params()

    weights = {}

    def fused(s):
        out, weights["fused"] = s[0].forward(s[1], training)
        return out

    def composed(s):
        out, weights["composed"] = bruteforce.composed_attention(s[0], s[1], training)
        return out

    (attn, _), (twin, _) = same_bits(make, fused, composed, mode)
    assert weights["fused"].values.tobytes() == weights["composed"].values.tobytes()
    assert attn.bn.running_mean.tobytes() == twin.bn.running_mean.tobytes()
    assert attn.bn.running_var.tobytes() == twin.bn.running_var.tobytes()


@BLOCKS
@given(data=st.data())
def test_classifier_matches_composed_across_blocks(data):
    # the MLPS and CRM classifiers: affine, batch norm, relu, affine over
    # rows of parts * parts * classes relation scores
    hidden = data.draw(WIDTHS)
    rows = block_rows(hidden)
    b = data.draw(st.integers(rows + 1, 3 * rows - 1).filter(lambda b: b % rows))
    parts, classes = data.draw(st.integers(1, 8)), data.draw(st.integers(2, 12))
    training, mode = data.draw(st.booleans()), data.draw(MODES)
    seed = data.draw(st.integers(0, 1000))

    def make():
        rng = np.random.default_rng(seed)
        mlp = Mlp(parts * parts * classes, hidden, classes, rng, name="clf")
        jitter(mlp.params(), seed)
        mlp.bn.running_mean = rng.normal(size=hidden)
        mlp.bn.running_var = rng.uniform(0.5, 2.0, size=hidden)
        x = Tensor(rng.normal(size=(b, parts * parts * classes)), requires_grad=mode == "tracked")
        if mode == "untracked":
            untrack(mlp.params())
        return (mlp, x), [x] + mlp.params()

    (mlp, _), (twin, _) = same_bits(
        make,
        lambda s: s[0](s[1], training),
        lambda s: bruteforce.composed_mlp(s[0], s[1], training),
        mode,
    )
    assert mlp.bn.running_mean.tobytes() == twin.bn.running_mean.tobytes()
    assert mlp.bn.running_var.tobytes() == twin.bn.running_var.tobytes()


@BLOCKS
@given(data=st.data())
def test_image_encoder_matches_composed_across_blocks(data):
    d = data.draw(WIDTHS)
    b, n = data.draw(batches(d))
    patch_dim = data.draw(st.integers(1, 12))
    enc = FrozenImageEncoder(seed=data.draw(st.integers(0, 1000)), patch_dim=patch_dim, feat_dim=d)
    patches = np.random.default_rng(b * n).normal(size=(b, n, patch_dim))
    got = enc.encode(patches)
    assert got.tobytes() == bruteforce.composed_image_encode(enc, patches).tobytes()


REFERENCE_SPEC = {"cross_structure": True, "seed": 0}


@pytest.fixture(scope="module")
def reference_dataset():
    return generate(SyntheticSpec.from_dict(REFERENCE_SPEC))


# OpenBLAS's (4096, 64) @ (64, 4) and @ (64, 9) products change bits when
# computed in row blocks, so a blocked score GEMM fails here
@pytest.mark.parametrize("num_parts", [3, 8])
def test_eval_attention_of_a_reference_chunk_matches_composed(num_parts, reference_dataset):
    config = TrainConfig(num_parts=num_parts, data_spec=REFERENCE_SPEC)
    models = [build_model(config, reference_dataset) for _ in range(2)]
    for model in models:
        jitter(model.attention.params(), num_parts)
        rng = np.random.default_rng(num_parts)
        model.attention.bn.running_mean = rng.normal(size=config.feat_dim)
        model.attention.bn.running_var = rng.uniform(0.5, 2.0, size=config.feat_dim)
    feats = models[0].image_encoder.encode(reference_dataset.test_patches[:EVAL_CHUNK])
    assert feats.shape[0] * feats.shape[1] == 4096
    with no_grad():
        parts, weights = models[0].attention.forward(constant(feats), training=False)
        want_parts, want_weights = bruteforce.composed_attention(
            models[1].attention, constant(feats), training=False
        )
    assert parts.values.tobytes() == want_parts.values.tobytes()
    assert weights.values.tobytes() == want_weights.values.tobytes()
