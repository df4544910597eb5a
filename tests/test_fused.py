"""Fused tape ops: bit for bit equal to their composed chains, and gradient-checked.

Each hot layer runs as one tape op with a hand-written backward.  The chains
of primitive ops it replaced live in bruteforce.py; here the fused op and its
chain see identical inputs and an identical upstream gradient, and must give
identical bytes: forward values, every leaf gradient and the batch-norm
running statistics.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bruteforce
from xrhead.attention import PartAttention
from xrhead.data import SyntheticSpec, generate
from xrhead.encoders import FrozenTextEncoder
from xrhead.harness import TrainConfig, build_model, few_shot_split
from xrhead.heads import pwcs_batch, relation_batch
from xrhead.numerics import (
    Affine,
    BatchNorm,
    Tensor,
    affine,
    backward,
    constant,
    finite_diff_check,
    mul,
    sum_axis,
    transpose,
    tsum,
)
from xrhead.numerics.tensor import _topo_order
from xrhead.prompts import PromptBank


def jitter(params, seed):
    """Move parameters off their exact initial values (ones, zeros)."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.values += 0.3 * rng.normal(size=p.values.shape)


def bits(out, leaves, seed=0):
    """Bytes of out and of every leaf gradient after backward of sum(out * K)."""
    k = constant(np.random.default_rng(seed).normal(size=out.values.shape))
    backward(tsum(mul(out, k)))
    return [out.values.tobytes()] + [t.grad.tobytes() for t in leaves if t.requires_grad]


def assert_same_bits(make, fused, composed):
    """make() -> (state, leaves), built twice; fused and composed must agree in bytes."""
    state, leaves = make()
    got = bits(fused(state), leaves)
    twin, twin_leaves = make()
    want = bits(composed(twin), twin_leaves)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"entry {i} (0 = values, then leaf gradients) differs"
    return state, twin


def grad_check(loss, leaves, tol=1e-6, max_coords=None):
    params = [t for t in leaves if t.requires_grad]
    for i, t in enumerate(params):
        t.name = f"p{i}"
    worst = finite_diff_check(loss, params, max_coords_per_param=max_coords)
    assert max(worst.values()) < tol, worst


# --- affine -----------------------------------------------------------------------


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "constant"])
def test_affine_matches_composed(bias, tracked):
    def make():
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(7, 5)), requires_grad=tracked)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True) if bias else None
        return (x, w, b), [t for t in (x, w, b) if t is not None]

    assert_same_bits(make, lambda s: affine(*s), lambda s: bruteforce.composed_affine(*s))
    (x, w, b), leaves = make()
    k = constant(np.random.default_rng(2).normal(size=(7, 3)))
    grad_check(lambda: tsum(mul(affine(x, w, b), k)), leaves)


def test_affine_layer_and_constant_weights():
    rng = np.random.default_rng(3)
    layer = Affine(5, 3, rng, name="fc")
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    out = layer(x)
    assert out._parents == (x, layer.weight, layer.bias)
    # frozen weights (as in the text encoder): only the input gets a gradient
    frozen = affine(x, constant(np.ones((5, 3))), constant(np.ones((1, 3))))
    gx, gw, gb = frozen._bw(np.ones((4, 3)))
    assert gx is not None and gw is None and gb is None


# --- batch norm -------------------------------------------------------------------


def make_bn(tracked, seed=4):
    bn = BatchNorm(5, name="bn")
    jitter(bn.params(), seed)
    rng = np.random.default_rng(seed + 1)
    bn.running_mean = rng.normal(size=5)
    bn.running_var = rng.uniform(0.5, 2.0, size=5)
    x = Tensor(rng.normal(size=(6, 5)) * 3.0 + 1.0, requires_grad=tracked)
    return bn, x


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "constant"])
def test_batch_norm_matches_composed(training, tracked):
    def make():
        bn, x = make_bn(tracked)
        return (bn, x), [x, bn.gamma, bn.beta]

    (bn, _), (twin, _) = assert_same_bits(
        make,
        lambda s: s[0](s[1], training),
        lambda s: bruteforce.composed_batch_norm(s[0], s[1], training),
    )
    assert bn.running_mean.tobytes() == twin.running_mean.tobytes()
    assert bn.running_var.tobytes() == twin.running_var.tobytes()


def test_batch_norm_untracked_forward_matches_composed():
    # eval without a tape writes into one buffer; the values must not move
    bn, x = make_bn(tracked=False)
    twin, x2 = make_bn(tracked=False)
    bn.gamma.requires_grad = twin.gamma.requires_grad = False
    bn.beta.requires_grad = twin.beta.requires_grad = False
    got = bn(x, training=False)
    assert not got.requires_grad
    want = bruteforce.composed_batch_norm(twin, x2, training=False)
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batch_norm_gradients(training):
    bn, x = make_bn(tracked=True)
    k = constant(np.random.default_rng(6).normal(size=(6, 5)))
    mean, var = bn.running_mean.copy(), bn.running_var.copy()

    def loss():
        bn.running_mean, bn.running_var = mean.copy(), var.copy()
        return tsum(mul(bn(x, training), k))

    grad_check(loss, [x, bn.gamma, bn.beta], tol=1e-5)


# --- part attention ---------------------------------------------------------------


def make_attention(num_parts, tracked, seed=7):
    attn = PartAttention(feat_dim=6, num_parts=num_parts, seed=seed)
    jitter(attn.params(), seed)
    rng = np.random.default_rng(seed + 1)
    attn.bn.running_mean = rng.normal(size=6)
    attn.bn.running_var = rng.uniform(0.5, 2.0, size=6)
    tokens = Tensor(rng.normal(size=(3, 5, 6)), requires_grad=tracked)
    return attn, tokens


@pytest.mark.parametrize("num_parts", [1, 4])
@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "constant"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_attention_matches_composed(num_parts, tracked, training):
    def make():
        attn, tokens = make_attention(num_parts, tracked)
        return (attn, tokens), [tokens] + attn.params()

    weights = {}

    def fused(s):
        parts, weights["fused"] = s[0].forward(s[1], training)
        return parts

    def composed(s):
        parts, weights["composed"] = bruteforce.composed_attention(s[0], s[1], training)
        return parts

    (attn, _), (twin, _) = assert_same_bits(make, fused, composed)
    assert weights["fused"].values.tobytes() == weights["composed"].values.tobytes()
    assert attn.bn.running_mean.tobytes() == twin.bn.running_mean.tobytes()
    assert attn.bn.running_var.tobytes() == twin.bn.running_var.tobytes()


def test_attention_untracked_forward_matches_composed():
    attn, tokens = make_attention(4, tracked=False)
    twin, tokens2 = make_attention(4, tracked=False)
    for p in attn.params() + twin.params():
        p.requires_grad = False
    parts, weights = attn.forward(tokens, training=False)
    assert not parts.requires_grad and parts._bw is None
    want_parts, want_weights = bruteforce.composed_attention(twin, tokens2, training=False)
    assert parts.values.tobytes() == want_parts.values.tobytes()
    assert weights.values.tobytes() == want_weights.values.tobytes()


@pytest.mark.parametrize("num_parts", [1, 4])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_attention_gradients(num_parts, training):
    attn, tokens = make_attention(num_parts, tracked=True)
    k = constant(np.random.default_rng(9).normal(size=(3, num_parts, 6)))
    mean, var = attn.bn.running_mean.copy(), attn.bn.running_var.copy()

    def loss():
        attn.bn.running_mean, attn.bn.running_var = mean.copy(), var.copy()
        parts, _ = attn.forward(tokens, training)
        return tsum(mul(parts, k))

    grad_check(loss, [tokens] + attn.params(), tol=1e-5, max_coords=12)


def test_attention_weights_are_values_only():
    attn, tokens = make_attention(4, tracked=True)
    parts, weights = attn.forward(tokens, training=True)
    assert parts.requires_grad and not weights.requires_grad


# --- PWCS head --------------------------------------------------------------------


@pytest.mark.parametrize("num_parts", [1, 4])
def test_pwcs_matches_composed(num_parts):
    def make():
        rng = np.random.default_rng(10)
        v = Tensor(rng.normal(size=(5, num_parts, 6)), requires_grad=True)
        t = Tensor(rng.normal(size=(7, num_parts, 6)), requires_grad=True)
        return (v, t), [v, t]

    assert_same_bits(make, lambda s: pwcs_batch(*s), lambda s: bruteforce.composed_pwcs(*s))
    (v, t), leaves = make()
    k = constant(np.random.default_rng(11).normal(size=(5, 7)))
    grad_check(lambda: tsum(mul(pwcs_batch(v, t), k)), leaves)


# --- relation vector ----------------------------------------------------------------


@pytest.mark.parametrize("num_parts", [1, 4])
def test_relation_matches_composed(num_parts):
    def make():
        rng = np.random.default_rng(12)
        v = Tensor(rng.normal(size=(5, num_parts, 6)), requires_grad=True)
        t = Tensor(rng.normal(size=(7, num_parts, 6)), requires_grad=True)
        return (v, t), [v, t]

    assert_same_bits(
        make, lambda s: relation_batch(*s), lambda s: bruteforce.composed_relation(*s)
    )


PART_PRODUCTS = {
    "pwcs": (pwcs_batch, bruteforce.composed_pwcs),
    "relation": (relation_batch, bruteforce.composed_relation),
}


def part_product_bits(op, b, s, d, w, seed):
    fused, composed = PART_PRODUCTS[op]

    def make():
        rng = np.random.default_rng(seed)
        v = Tensor(rng.normal(size=(b, s, d)), requires_grad=True)
        t = Tensor(rng.normal(size=(w, s, d)), requires_grad=True)
        return (v, t), [v, t]

    assert_same_bits(make, lambda state: fused(*state), lambda state: composed(*state))


# the products that training runs at every step; an eval pass folds CRM_FULL's
# relation product away.  PWCS is drawn from feat_dim 2: at feat_dim 1 see the
# strict xfail below
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("op, least_d", [("pwcs", 2), ("relation", 1)])
@given(data=st.data())
def test_part_products_match_composed_at_drawn_shapes(op, least_d, data):
    b, s = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 8))
    d, w = data.draw(st.integers(least_d, 70)), data.draw(st.integers(2, 24))
    part_product_bits(op, b, s, d, w, data.draw(st.integers(0, 2**16)))


# at feat_dim 1 the gradient into the prompt features is rounding noise around
# an exact 0 (a normalized scalar is +-1), and the batched product's backward
# sums the batch in another order than the chain's per-part products: 14 of
# about 21 drawn shapes with feat_dim 1 differed in t's gradient, none with
# feat_dim 2-70
@pytest.mark.xfail(reason="pwcs_batch's t gradient at feat_dim 1 is not the chain's bits",
                   strict=True)
def test_pwcs_matches_composed_at_feat_dim_one():
    part_product_bits("pwcs", 4, 2, 1, 3, 0)


# --- prompt bank and text encoder -------------------------------------------------


def make_prompts(w=4, s=3, m=2, d=6, f=5, seed=12):
    emb = np.random.default_rng(seed).normal(size=(w, d))
    bank = PromptBank(emb, num_parts=s, ctx_len=m, seed=seed + 1)
    bank.contexts.values *= 25.0  # std 0.5: large enough to bend the tanh
    enc = FrozenTextEncoder(seed=seed + 2, word_dim=d, feat_dim=f, num_positions=m + 1)
    return (bank, enc), [bank.contexts]


def test_text_encode_matches_composed():
    assert_same_bits(
        make_prompts,
        lambda s: s[0].encode(s[1]),
        lambda s: bruteforce.composed_prompt_features(s[0], s[1]),
    )
    (bank, enc), leaves = make_prompts()
    k = constant(np.random.default_rng(15).normal(size=(4, 3, 5)))
    grad_check(lambda: tsum(mul(bank.encode(enc), k)), leaves)


# numpy pools (n, M + 1, 1) pairwise along the positions once that axis is
# the contiguous one: word_dim 1 with ctx_len 7 and 15 is where a shortcut
# that sums the contexts and adds the class row apart changed bits
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(w=2, s=1, m=7, d=1, f=3, seed=0)
@example(w=5, s=4, m=15, d=1, f=8, seed=1)
@given(
    w=st.integers(2, 12),
    s=st.integers(1, 8),
    m=st.integers(1, 20),
    d=st.sampled_from([1, 2, 3, 6, 32]),
    f=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
def test_prompt_encode_matches_composed_at_drawn_shapes(w, s, m, d, f, seed):
    assert_same_bits(
        lambda: make_prompts(w, s, m, d, f, seed),
        lambda state: state[0].encode(state[1]),
        lambda state: bruteforce.composed_prompt_features(state[0], state[1]),
    )


@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "constant"])
def test_text_encode_op_matches_composed(tracked):
    def make():
        enc = FrozenTextEncoder(seed=14, word_dim=6, feat_dim=5, num_positions=3)
        rng = np.random.default_rng(18)
        ctx, closing = rng.normal(size=(7, 2, 6)), rng.normal(size=(7, 6))
        x = Tensor(ctx, requires_grad=True) if tracked else constant(ctx)
        return (x, closing, enc), [x]

    def composed(s):
        x, closing, enc = s
        closing_rows = constant(closing[:, None, :])
        return bruteforce.composed_text_encode(enc, bruteforce.concat([x, closing_rows], axis=1))

    if tracked:
        assert_same_bits(make, lambda s: s[2].encode(s[0], s[1]), composed)
        (x, closing, enc), leaves = make()
        k = constant(np.random.default_rng(19).normal(size=(7, 5)))
        grad_check(lambda: tsum(mul(enc.encode(x, closing), k)), leaves)
    else:
        state, _ = make()
        out = state[2].encode(state[0], state[1])
        assert out.values.tobytes() == composed(state).values.tobytes()
        assert not out.requires_grad and out._bw is None


def test_text_encode_is_one_tape_op():
    (bank, enc), _ = make_prompts()
    out = bank.encode(enc)
    assert out._parents == (bank.contexts,)
    assert out.values.shape == (4, 3, 5)
    assert len([n for n in _topo_order(out) if n._parents]) == 1


# --- shape ops used by the fused layers --------------------------------------------


def test_concat_and_permute_gradients():
    rng = np.random.default_rng(16)
    a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1, 4)), requires_grad=True)
    k = constant(rng.normal(size=(3, 3, 4)))
    grad_check(lambda: tsum(mul(bruteforce.concat([a, b], axis=1), k)), [a, b])
    kp = constant(rng.normal(size=(2, 4, 3)))
    grad_check(lambda: tsum(mul(transpose(a, (1, 2, 0)), kp)), [a])


def test_reduction_gradients_are_broadcast_views():
    # tsum, sum_axis and mean_axis hand back a read-only view of their upstream
    # gradient: same values as a copy, without materializing it
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    for out, g, want in (
        (tsum(a), np.array(2.0), np.full((2, 3), 2.0)),
        (sum_axis(a, 0), np.array([1.0, 2.0, 3.0]), np.tile([1.0, 2.0, 3.0], (2, 1))),
        (bruteforce.mean_axis(a, 1), np.array([3.0, 6.0]), np.array([[1.0] * 3, [2.0] * 3])),
    ):
        (ga,) = out._bw(g)
        assert not ga.flags.writeable
        np.testing.assert_array_equal(ga, want)


# --- whole training steps ------------------------------------------------------------

TINY_SPEC = {
    "num_classes": 6,
    "num_superclasses": 3,
    "noise": 0.1,
    "train_per_class": 6,
    "test_per_class": 2,
    "tokens_per_image": 6,
}


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(SyntheticSpec.from_dict(TINY_SPEC))


def step_inputs(config, dataset):
    patches, labels = few_shot_split(dataset, config.shots, config.seed_data)
    model = build_model(config, dataset)
    return model, constant(model.image_encoder.encode(patches[:9])), labels[:9]


def tiny_config(**overrides):
    base = dict(shots=4, feat_dim=12, ctx_len=3, data_spec=TINY_SPEC)
    base.update(overrides)
    return TrainConfig(**base)


STEP_CASES = {
    "ALIGN": dict(head="ALIGN", num_parts=1),
    "PWCS": dict(head="PWCS"),
    "PWCS_one_part": dict(head="PWCS", num_parts=1),
    "MLPS": dict(head="MLPS"),
    "MLPS_one_part": dict(head="MLPS", num_parts=1),
    "CRM_FULL": dict(head="CRM_FULL"),
    "CRM_BASE": dict(head="CRM_BASE"),
    "CRM_XCLASS": dict(head="CRM_XCLASS"),
    "CRM_XPART": dict(head="CRM_XPART"),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES), ids=lambda case: f"{case}-train")
def test_model_step_matches_composed(case, tiny_dataset):
    cfg = tiny_config(**STEP_CASES[case])
    model, feats, labels = step_inputs(cfg, tiny_dataset)
    twin, _, _ = step_inputs(cfg, tiny_dataset)
    for m, seed in ((model, 17), (twin, 17)):
        jitter(m.params(), seed)
    loss = model.loss(feats, labels)
    want = bruteforce.composed_model_loss(twin, feats, labels)
    assert loss.values.tobytes() == want.values.tobytes()
    backward(loss)
    backward(want)
    for p, q in zip(model.params(), twin.params()):
        assert p.name == q.name
        # backward gives an adjoint to the leaves it reaches: the same ones in both
        assert (p.grad is None) == (q.grad is None), p.name
        if p.grad is not None:
            assert p.grad.tobytes() == q.grad.tobytes(), p.name
    for bn, other in zip(model.batch_norms(), twin.batch_norms()):
        assert bn.name == other.name
        assert bn.running_mean.tobytes() == other.running_mean.tobytes(), bn.name
        assert bn.running_var.tobytes() == other.running_var.tobytes(), bn.name


# Tracked op nodes (leaves excluded) on the tape of one training step.  The
# composed layers recorded 58 (PWCS), 52 (CRM_FULL), 55 (CRM_BASE) and 82
# (MLPS).  A head with a prompt bank spends one node on its prompts: the
# text encoder reads the contexts and the constant class rows as one op, in
# place of the reshape, concat, encode and reshape that took four.  A change
# that splits a fused layer back into primitives fails here.
PINNED_STEP_NODES = {
    "ALIGN": 11,
    "PWCS": 11,
    "MLPS": 27,
    "CRM_FULL": 13,
    "CRM_BASE": 16,
    "CRM_XCLASS": 14,
    "CRM_XPART": 16,
}


@pytest.mark.parametrize("kind", sorted(PINNED_STEP_NODES))
def test_training_step_tape_size(kind, tiny_dataset):
    cfg = tiny_config(head=kind, num_parts=1 if kind == "ALIGN" else 4)
    model, feats, labels = step_inputs(cfg, tiny_dataset)
    loss = model.loss(feats, labels)
    ops = [node for node in _topo_order(loss) if node._parents]
    assert len(ops) == PINNED_STEP_NODES[kind]
