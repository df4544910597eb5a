"""Tensor core: frozen-value oracles plus finite-difference checks per op."""

import ast
import math
import pathlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import bruteforce
from bruteforce import concat, div, mean_axis, power, softmax_rows, sub, tanh
from xrhead.errors import (
    BatchSizeError,
    ConfigError,
    DegenerateInputError,
    NumericError,
    ShapeMismatchError,
)
from xrhead.numerics import (
    Affine,
    BatchNorm,
    Mlp,
    Sgd,
    Tensor,
    add,
    affine,
    backward,
    constant,
    cosine_lr,
    cross_entropy,
    finite_diff_check,
    gather,
    l2_normalize_rows,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    sum_axis,
    transpose,
    tsum,
)
from xrhead.numerics.tensor import from_op


def leaf(values, name=None):
    return Tensor(values, requires_grad=True, name=name)


def check_op(build, leaves, tol=1e-6):
    """Finite-difference check a closure over the given leaf tensors."""
    for i, t in enumerate(leaves):
        t.name = f"p{i}"
    worst = finite_diff_check(build, leaves)
    assert max(worst.values()) < tol, worst


# --- frozen forward values ---------------------------------------------------


def test_matmul_hand_value():
    out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert out.values.shape == (1, 1)
    assert out.values[0, 0] == 11.0


def test_softmax_hand_value():
    # exp(ln 3) : exp(0) = 3 : 1
    out = softmax_rows(constant([[math.log(3.0), 0.0]]))
    np.testing.assert_allclose(out.values, [[0.75, 0.25]], atol=1e-12)


def test_cross_entropy_hand_value():
    loss = cross_entropy(constant([[math.log(3.0), 0.0]]), [0])
    assert abs(float(loss.values) - (-math.log(0.75))) < 1e-12


def test_batch_norm_hand_value():
    bn = BatchNorm(1)
    out = bn(constant([[1.0], [3.0]]), training=True)
    # mean 2, biased variance 1, so (x - 2) / sqrt(1 + eps)
    np.testing.assert_allclose(out.values, [[-1.0], [1.0]], atol=1e-4)


def test_batch_norm_eval_identity_stats():
    bn = BatchNorm(3)
    x = np.array([[0.3, -1.2, 2.0], [0.0, 0.5, -0.7]])
    out = bn(constant(x), training=False)
    np.testing.assert_allclose(out.values, x, atol=1e-4)


def test_sgd_plain_step(monkeypatch):
    monkeypatch.setattr(Sgd, "weight_decay", 0.0)
    monkeypatch.setattr(Sgd, "momentum", 0.0)
    w = leaf(np.array([1.0]))
    backward(tsum(mul(w, constant([0.5]))))  # an adjoint made before the optimizer is kept
    opt = Sgd([w])
    opt.step(0.1)
    np.testing.assert_allclose(w.values, [0.95], atol=1e-15)


def test_sgd_momentum_and_decay(monkeypatch):
    # two steps by hand: v1 = g + wd*w0; w1 = w0 - lr*v1; v2 = m*v1 + g + wd*w1
    monkeypatch.setattr(Sgd, "weight_decay", 0.01)
    w = leaf(np.array([1.0]))
    opt = Sgd([w])
    w.grad[...] = 0.5
    opt.step(0.1)
    v1 = 0.5 + 0.01 * 1.0
    w1 = 1.0 - 0.1 * v1
    np.testing.assert_allclose(w.values, [w1], atol=1e-15)
    w.grad[...] = 0.2
    opt.step(0.1)
    v2 = 0.9 * v1 + 0.2 + 0.01 * w1
    np.testing.assert_allclose(w.values, [w1 - 0.1 * v2], atol=1e-15)


def test_sgd_refuses_parameter_without_gradient():
    with pytest.raises(ConfigError, match="does not track gradients"):
        Sgd([constant(np.array([1.0, 2.0]))])
    # an op result tracks gradients but holds no adjoint for backward to fill
    x = leaf(np.array([1.0, 2.0]))
    with pytest.raises(ConfigError, match="is not a leaf"):
        Sgd([mul(x, x)])


def test_sgd_arena_matches_per_parameter_loop(monkeypatch):
    # 75,022 elements: the 32,768-element block boundaries fall inside the
    # big parameter, the other two are smaller than one block, and the last
    # block is partial
    from xrhead.numerics.optim import BLOCK

    shapes = [(5,), (250, 300), (1, 17)]
    assert sum(math.prod(s) for s in shapes) % BLOCK and 5 < BLOCK < 5 + 250 * 300

    def make():
        rng = np.random.default_rng(21)
        return [leaf(rng.normal(size=s), name=f"p{i}") for i, s in enumerate(shapes)]

    monkeypatch.setattr(Sgd, "weight_decay", 0.01)
    params, twin = make(), make()
    opt = Sgd(params)
    oracle = bruteforce.LoopSgd(weight_decay=0.01, momentum=0.9)
    rng = np.random.default_rng(22)
    for epoch in range(4):
        lr = cosine_lr(epoch, 5, 0.3)
        opt.zero_grads()
        for p, q in zip(params, twin):
            q.grad = rng.normal(size=q.values.shape)
            p.grad += q.grad
        opt.step(lr)
        oracle.step(twin, lr)
        for p, q in zip(params, twin):
            assert p.values.tobytes() == q.values.tobytes(), (epoch, p.name)
            assert p.grad.tobytes() == q.grad.tobytes(), (epoch, p.name)
        velocity = np.concatenate([oracle.velocities[id(q)].reshape(-1) for q in twin])
        assert opt.velocity.tobytes() == velocity.tobytes(), epoch


def test_sgd_packs_parameters_into_views():
    rng = np.random.default_rng(23)
    w = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(1, 4)))
    w.grad = np.ones((3, 4))  # b holds no adjoint
    before = w.values.copy()
    opt = Sgd([w, b])
    assert opt.values.size == opt.grads.size == opt.velocity.size == 16
    for t in (w, b):
        assert np.shares_memory(t.values, opt.values)
        assert np.shares_memory(t.grad, opt.grads)
    np.testing.assert_array_equal(w.values, before)  # packing keeps the values
    np.testing.assert_array_equal(w.grad, 1.0)  # and a gradient already held
    assert b.grad.shape == (1, 4) and not b.grad.any()  # a missing one starts at zero
    backward(tsum(b))  # backward adds into the view in place
    assert np.shares_memory(b.grad, opt.grads)
    np.testing.assert_array_equal(b.grad, 1.0)
    opt.zero_grads()
    assert not w.grad.any()  # zero_grads clears every gradient in one fill
    # a parameter moved off its view would no longer be updated: refused
    w.values = w.values.copy()
    with pytest.raises(ConfigError, match="no longer uses the optimizer's arrays"):
        opt.step(0.5)
    with pytest.raises(ConfigError, match="no longer uses the optimizer's arrays"):
        opt.zero_grads()


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 2e-3) == pytest.approx(2e-3)
    assert cosine_lr(50, 100, 2e-3) == pytest.approx(1e-3)
    assert cosine_lr(100, 100, 2e-3) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 1.0)
    with pytest.raises(ConfigError):
        cosine_lr(5, 4, 1.0)


# --- backward semantics ------------------------------------------------------


def test_backward_requires_scalar():
    x = leaf([[1.0, 2.0]])
    with pytest.raises(ShapeMismatchError):
        backward(mul(x, x))


def test_backward_of_a_loss_that_tracks_no_gradient_returns():
    x = leaf([2.0])
    with no_grad():
        loss = tsum(mul(x, x))
    assert not loss.requires_grad
    backward(loss)
    # neither the leaf nor the loss, which backward would otherwise seed, holds an adjoint
    assert x.grad is None and loss.grad is None


def test_repeated_backward_accumulates():
    x = leaf([2.0])
    loss = tsum(mul(x, x))
    backward(loss)
    backward(loss)
    np.testing.assert_allclose(x.grad, [8.0])  # 2 * dx(x^2) = 2 * 4


def test_shared_node_fans_in():
    x = leaf([3.0])
    y = mul(x, x)
    loss = tsum(add(y, y))
    backward(loss)
    np.testing.assert_allclose(x.grad, [12.0])  # d(2x^2)/dx = 4x


def test_no_grad_blocks_tape():
    x = leaf([1.0])
    with no_grad():
        out = mul(x, x)
    assert not out.requires_grad
    assert out._bw is None


def test_adjoint_made_when_backward_first_reaches_a_leaf():
    a = leaf([1.0])
    b = constant([2.0])
    unused = leaf([3.0])
    assert a.grad is None and b.grad is None  # no adjoint before a gradient arrives
    with no_grad():
        assert leaf([1.0]).grad is None
    out = mul(a, b)
    assert out.requires_grad and out.grad is None
    out2 = mul(b, b)
    assert not out2.requires_grad and out2.grad is None
    backward(tsum(mul(out, out)))
    np.testing.assert_allclose(a.grad, [8.0])  # d(4a^2)/da
    # only tracking leaves the loss reaches hold an adjoint
    assert out.grad is None and b.grad is None and unused.grad is None
    # a dropped adjoint is made again, from zeros, by the next backward
    a.grad = None
    backward(tsum(mul(out, out)))
    np.testing.assert_allclose(a.grad, [8.0])


def _records() -> bool:
    """Whether the calling thread's ops record a tape now."""
    return leaf([1.0]).requires_grad


def _run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)


def test_grad_mode_is_per_thread():
    # A holds no_grad while B records and backpropagates a tape.  Then B
    # opens no_grad inside A's and A closes first: a mode shared by the
    # threads, saved and restored per block, would stay off after both.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        try:
            with no_grad():
                a_in.set()
                b_in.wait(timeout=10)
            seen["a_after"] = _records()
        finally:
            a_in.set()
            a_out.set()

    def thread_b():
        try:
            a_in.wait(timeout=10)
            x = leaf([3.0])
            loss = tsum(mul(x, x))
            seen["b_recorded"] = loss.requires_grad
            if loss.requires_grad:
                backward(loss)
                seen["b_grad"] = x.grad.tolist()
            with no_grad():
                b_in.set()
                a_out.wait(timeout=10)
            seen["b_after"] = _records()
        finally:
            b_in.set()

    _run_threads(thread_a, thread_b)
    assert seen == {"b_recorded": True, "b_grad": [6.0], "a_after": True, "b_after": True}
    assert _records()


def test_no_grad_holds_under_thread_switches():
    # more threads than cores, switched every microsecond; each checks its
    # own mode inside and outside its blocks
    results = []

    def work():
        ok = True
        for _ in range(300):
            with no_grad():
                ok = ok and not _records()
            ok = ok and _records()
        results.append(ok)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(*[work] * 8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 8
    assert _records()


@pytest.mark.parametrize(
    "op, shape",
    [(op, (3, 3)) for op in (add, sub, mul, div, matmul)] + [(matmul, (2, 3, 3))],
    ids=["add", "sub", "mul", "div", "matmul", "batched_matmul"],
)
def test_constant_operand_gets_no_gradient(op, shape):
    rng = np.random.default_rng(0)
    x = leaf(rng.normal(size=shape))
    k = constant(rng.normal(size=shape) + 5.0)
    g = rng.normal(size=shape)
    gx, gk = op(x, k)._bw(g)
    assert gx is not None and gk is None
    gk, gx = op(k, x)._bw(g)
    assert gk is None and gx is not None


def test_relu_subgradient_zero_at_kink():
    x = leaf([-1.0, 0.0, 2.0])
    backward(tsum(relu(x)))
    np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])


def test_relu_off_the_tape_keeps_its_values():
    x = leaf([[-1.0, 0.0, 2.5], [3.0, -0.0, -4.0]])
    want = relu(x).values.tobytes()
    with no_grad():
        untracked = [relu(x), relu(constant(x.values))]
    untracked.append(relu(constant(x.values)))
    for out in untracked:
        assert out.values.tobytes() == want
        assert not out.requires_grad and out._parents == () and out._bw is None
    # off the tape, relu allocates its output and no backward mask
    big = constant(np.linspace(-1.0, 1.0, 100_000))
    tracemalloc.start()
    try:
        out = relu(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.values.nbytes + big.values.size // 2


def test_broadcast_grad_sums():
    row = leaf(np.ones((1, 3)))
    full = leaf(np.ones((4, 3)))
    backward(tsum(add(full, row)))
    np.testing.assert_allclose(row.grad, np.full((1, 3), 4.0))
    np.testing.assert_allclose(full.grad, np.ones((4, 3)))


def test_broadcast_grad_sums_over_extra_leading_axes():
    vec = leaf(np.ones(3))
    full = leaf(np.ones((2, 3)))
    k = constant(np.arange(6.0).reshape(2, 3))
    backward(tsum(mul(add(full, vec), k)))
    np.testing.assert_array_equal(vec.grad, [3.0, 5.0, 7.0])  # k summed over its rows
    np.testing.assert_array_equal(full.grad, k.values)


def test_backward_skips_a_node_no_gradient_reached():
    # from_op lets a backward return None for a parent that tracks gradients:
    # that parent gets no adjoint, the other one does
    x, y = leaf([2.0]), leaf([3.0])
    out = from_op(x.values * y.values, (x, y), lambda g: (g * y.values, None))
    backward(tsum(out))
    np.testing.assert_array_equal(x.grad, [3.0])
    assert y.grad is None


def test_gather_rows_duplicates_accumulate():
    x = leaf(np.arange(6.0).reshape(3, 2))
    out = gather(x, [1, 1, 2], 0)
    np.testing.assert_allclose(out.values, [[2, 3], [2, 3], [4, 5]])
    backward(tsum(out))
    np.testing.assert_allclose(x.grad, [[0, 0], [2, 2], [1, 1]])


def test_gather_cols_duplicates_accumulate():
    x = leaf(np.arange(6.0).reshape(2, 3))
    out = gather(x, [0, 0, 2], 1)
    np.testing.assert_allclose(out.values, [[0, 0, 2], [3, 3, 5]])
    backward(tsum(out))
    np.testing.assert_allclose(x.grad, [[2, 0, 1], [2, 0, 1]])


@pytest.mark.parametrize(
    "idx",
    [
        np.random.default_rng(3).permutation(12),  # permutation
        np.arange(1, 12, 3),  # strided pick
        np.array([5, 0, 5, 11, 0, 5]),  # duplicates
    ],
    ids=["permutation", "strided", "duplicates"],
)
@pytest.mark.parametrize("axis", [0, 1], ids=["rows", "cols"])
def test_gather_backward_matches_add_at_oracle(idx, axis):
    rng = np.random.default_rng(4)
    x = leaf(rng.normal(size=(12, 12)))
    out = gather(x, idx, axis)
    g = rng.normal(size=out.values.shape)
    backward(tsum(mul(out, constant(g))))  # upstream gradient is exactly g
    oracle = np.zeros((12, 12))
    if axis == 0:
        np.add.at(oracle, idx, g)
    else:
        np.add.at(oracle.T, idx, g.T)
    assert x.grad.tobytes() == oracle.tobytes()


def test_l2_normalize_rejects_zero_row():
    with pytest.raises(DegenerateInputError):
        l2_normalize_rows(constant([[0.0, 0.0]]))
    with pytest.raises(DegenerateInputError):
        l2_normalize_rows(constant(np.ones((2, 2, 3)) * [[[1.0]], [[0.0]]]))
    with pytest.raises(ShapeMismatchError):
        l2_normalize_rows(constant([3.0, 4.0]))


def test_cross_entropy_label_bounds():
    with pytest.raises(IndexError):
        cross_entropy(constant([[0.0, 1.0]]), [2])
    with pytest.raises(IndexError):
        cross_entropy(constant([[0.0, 1.0]]), [-1])


def test_cross_entropy_finite_for_extreme_logits():
    loss = cross_entropy(constant([[1000.0, -1000.0]]), [1])
    assert np.isfinite(loss.values)


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatchError):
        matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))
    with pytest.raises(ShapeMismatchError):
        matmul(constant(np.ones(3)), constant(np.ones((3, 1))))
    with pytest.raises(ShapeMismatchError):
        matmul(constant(np.ones((2, 2, 3))), constant(np.ones((3, 3, 2))))
    with pytest.raises(ShapeMismatchError):
        matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3, 2))))
    with pytest.raises(ShapeMismatchError):
        matmul(constant(np.ones((1, 2, 2, 3))), constant(np.ones((1, 2, 3, 2))))


def test_batch_norm_needs_two_rows():
    bn = BatchNorm(2)
    with pytest.raises(BatchSizeError):
        bn(constant([[1.0, 2.0]]), training=True)


def ones(*shape):
    return constant(np.ones(shape))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: affine(ones(2, 3), ones(2, 3)), r"affine needs \(n, m\) @ \(m, k\)"),
        (lambda: affine(ones(2, 3), ones(3, 4), ones(4)), r"affine bias must be \(1, 4\)"),
        (lambda: transpose(ones(2, 3), (0, 0)), "do not permute the axes"),
        (lambda: gather(ones(3), [0], 0), "gather needs a 2-d tensor and axis 0 or 1"),
        (lambda: gather(ones(3), [0], 1), "gather needs a 2-d tensor and axis 0 or 1"),
        (lambda: gather(ones(2, 3), [0], 2), "gather needs a 2-d tensor and axis 0 or 1"),
        (lambda: concat([ones(2, 3), ones(2, 4)], axis=0), "concat along axis 0"),
        (lambda: cross_entropy(ones(3), [0, 1, 2]), "cross_entropy needs 2-d logits"),
        (lambda: cross_entropy(ones(2, 3), [0]), r"labels shape \(1,\) does not match batch 2"),
        (lambda: BatchNorm(2)(ones(3, 3), training=True), r"batch norm expects \(b, 2\)"),
    ],
    ids=[
        "affine_inner",
        "affine_bias",
        "transpose_axes",
        "gather_rows_1d",
        "gather_cols_1d",
        "gather_axis_2",
        "concat_shapes",
        "cross_entropy_1d",
        "cross_entropy_labels",
        "batch_norm_width",
    ],
)
def test_ops_refuse_mismatched_shapes(call, match):
    with pytest.raises(ShapeMismatchError, match=match):
        call()


def test_tensor_repr_names_shape_and_grad():
    assert repr(leaf(np.ones((2, 3)))) == "Tensor(shape=(2, 3), requires_grad=True)"
    assert repr(ones(4)) == "Tensor(shape=(4,), requires_grad=False)"


def test_batch_norm_running_stats_drift():
    bn = BatchNorm(1)
    assert bn.momentum == 0.1
    x = constant(np.array([[0.0], [4.0]]))  # mean 2, biased var 4
    bn(x, training=True)
    np.testing.assert_allclose(bn.running_mean, [0.2])
    np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 4.0])


# --- finite-difference checks per op -----------------------------------------


def test_grad_elementwise_ops():
    rng = np.random.default_rng(1)
    a = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(3, 4)) + 3.0)  # keep div away from zero
    c = leaf(rng.normal(size=(1, 4)))
    k = constant(rng.normal(size=(3, 4)))

    check_op(lambda: tsum(mul(add(a, c), k)), [a, c])
    check_op(lambda: tsum(div(a, b)), [a, b])
    check_op(lambda: tsum(mul(sub(a, b), k)), [a, b])
    check_op(lambda: tsum(tanh(a)), [a])
    check_op(lambda: tsum(mul(relu(a), k)), [a])
    check_op(lambda: tsum(power(b, -0.5)), [b])


def test_grad_matrix_ops():
    rng = np.random.default_rng(2)
    a = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(4, 2)))
    k = constant(rng.normal(size=(3, 2)))
    check_op(lambda: tsum(mul(matmul(a, b), k)), [a, b])

    p = leaf(rng.normal(size=(2, 3, 4)))
    q = leaf(rng.normal(size=(2, 4, 2)))
    kk = constant(rng.normal(size=(2, 3, 2)))
    kt = constant(rng.normal(size=(2, 4, 3)))
    check_op(lambda: tsum(mul(matmul(p, q), kk)), [p, q])
    check_op(lambda: tsum(mul(transpose(p, (0, 2, 1)), kt)), [p])


def test_grad_shape_ops():
    rng = np.random.default_rng(3)
    a = leaf(rng.normal(size=(4, 6)))
    k = constant(rng.normal(size=(2, 12)))
    check_op(lambda: tsum(mul(reshape(a, (2, 12)), k)), [a])

    kg = constant(rng.normal(size=(3, 6)))
    check_op(lambda: tsum(mul(gather(a, [0, 2, 2], 0), kg)), [a])
    kc = constant(rng.normal(size=(4, 3)))
    check_op(lambda: tsum(mul(gather(a, [5, 1, 5], 1), kc)), [a])

    b = leaf(rng.normal(size=(2, 6)))
    kcat = constant(rng.normal(size=(6, 6)))
    check_op(lambda: tsum(mul(concat([a, b]), kcat)), [a, b])


def test_grad_reductions():
    rng = np.random.default_rng(4)
    a = leaf(rng.normal(size=(3, 5)))
    k0 = constant(rng.normal(size=(5,)))
    k1 = constant(rng.normal(size=(3, 1)))
    check_op(lambda: tsum(mul(sum_axis(a, 0), k0)), [a])
    check_op(lambda: tsum(mul(mean_axis(a, 1, keepdims=True), k1)), [a])

    p = leaf(rng.normal(size=(2, 3, 4)))
    kp = constant(rng.normal(size=(2, 4)))
    check_op(lambda: tsum(mul(mean_axis(p, 1), kp)), [p])


def test_grad_normalizers_and_loss():
    rng = np.random.default_rng(5)
    a = leaf(rng.normal(size=(4, 5)))
    k = constant(rng.normal(size=(4, 5)))
    check_op(lambda: tsum(mul(softmax_rows(a), k)), [a])
    check_op(lambda: tsum(mul(l2_normalize_rows(a), k)), [a])
    a3 = leaf(rng.normal(size=(2, 3, 5)))
    k3 = constant(rng.normal(size=(2, 3, 5)))
    check_op(lambda: tsum(mul(l2_normalize_rows(a3), k3)), [a3])
    # rows of a 3-d tensor normalize exactly as the rows of its 2-d view
    flat = l2_normalize_rows(constant(a3.values.reshape(6, 5))).values
    assert l2_normalize_rows(a3).values.tobytes() == flat.tobytes()

    labels = np.array([0, 3, 1, 4])
    check_op(lambda: cross_entropy(a, labels), [a])


def test_grad_layers():
    rng = np.random.default_rng(6)
    x = constant(rng.normal(size=(6, 3)))
    aff = Affine(3, 4, rng, bias=False)  # a bias here would be dead under bn
    bn = BatchNorm(4)
    k = constant(rng.normal(size=(6, 4)))

    def loss():
        return tsum(mul(bn(aff(x), training=True), k))

    check_op(loss, aff.params() + bn.params(), tol=1e-5)

    mlp = Mlp(3, 5, 2, rng)
    km = constant(rng.normal(size=(6, 2)))

    def loss_mlp():
        return tsum(mul(mlp(x, training=True), km))

    check_op(loss_mlp, mlp.params(), tol=1e-5)


def test_grad_flows_through_batch_stats():
    # normalizing by batch statistics couples rows; check the input gradient
    rng = np.random.default_rng(7)
    x = leaf(rng.normal(size=(5, 3)))
    bn = BatchNorm(3)
    k = constant(rng.normal(size=(5, 3)))
    check_op(lambda: tsum(mul(bn(x, training=True), k)), [x], tol=1e-5)


def test_finite_diff_sampling_budget():
    rng = np.random.default_rng(8)
    big = leaf(rng.normal(size=(40, 40)), name="big")
    k = constant(rng.normal(size=(40, 40)))
    params = [big]
    worst = finite_diff_check(
        lambda: tsum(mul(big, k)), params, max_coords_per_param=16
    )
    assert worst["big"] < 1e-8


def test_finite_diff_refuses_empty_sample():
    a = leaf(np.ones(3), name="a")
    params = [a]
    for coords in (0, -1):
        with pytest.raises(ConfigError, match="max_coords_per_param"):
            finite_diff_check(lambda: tsum(a), params, max_coords_per_param=coords)
    assert finite_diff_check(lambda: tsum(a), params, max_coords_per_param=None)["a"] < 1e-8


def test_finite_diff_refuses_a_non_finite_loss():
    a = leaf(np.ones(3), name="a")
    with pytest.raises(NumericError, match="loss_fn returned a non-finite loss"):
        finite_diff_check(lambda: tsum(mul(a, constant(np.full(3, np.inf)))), [a])


def test_finite_diff_refuses_repeated_names():
    # results are keyed by name: two leaves under one name would hide one's error
    a, b = leaf(np.ones(3)), leaf(np.ones(2))
    with pytest.raises(ConfigError, match="distinct"):
        finite_diff_check(lambda: tsum(mul(a, a)), [a, b])
    a.name, b.name = "a", "b"
    worst = finite_diff_check(lambda: tsum(mul(a, a)), [a, b])
    assert sorted(worst) == ["a", "b"] and worst["a"] < 1e-8


def test_finite_diff_reports_zero_for_an_unused_parameter():
    # the loss never reaches b, so backward leaves it without an adjoint
    rng = np.random.default_rng(10)
    a, b = leaf(rng.normal(size=3), name="a"), leaf(rng.normal(size=2), name="b")
    worst = finite_diff_check(lambda: tsum(mul(a, a)), [a, b])
    assert worst == {"a": worst["a"], "b": 0.0} and worst["a"] < 1e-8
    assert b.grad is None


def test_finite_diff_accepts_size_one_loss():
    # backward takes any loss of size 1; so must the gradient check
    rng = np.random.default_rng(9)
    a = leaf(rng.normal(size=(4, 3)))
    k = constant(rng.normal(size=(3, 1)))

    def loss():
        return sum_axis(matmul(a, k), 0)

    assert loss().values.shape == (1,)
    check_op(loss, [a])


# --- exported surface ------------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _defined(tree: ast.Module) -> set[str]:
    """The functions, classes and plain assignments at a module's top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def _names_used_from(module: str, path: pathlib.Path, package: str) -> set[str]:
    """Names a file imports from `module` or one of its submodules, plus, for a
    file of `module` itself, the names it both defines and loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # relative: drop level - 1 trailing parts of the package
                parts = package.split(".")
                source = ".".join(parts[: len(parts) - node.level + 1] + [source]).rstrip(".")
            if source == module or source.startswith(module + "."):
                names |= {alias.name for alias in node.names}
    own = package if path.stem == "__init__" else f"{package}.{path.stem}"
    if own == module or own.startswith(module + "."):
        defined = _defined(tree)
        names |= {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in defined
        }
    return names


def test_numerics_exports_only_what_the_package_or_demos_use():
    # a primitive that only tests need belongs in tests/bruteforce.py; likewise
    # every public name of experiments and analysis must serve the package or
    # a demo
    import xrhead.numerics

    src = ROOT / "src"
    public = {"xrhead.numerics": set(xrhead.numerics.__all__)}
    for name in ("experiments", "analysis"):
        tree = ast.parse((src / "xrhead" / f"{name}.py").read_text(encoding="utf-8"))
        public[f"xrhead.{name}"] = {n for n in _defined(tree) if not n.startswith("_")}
    assert {"compare_heads", "TIMING_ROUNDS"} <= public["xrhead.experiments"]
    assert "mutual_information" in public["xrhead.analysis"]
    files = sorted(src.rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    files.remove(src / "xrhead" / "numerics" / "__init__.py")
    for module, names in public.items():
        used = set()
        for path in files:
            package = ".".join(path.relative_to(src).parent.parts) if path.is_relative_to(src) else ""
            used |= _names_used_from(module, path, package)
        assert sorted(names - used) == [], module
