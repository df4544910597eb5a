"""Reverse-mode autodiff over float64 numpy arrays.

A Tensor wraps an ndarray.  A leaf created with requires_grad=True gets an
adjoint of the same shape in .grad the first time backward() reaches it, and
keeps it until a caller sets .grad to None; until then .grad is None, so a
model at rest holds its values only.  Op results that track gradients hold no
adjoint, only tape links to their parents.  backward() walks the tape once
per call, routes each intermediate's gradient to its parents without storing
it, and adds dloss/dleaf into the .grad of every tracking leaf it reaches, so
repeated calls accumulate.  An op computes no gradient for a parent that does
not track gradients.  Values are treated as immutable once an op has consumed
them; the optimizer mutates parameter values in place only between tapes.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from ..errors import DegenerateInputError, NumericError, ShapeMismatchError


class _GradMode(threading.local):
    """Whether ops record a tape, per thread; every thread starts with it on."""

    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only).

    The mode belongs to the calling thread: another thread's ops still record.
    """
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """values (ndarray, float64) + adjoint in .grad once backward reaches a
    requires_grad leaf.

    A trainable leaf carries its name, the key its values are stored under
    in model files; op results and constants have none.
    """

    __slots__ = ("values", "requires_grad", "grad", "name", "_parents", "_bw")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _grad_mode.enabled
        self.grad = None
        self.name = name
        self._parents = ()
        self._bw = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # the one operator overload: a scalar or ndarray factor is wrapped as a constant
    def __mul__(self, other):
        return mul(self, _as_tensor(other))


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def recording(parents) -> bool:
    """True when an op over `parents` goes on the tape.

    Fused ops ask this before they keep anything for their backward.
    """
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


def from_op(values: np.ndarray, parents, bw) -> Tensor:
    """Wrap an op result; record the tape edge only when a parent needs it.

    A tracked result holds no adjoint: backward passes its gradient on to
    the parents through the tape.  bw(g) returns one gradient (or None) per
    parent and must not write into g, which may be a read-only view.
    """
    out = Tensor(values)
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bw = bw
    return out


def unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --- elementwise -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (
            unbroadcast(g, a.values.shape) if need_a else None,
            unbroadcast(g, b.values.shape) if need_b else None,
        )

    return from_op(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (
            unbroadcast(g * b.values, a.values.shape) if need_a else None,
            unbroadcast(g * a.values, b.values.shape) if need_b else None,
        )

    return from_op(out, (a, b), bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.values, 0.0)
    if not recording((a,)):
        return from_op(out, (a,), None)
    mask = a.values > 0.0  # subgradient 0 at the kink

    def bw(g):
        return (g * mask,)

    return from_op(out, (a,), bw)


# --- matrix products --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a (n, m) @ b (m, k) -> (n, k), or batched: a (B, n, m) @ b (B, m, k) -> (B, n, k)."""
    sa, sb = a.values.shape, b.values.shape
    if len(sa) != len(sb) or len(sa) not in (2, 3) or sa[:-2] != sb[:-2] or sa[-1] != sb[-2]:
        raise ShapeMismatchError(
            f"matmul needs (n, m) @ (m, k) or (B, n, m) @ (B, m, k), got {sa} @ {sb}"
        )
    out = a.values @ b.values
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (
            g @ b.values.swapaxes(-1, -2) if need_a else None,
            a.values.swapaxes(-1, -2) @ g if need_b else None,
        )

    return from_op(out, (a, b), bw)


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x (n, d_in) @ w (d_in, d_out), plus a bias row b (1, d_out) when given.

    One tape node with the values and gradients of add(matmul(x, w), b).
    """
    if x.values.ndim != 2 or w.values.ndim != 2 or x.values.shape[1] != w.values.shape[0]:
        raise ShapeMismatchError(
            f"affine needs (n, m) @ (m, k), got {x.values.shape} @ {w.values.shape}"
        )
    if b is not None and b.values.shape != (1, w.values.shape[1]):
        raise ShapeMismatchError(
            f"affine bias must be (1, {w.values.shape[1]}), got {b.values.shape}"
        )
    out = x.values @ w.values
    parents = (x, w)
    if b is not None:
        out += b.values
        parents = (x, w, b)
    need_x, need_w = x.requires_grad, w.requires_grad

    def bw(g):
        gx = g @ w.values.T if need_x else None
        gw = x.values.T @ g if need_w else None
        if b is None:
            return gx, gw
        return gx, gw, unbroadcast(g, b.values.shape) if b.requires_grad else None

    return from_op(out, parents, bw)


def transpose(a: Tensor, axes) -> Tensor:
    """Permute the axes as np.transpose(a, axes)."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.values.ndim)):
        raise ShapeMismatchError(f"axes {axes} do not permute the axes of {a.values.shape}")
    out = a.values.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        return (g.transpose(inverse),)

    return from_op(out, (a,), bw)


# --- shape and indexing -----------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = a.values.reshape(shape)

    def bw(g):
        return (g.reshape(a.values.shape),)

    return from_op(out, (a,), bw)


def _scatter_add(ga: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """ga[idx] += g along axis 0 of a zeroed ga.

    Without repeated indices this is a plain store: the same values (0 + x
    == x) at a fraction of np.add.at's cost.  The check runs only on
    backward, so untracked forward passes never pay for it.
    """
    hits = np.zeros(ga.shape[0], dtype=bool)
    hits[idx] = True
    if np.count_nonzero(hits) == idx.size:
        ga[idx] = g
    else:
        np.add.at(ga, idx, g)


def gather(a: Tensor, idx, axis: int) -> Tensor:
    """a (n, d), idx (k,) int -> (k, d) at axis 0, (n, k) at axis 1.

    Duplicate indices accumulate on backward.
    """
    if a.values.ndim != 2 or axis not in (0, 1):
        raise ShapeMismatchError(
            f"gather needs a 2-d tensor and axis 0 or 1, got {a.values.shape} at axis {axis}"
        )
    idx = np.asarray(idx, dtype=np.intp)
    out = np.moveaxis(np.moveaxis(a.values, axis, 0)[idx], 0, axis)

    def bw(g):
        ga = np.zeros_like(a.values)
        _scatter_add(np.moveaxis(ga, axis, 0), idx, np.moveaxis(g, axis, 0))
        return (ga,)

    return from_op(out, (a,), bw)


# --- reductions -------------------------------------------------------------


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries -> scalar tensor, shape ()."""
    out = np.asarray(a.values.sum())

    def bw(g):
        return (np.broadcast_to(g, a.values.shape),)

    return from_op(out, (a,), bw)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out = a.values.sum(axis=axis)

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, axis), a.values.shape),)

    return from_op(out, (a,), bw)


# --- normalizers and loss ---------------------------------------------------


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row (last axis) of a (..., d) to unit euclidean norm, ndim >= 2."""
    if a.values.ndim < 2:
        raise ShapeMismatchError(
            f"l2_normalize_rows needs a tensor of at least 2 dims, got {a.values.shape}"
        )
    norms = np.sqrt((a.values * a.values).sum(axis=-1, keepdims=True))
    if np.any(norms == 0.0):
        raise DegenerateInputError("cannot l2-normalize a zero row")
    out = a.values / norms

    def bw(g):
        dot = (g * a.values).sum(axis=-1, keepdims=True)
        return (g / norms - a.values * dot / norms**3,)

    return from_op(out, (a,), bw)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy.  logits (b, w), labels (b,) int -> scalar."""
    if logits.values.ndim != 2:
        raise ShapeMismatchError(f"cross_entropy needs 2-d logits, got {logits.values.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    b, w = logits.values.shape
    if labels.shape != (b,):
        raise ShapeMismatchError(f"labels shape {labels.shape} does not match batch {b}")
    if np.any(labels < 0) or np.any(labels >= w):
        raise IndexError(f"labels must lie in [0, {w})")
    z = logits.values - logits.values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    out = np.asarray((lse - z[np.arange(b), labels]).mean())
    probs = np.exp(z - lse[:, None])

    def bw(g):
        gl = probs.copy()
        gl[np.arange(b), labels] -= 1.0
        return (gl * (g / b),)

    return from_op(out, (logits,), bw)


# --- backward pass ----------------------------------------------------------


def _topo_order(root: Tensor):
    """Parents-first postorder over the recorded tape."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Add dloss/dleaf into .grad of every gradient-tracking leaf it reaches.

    A leaf without an adjoint gets zeros first.  Gradients of intermediate
    nodes only pass through: each is summed over its consumers, handed to the
    node's parents and then dropped.
    """
    if loss.values.size != 1:
        raise ShapeMismatchError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not np.isfinite(loss.values):
        raise NumericError("loss is not finite")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    flows = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = flows.pop(id(node), None)
        if g is None:
            continue
        if node._bw is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.values)
            node.grad += g
            continue
        for parent, pg in zip(node._parents, node._bw(g)):
            if pg is None or not parent.requires_grad:
                continue
            held = flows.get(id(parent))
            flows[id(parent)] = pg if held is None else held + pg
