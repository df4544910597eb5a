"""Small trainable building blocks, each one fused tape op."""

from __future__ import annotations

import numpy as np

from ..errors import BatchSizeError, ShapeMismatchError
from .tensor import Tensor, affine, from_op, recording, relu, unbroadcast


def seeded(seed: int | None) -> np.random.Generator | None:
    """The generator a module draws its initial values from; None when its
    values will be loaded instead."""
    return None if seed is None else np.random.default_rng(seed)


def init_normal(rng: np.random.Generator | None, std: float, shape: tuple[int, ...]) -> np.ndarray:
    """Initial values from N(0, std^2), or an unfilled placeholder when rng is None."""
    return np.empty(shape) if rng is None else rng.normal(0.0, std, size=shape)


# elements per block of `rowwise`: a block, and each row constant tiled to its
# shape, is 64 KiB of float64
ROW_BLOCK = 8192


def rowwise(x: np.ndarray, steps, out: np.ndarray | None = None) -> np.ndarray:
    """x (n, d) through a chain of (ufunc, row) steps, row (d,) or (1, d):
    out = x op0 row0, then out = out op row for each later step.

    The bits of the broadcast chain `out = x op0 row0; out op1= row1; ...`:
    each element meets the same ufuncs in the same order.  The chain runs
    over blocks of about ROW_BLOCK elements, whole rows, with each row
    constant tiled once to a block's shape, so each call gets same-shape
    contiguous operands and the block stays in cache through the chain
    (a broadcast calls its inner loop once per row).  Writes into `out`,
    which may be x itself, or into a new array.
    """
    n, d = x.shape
    rows = max(1, min(n, ROW_BLOCK // max(d, 1)))
    tiles = [(ufunc, np.repeat(np.reshape(row, (1, d)), rows, axis=0)) for ufunc, row in steps]
    if out is None:
        out = np.empty((n, d), np.result_type(x, *(tile for _, tile in tiles)))
    for start in range(0, n, rows):
        src, dst = x[start : start + rows], out[start : start + rows]
        if len(dst) < rows:  # a ragged last block: the tiles' first rows
            tiles = [(ufunc, tile[: len(dst)]) for ufunc, tile in tiles]
        for ufunc, tile in tiles:
            ufunc(src, tile, out=dst)
            src = dst
    return out


class Affine:
    """x (b, d_in) -> x @ weight + bias, weight (d_in, d_out).

    Pass bias=False when the output feeds straight into batch norm: the
    mean subtraction cancels a bias exactly, leaving a dead parameter.
    With rng None the weight is left unfilled for a loader to replace.
    """

    def __init__(
        self,
        d_in: int,
        d_out: int,
        rng: np.random.Generator | None,
        name: str = "affine",
        bias: bool = True,
    ):
        self.d_in = d_in
        self.d_out = d_out
        w = init_normal(rng, 1.0 / np.sqrt(d_in), (d_in, d_out))
        self.weight = Tensor(w, requires_grad=True, name=f"{name}.weight")
        self.bias = None
        if bias:
            self.bias = Tensor(np.zeros((1, d_out)), requires_grad=True, name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def params(self) -> list[Tensor]:
        return [self.weight] if self.bias is None else [self.weight, self.bias]


class BatchNorm:
    """Per-feature batch normalization over axis 0 of x (b, dim).

    Training mode normalizes by batch mean and biased variance (1/b) and
    drifts running statistics with momentum 0.1; eval mode applies the
    running statistics as constants.  Training needs b >= 2.  Model files
    store the running statistics under `name`, and gamma and beta under
    names derived from it.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, dim: int, name: str = "bn"):
        self.dim = dim
        self.name = name
        self.gamma = Tensor(np.ones((1, dim)), requires_grad=True, name=f"{name}.gamma")
        self.beta = Tensor(np.zeros((1, dim)), requires_grad=True, name=f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        parents = (x, self.gamma, self.beta)
        out, bw = self.normalize(x.values, training, recording(parents), x.requires_grad)
        return from_op(out, parents, bw)

    def normalize(self, x: np.ndarray, training: bool, record: bool, need_x: bool):
        """Values of one batch norm op on x (b, dim), and its backward when `record`.

        backward(g) -> (dx or None, dgamma, dbeta).  The values and the
        gradients are those of the composed chain (mean, center, variance,
        power -0.5, scale, shift) bit for bit: the same numpy calls in the
        same order, fan-in sums included.
        """
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeMismatchError(f"batch norm expects (b, {self.dim}), got {x.shape}")
        gamma, beta = self.gamma.values, self.beta.values
        if not training:
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            center = [(np.subtract, self.running_mean), (np.multiply, inv)]
            shift = [(np.multiply, gamma), (np.add, beta)]
            if not record:
                return rowwise(x, center + shift), None
            xhat = rowwise(x, center)
            out = rowwise(xhat, shift)

            def backward_eval(g):
                gx = (g * gamma) * inv if need_x else None
                return gx, unbroadcast(g * xhat, gamma.shape), unbroadcast(g, beta.shape)

            return out, backward_eval

        b = x.shape[0]
        if b < 2:
            raise BatchSizeError(f"batch norm needs at least 2 rows to train, got {b}")
        mean = x.mean(axis=0, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=0, keepdims=True)
        shifted = var + self.eps
        inv = shifted**-0.5
        xhat = centered * inv
        out = xhat * gamma
        out += beta
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * mean[0]
        self.running_var = (1.0 - m) * self.running_var + m * var[0]
        if not record:
            return out, None
        if not need_x:
            centered = inv = shifted = None  # backward reads only xhat

        def backward(g):
            gx = None
            if need_x:
                g_xhat = g * gamma
                g_inv = unbroadcast(g_xhat * centered, inv.shape)
                g_var = g_inv * -0.5 * shifted ** (-0.5 - 1.0)
                a = (g_var / b) * centered  # each operand of centered * centered
                g_centered = g_xhat * inv + a + a
                gx = g_centered + unbroadcast(-g_centered, mean.shape) / b
            return gx, unbroadcast(g * xhat, gamma.shape), unbroadcast(g, beta.shape)

        return out, backward

    def params(self) -> list[Tensor]:
        return [self.gamma, self.beta]


class Mlp:
    """affine -> batch norm -> relu -> affine (first affine bias-free)."""

    def __init__(
        self, d_in: int, hidden: int, d_out: int, rng: np.random.Generator | None, name: str = "mlp"
    ):
        self.fc1 = Affine(d_in, hidden, rng, name=f"{name}.fc1", bias=False)
        self.bn = BatchNorm(hidden, name=f"{name}.bn")
        self.fc2 = Affine(hidden, d_out, rng, name=f"{name}.fc2")

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return self.fc2(relu(self.bn(self.fc1(x), training)))

    def params(self) -> list[Tensor]:
        return self.fc1.params() + self.bn.params() + self.fc2.params()
