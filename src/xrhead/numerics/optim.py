"""SGD with momentum, weight decay and a cosine schedule."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from .tensor import Tensor

# Elements per update block: 256 KB per float64 array, so one block of the
# values, the gradients, the momentum and the scratch stays in cache across
# the update's six passes.
BLOCK = 32_768


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi * epoch / total_epochs))."""
    if total_epochs <= 0:
        raise ConfigError(f"total_epochs must be positive, got {total_epochs}")
    if epoch < 0 or epoch > total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


class Sgd:
    """v <- momentum * v + (grad + weight_decay * w);  w <- w - lr * v.

    The parameters are named leaf tensors that track gradients.
    Construction packs every parameter's .values into one flat array and
    gives each parameter an adjoint in a second, zero-filled one, `grads`,
    copying the gradient a parameter already holds; both follow list order,
    and views take the parameters' places one parameter at a time, so that
    no second copy of all the values is alive at once.  The momentum v is a
    third flat array, `velocity`.  Code that reads or writes through .values
    and .grad sees no difference.  Setting each .grad to None once training
    ends leaves the parameters holding their values only.
    """

    # the values every head trains with
    weight_decay = 1e-4
    momentum = 0.9

    def __init__(self, params: list[Tensor]):
        params = tuple(params)
        for p in params:
            if not p.requires_grad or p._parents:
                raise ConfigError(f"parameter {p.name} does not track gradients or is not a leaf")
        size = sum(p.values.size for p in params)
        self.values = np.empty(size)
        self.grads = np.zeros(size)
        self.velocity = np.empty(size)  # written whole by the first step
        self._scratch = np.empty(min(BLOCK, size))
        self._stepped = False
        start = 0
        for p in params:
            stop = start + p.values.size
            view = self.values[start:stop].reshape(p.values.shape)
            view[...] = p.values
            p.values = view
            view = self.grads[start:stop].reshape(p.values.shape)
            if p.grad is not None:
                view[...] = p.grad
            p.grad = view
            start = stop
        self._packed = tuple((p, p.values, p.grad) for p in params)

    def _check_views(self) -> None:
        for p, values, grad in self._packed:
            if p.values is not values or p.grad is not grad:
                raise ConfigError(f"parameter {p.name} no longer uses the optimizer's arrays")

    def step(self, lr: float) -> None:
        """Update in place at learning rate lr, block by block; per element,
        the operations and their order match the formula above."""
        self._check_views()
        for start in range(0, self.values.size, BLOCK):
            w = self.values[start : start + BLOCK]
            v = self.velocity[start : start + BLOCK]
            g = self._scratch[: w.size]
            np.multiply(w, self.weight_decay, out=g)
            np.add(self.grads[start : start + BLOCK], g, out=g)
            if self._stepped:
                v *= self.momentum
                v += g
            else:
                v[...] = g
            np.multiply(v, lr, out=g)
            w -= g
        self._stepped = True

    def zero_grads(self) -> None:
        self._check_views()
        self.grads.fill(0.0)
