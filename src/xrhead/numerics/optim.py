"""Named parameters and SGD with momentum, weight decay and a cosine schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .tensor import Tensor

# Elements per update block: 256 KB per float64 array, so one block of the
# values, the gradients, the momentum and the scratch stays in cache across
# the update's six passes.
BLOCK = 32_768


@dataclass
class Parameter:
    name: str
    tensor: Tensor


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi * epoch / total_epochs))."""
    if total_epochs <= 0:
        raise ConfigError(f"total_epochs must be positive, got {total_epochs}")
    if epoch < 0 or epoch > total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


class Arena:
    """One flat array each for the values, the gradients and the momentum.

    Packing moves every parameter's .values and .grad into the flat arrays,
    in list order, and leaves views in their place, one parameter at a time
    so that no second copy of all the arrays is alive at once.  Code that
    reads or writes through .values and .grad sees no difference.
    """

    def __init__(self, params: list[Parameter]):
        for p in params:
            if p.tensor.grad is None:
                raise ConfigError(f"parameter {p.name} does not track gradients")
        size = sum(p.tensor.values.size for p in params)
        self.params = tuple(params)
        self.values = np.empty(size)
        self.grads = np.empty(size)
        self.momentum = np.empty(size)  # written whole by the first step
        self.scratch = np.empty(min(BLOCK, size))
        self.stepped = False
        start = 0
        for p in params:
            t = p.tensor
            stop = start + t.values.size
            view = self.values[start:stop].reshape(t.values.shape)
            view[...] = t.values
            t.values = view
            view = self.grads[start:stop].reshape(t.grad.shape)
            view[...] = t.grad
            t.grad = view
            start = stop
        self._views = tuple((p.tensor.values, p.tensor.grad) for p in params)

    def holds(self, params: list[Parameter]) -> bool:
        """True when params are the packed parameters, still on their views."""
        return len(params) == len(self.params) and all(
            p is q and p.tensor.values is v and p.tensor.grad is g
            for p, q, (v, g) in zip(params, self.params, self._views)
        )


@dataclass
class Sgd:
    """v <- momentum * v + (grad + weight_decay * w);  w <- w - lr * v.

    The first zero_grads or step packs its parameters into an Arena; every
    later call must pass the same parameters.
    """

    lr0: float
    weight_decay: float = 0.0
    momentum: float = 0.0
    total_epochs: int = 1
    epoch: int = 0
    arena: Arena | None = field(default=None, init=False, repr=False, compare=False)

    def lr(self) -> float:
        return cosine_lr(self.epoch, self.total_epochs, self.lr0)

    def _arena(self, params: list[Parameter]) -> Arena:
        if self.arena is None:
            self.arena = Arena(params)
        elif not self.arena.holds(params):
            raise ConfigError("Sgd updates the parameters of its first call; got others")
        return self.arena

    def step(self, params: list[Parameter]) -> None:
        """Update in place, block by block; per element, the operations and
        their order match the formula above."""
        a = self._arena(params)
        lr = self.lr()
        for start in range(0, a.values.size, BLOCK):
            w = a.values[start : start + BLOCK]
            v = a.momentum[start : start + BLOCK]
            g = a.scratch[: w.size]
            np.multiply(w, self.weight_decay, out=g)
            np.add(a.grads[start : start + BLOCK], g, out=g)
            if a.stepped:
                v *= self.momentum
                v += g
            else:
                v[...] = g
            np.multiply(v, lr, out=g)
            w -= g
        a.stepped = True

    def zero_grads(self, params: list[Parameter]) -> None:
        self._arena(params).grads.fill(0.0)
