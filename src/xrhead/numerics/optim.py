"""Named parameters and SGD with momentum, weight decay and a cosine schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .tensor import Tensor


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


@dataclass
class Sgd:
    """v <- momentum * v + (grad + weight_decay * w);  w <- w - lr * v."""

    lr0: float
    weight_decay: float = 0.0
    momentum: float = 0.0
    total_epochs: int = 1
    epoch: int = 0
    velocities: dict[int, np.ndarray] = field(default_factory=dict)
    # per-parameter work array for the decayed gradient, then lr * v
    _work: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def lr(self) -> float:
        return cosine_lr(self.epoch, self.total_epochs, self.lr0)

    def step(self, params: list[Parameter]) -> None:
        """Update in place; the operations and their order match the formula above."""
        lr = self.lr()
        for p in params:
            t = p.tensor
            if t.grad is None:
                raise ConfigError(f"parameter {p.name} does not track gradients")
            g = self._work.get(id(p))
            if g is None:
                g = self._work[id(p)] = np.empty_like(t.values)
            np.multiply(t.values, self.weight_decay, out=g)
            np.add(t.grad, g, out=g)
            v = self.velocities.get(id(p))
            if v is None:
                self.velocities[id(p)] = v = g.copy()
            else:
                v *= self.momentum
                v += g
            np.multiply(v, lr, out=g)
            t.values -= g

    def zero_grads(self, params: list[Parameter]) -> None:
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad[...] = 0.0
