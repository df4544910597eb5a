"""Central-difference gradient checking for tape-built losses."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigError, NumericError
from .tensor import Tensor, backward, no_grad

# the central difference's step on each coordinate
EPS = 1e-5


def finite_diff_check(
    loss_fn: Callable[[], Tensor],
    params: list[Tensor],
    max_coords_per_param: int | None = None,
) -> dict[str, float]:
    """Compare analytic and central-difference gradients per parameter.

    params are leaf tensors with distinct names.  loss_fn must rebuild the
    forward pass from current parameter values on every call and be
    deterministic; its loss may have any shape of size 1, as for backward.
    Returns the max relative error per parameter name, with relative error
    |a - n| / max(|a|, |n|, 1e-8).
    When a parameter has more coordinates than max_coords_per_param, a
    subset drawn from np.random.default_rng(0) is checked; None checks
    every coordinate.
    """
    if max_coords_per_param is not None and max_coords_per_param < 1:
        raise ConfigError(f"need max_coords_per_param >= 1, got {max_coords_per_param}")
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ConfigError(f"parameter names must be distinct, got {names}")
    for p in params:
        if p.grad is not None:
            p.grad[...] = 0.0
    loss = loss_fn()
    if not np.all(np.isfinite(loss.values)):
        raise NumericError("loss_fn returned a non-finite loss")
    backward(loss)
    # a parameter the loss never reaches has no adjoint: its gradient is zero
    analytic = {
        p.name: np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params
    }

    rng = np.random.default_rng(0)
    worst: dict[str, float] = {}
    for p in params:
        flat = p.values.reshape(-1)
        a_flat = analytic[p.name].reshape(-1)
        n_coords = flat.size
        if max_coords_per_param is not None and n_coords > max_coords_per_param:
            coords = rng.choice(n_coords, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(n_coords)
        err = 0.0
        for i in coords:
            keep = flat[i]
            flat[i] = keep + EPS
            with no_grad():
                up = loss_fn().values.item()
            flat[i] = keep - EPS
            with no_grad():
                down = loss_fn().values.item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * EPS)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            err = max(err, rel)
        worst[p.name] = err
    return worst
