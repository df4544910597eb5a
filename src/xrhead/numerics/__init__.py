"""Tensor autodiff core: primitives, layers, optimizer, gradient checking."""

from .gradcheck import finite_diff_check
from .layers import Affine, BatchNorm, Mlp
from .optim import Sgd, cosine_lr
from .tensor import (
    Tensor,
    add,
    affine,
    backward,
    constant,
    cross_entropy,
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

__all__ = [
    "Affine",
    "BatchNorm",
    "Mlp",
    "Sgd",
    "Tensor",
    "add",
    "affine",
    "backward",
    "constant",
    "cosine_lr",
    "cross_entropy",
    "finite_diff_check",
    "gather",
    "l2_normalize_rows",
    "matmul",
    "mul",
    "no_grad",
    "relu",
    "reshape",
    "sum_axis",
    "transpose",
    "tsum",
]
