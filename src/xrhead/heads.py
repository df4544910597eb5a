"""Prediction heads over pooled part features and prompt features.

Shapes throughout: part features v (b, s, d) from attention pooling, prompt
features t (w, s, d) from the prompt bank, logits (b, w).

The relation-matrix heads flatten all part-to-prompt inner products into one
vector per image with the fixed layout

    flat[s * (S * W) + s2 * W + w] = v[s] . t[w, s2]

(s indexes image parts, s2 prompt parts, w classes).  Variant heads read
slices of that vector: the per-class diagonal (s == s2), the concatenation
of diagonals across classes, or the full per-class block.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .numerics import (
    BatchNorm,
    Mlp,
    Tensor,
    add,
    constant,
    gather,
    l2_normalize_rows,
    matmul,
    reshape,
    sum_axis,
    transpose,
)
from .numerics.layers import seeded


class HeadKind(str, enum.Enum):
    ALIGN = "ALIGN"
    PWCS = "PWCS"
    MLPS = "MLPS"
    CRM_FULL = "CRM_FULL"
    CRM_BASE = "CRM_BASE"
    CRM_XCLASS = "CRM_XCLASS"
    CRM_XPART = "CRM_XPART"

    @classmethod
    def parse(cls, name: str) -> "HeadKind":
        if not isinstance(name, str):
            raise ConfigError(f"a head kind must be a string, got {name!r}")
        try:
            return cls(name.upper())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ConfigError(f"unknown head kind {name!r}, expected one of {valid}") from None


CRM_KINDS = (HeadKind.CRM_FULL, HeadKind.CRM_BASE, HeadKind.CRM_XCLASS, HeadKind.CRM_XPART)
# the relation heads whose classifier scores one class at a time
PER_CLASS_KINDS = (HeadKind.CRM_BASE, HeadKind.CRM_XPART)


def _check_pair(v: Tensor, t: Tensor):
    if v.values.ndim != 3:
        raise ShapeMismatchError(f"part features must be (b, s, d), got {v.values.shape}")
    if t.values.ndim != 3:
        raise ShapeMismatchError(f"prompt features must be (w, s, d), got {t.values.shape}")
    b, s, d = v.values.shape
    w, s2, d2 = t.values.shape
    if s != s2 or d != d2:
        raise ShapeMismatchError(
            f"part features {v.values.shape} and prompt features {t.values.shape} disagree"
        )
    return b, s, d, w


def relation_batch(v: Tensor, t: Tensor) -> Tensor:
    """(b, s, d) x (w, s, d) -> (b, s*s*w) with the documented flat layout."""
    b, s, d, w = _check_pair(v, t)
    # prompt rows in (s2 outer, w inner) order, so a plain matmul + reshape
    # lands every product at flat[s * (s*w) + s2 * w + w_idx]
    trows = reshape(transpose(t, (1, 0, 2)), (s * w, d))
    products = matmul(reshape(v, (b * s, d)), transpose(trows, (1, 0)))  # (b*s, s*w)
    return reshape(products, (b, s * s * w))


def pwcs_batch(v: Tensor, t: Tensor) -> Tensor:
    """Mean per-part cosine similarity: (b, s, d) x (w, s, d) -> (b, w)."""
    b, s, d, w = _check_pair(v, t)
    vn, tn = l2_normalize_rows(v), l2_normalize_rows(t)
    # one product per part: (s, b, d) @ (s, d, w), then the parts summed in order
    sims = matmul(transpose(vn, (1, 0, 2)), transpose(tn, (1, 2, 0)))
    return sum_axis(sims, 0) * (1.0 / s)


# --- heads ---------------------------------------------------------------------
#
# A head's whole contract: logits(v, t, training) -> (b, w), scorer(t) (the
# eval-mode v -> logits for fixed prompt features), params() (named leaf
# tensors) and batch_norms() (a list; model files store each norm under its
# own name).  Heads whose logits are cosines in [-1, 1] set cosine_logits,
# and training scales those logits by a fixed temperature.


class Head:
    """The default eval scorer: the eval-mode logits as they are."""

    def scorer(self, t: Tensor | None) -> Callable[[Tensor], Tensor]:
        """Eval-mode v (b, s, d) -> logits (b, w) for the prompt features t,
        which stay fixed while the scorer is in use."""
        return lambda v: self.logits(v, t, training=False)


class PwcsHead(Head):
    """Parameter-free mean per-part cosine head; ALIGN is this head at num_parts == 1."""

    cosine_logits = True

    def logits(self, v: Tensor, t: Tensor, training: bool) -> Tensor:
        return pwcs_batch(v, t)

    def params(self) -> list[Tensor]:
        return []

    def batch_norms(self) -> list[BatchNorm]:
        return []


class MlpsHead(Head):
    """Baseline without prompts: one MLP per part, logits averaged."""

    cosine_logits = False

    def __init__(
        self, num_classes: int, num_parts: int, feat_dim: int, hidden: int, seed: int | None
    ):
        self.num_parts = num_parts
        self.feat_dim = feat_dim
        rng = seeded(seed)
        self.mlps = [
            Mlp(feat_dim, hidden, num_classes, rng, name=f"head.part{i}") for i in range(num_parts)
        ]

    def logits(self, v: Tensor, t: Tensor | None, training: bool) -> Tensor:
        b, s, d = v.values.shape
        if s != self.num_parts or d != self.feat_dim:
            raise ShapeMismatchError(
                f"expected (b, {self.num_parts}, {self.feat_dim}), got {v.values.shape}"
            )
        flat = reshape(v, (b * s, d))
        acc = None
        for part, mlp in enumerate(self.mlps):
            out = mlp(gather(flat, np.arange(b) * s + part, 0), training)
            acc = out if acc is None else add(acc, out)
        return acc * (1.0 / s)

    def params(self) -> list[Tensor]:
        return [p for mlp in self.mlps for p in mlp.params()]

    def batch_norms(self) -> list[BatchNorm]:
        return [mlp.bn for mlp in self.mlps]


class CrmHead(Head):
    """Relation-matrix heads: a classifier over flattened inner products.

    The variants are the 2x2 of cross-part products (s != s2) and one
    classifier across all classes:

    FULL    one classifier on the whole vector, s*s*w -> w
    BASE    shared classifier on each class diagonal, s -> 1
    XCLASS  one classifier on concatenated diagonals, s*w -> w
    XPART   shared classifier on each full class block, s*s -> 1
    """

    cosine_logits = False

    def __init__(
        self, kind: HeadKind, num_classes: int, num_parts: int, hidden: int, seed: int | None
    ):
        if kind not in CRM_KINDS:
            raise ConfigError(f"{kind} is not a relation-matrix head")
        self.kind = kind
        self.num_classes = num_classes
        self.num_parts = num_parts
        w, s = num_classes, num_parts
        # class-major: pick[(w_idx * s + s_idx) * s + s2] = (s_idx, s2, w_idx)
        w_idx, s_idx, s2 = np.unravel_index(np.arange(w * s * s), (w, s, s))
        pick = s_idx * (s * w) + s2 * w + w_idx
        if kind in (HeadKind.CRM_BASE, HeadKind.CRM_XCLASS):
            pick = pick[s_idx == s2]
        # FULL reads the vector as it is: a gather would only copy it
        self.pick = None if kind == HeadKind.CRM_FULL else pick
        self.per_class = kind in PER_CLASS_KINDS
        d_in, d_out = (pick.size // w, 1) if self.per_class else (pick.size, w)
        self.clf = Mlp(d_in, hidden, d_out, seeded(seed), name="head.clf")

    def logits_from_relation(self, flat: Tensor, training: bool) -> Tensor:
        """flat (b, s*s*w) -> logits (b, w)."""
        b = flat.values.shape[0]
        w, s = self.num_classes, self.num_parts
        if flat.values.shape != (b, s * s * w):
            raise ShapeMismatchError(
                f"expected relation vectors (b, {s * s * w}), got {flat.values.shape}"
            )
        if self.pick is not None:
            flat = gather(flat, self.pick, 1)
        if not self.per_class:
            return self.clf(flat, training)
        scores = self.clf(reshape(flat, (b * w, self.pick.size // w)), training)
        return reshape(scores, (b, w))

    def logits(self, v: Tensor, t: Tensor, training: bool) -> Tensor:
        flat = relation_batch(v, t)
        return self.logits_from_relation(flat, training)

    def scorer(self, t: Tensor) -> Callable[[Tensor], Tensor]:
        """Eval-mode v -> logits for the prompt features t, folded for
        CRM_FULL.

        In eval mode t and batch norm's running statistics are constants, so
        the relation product, fc1 and batch norm are three linear maps in a
        row.  Block s of the folded weight, the rows image part s meets, is
        trows^T @ fc1.weight[s*S*W : (s+1)*S*W] (trows in relation_batch's
        row order) times batch norm's scale gamma / sqrt(running_var + eps);
        the bias is beta - running_mean * scale.  The folded logits equal the
        unfolded chain's up to rounding, not bit for bit.  Folding pays at
        every shape measured, fewer flops or not (S 1, 2 and 4 at W 20,
        d 64; W 6, S 4, d 32): it drops the relation array and the batch-norm
        pass from every chunk.
        """
        w, s = self.num_classes, self.num_parts
        fc1, bn = self.clf.fc1, self.clf.bn
        d = t.values.shape[2]
        if self.kind != HeadKind.CRM_FULL:
            return super().scorer(t)
        trows = t.values.transpose(1, 0, 2).reshape(s * w, d)
        blocks = trows.T @ fc1.weight.values.reshape(s, s * w, bn.dim)  # (s, d, hidden)
        scale = bn.gamma.values / np.sqrt(bn.running_var + bn.eps)
        weight = blocks.reshape(s * d, bn.dim) * scale
        bias = bn.beta.values - bn.running_mean * scale

        def score(v: Tensor) -> Tensor:
            b = _check_pair(v, t)[0]
            h = v.values.reshape(b, s * d) @ weight
            h += bias
            np.maximum(h, 0.0, out=h)  # relu in place: one (b, hidden) array per chunk
            return self.clf.fc2(constant(h))

        return score

    def params(self) -> list[Tensor]:
        return self.clf.params()

    def batch_norms(self) -> list[BatchNorm]:
        return [self.clf.bn]


def check_head_parts(kind: HeadKind, num_parts: int) -> None:
    """ALIGN is PWCS at one part; every other kind takes any part count."""
    if kind == HeadKind.ALIGN and num_parts != 1:
        raise ConfigError(f"ALIGN needs num_parts == 1, got {num_parts}")


def build_head(kind: HeadKind, num_classes: int, num_parts: int, feat_dim: int, seed: int | None):
    """Construct any head kind.  The classifier is 4 * num_parts wide for the
    heads that score one class at a time (CRM_BASE, CRM_XPART), else 512.

    seed None leaves the classifier weights unfilled, for a loader to replace.
    """
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    hidden = 4 * num_parts if kind in PER_CLASS_KINDS else 512
    check_head_parts(kind, num_parts)
    if kind in (HeadKind.ALIGN, HeadKind.PWCS):
        return PwcsHead()
    if kind == HeadKind.MLPS:
        return MlpsHead(num_classes, num_parts, feat_dim, hidden, seed)
    return CrmHead(kind, num_classes, num_parts, hidden, seed)
