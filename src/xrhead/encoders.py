"""Frozen encoder stand-ins and the feature file format.

Real vision-language towers are out of scope; these stubs are seeded,
deterministic, and cheap, with just enough structure to behave like fixed
feature extractors.  The text stub is differentiable with respect to its
context rows so gradients can reach learnable prompt vectors; its own
weights never train.  The image stub is forward-only numpy.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .container import check_arrays, pack, unpack
from .errors import FormatError, ShapeMismatchError
from .numerics import Tensor
from .numerics.layers import rowwise
from .numerics.tensor import from_op, recording
from .report import write_atomic

FEATURE_MAGIC = b"XRVF"
FEATURE_VERSION = 2


def checksum(*arrays: np.ndarray) -> str:
    """SHA-256 hex digest over the C-order bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class FrozenTextEncoder:
    """Positional add, mean pool over positions, then affine-tanh-affine.

    encode: context rows (..., num_positions - 1, word_dim) and one closing
    row (..., word_dim) per sequence -> features (..., feat_dim),
    differentiable w.r.t. the context rows only.
    """

    def __init__(self, seed: int, word_dim: int, feat_dim: int, num_positions: int):
        self.seed = seed
        self.word_dim = word_dim
        self.feat_dim = feat_dim
        self.num_positions = num_positions
        rng = np.random.default_rng(seed)
        self._positions = rng.normal(0.0, 0.02, size=(num_positions, word_dim))
        self._w1 = rng.normal(0.0, 1.0 / np.sqrt(word_dim), size=(word_dim, feat_dim))
        self._b1 = rng.normal(0.0, 0.01, size=(1, feat_dim))
        self._w2 = rng.normal(0.0, 1.0 / np.sqrt(feat_dim), size=(feat_dim, feat_dim))
        self._b2 = rng.normal(0.0, 0.01, size=(1, feat_dim))

    def encode(self, context: Tensor, closing: np.ndarray) -> Tensor:
        """One tape op over the context rows; the closing rows are constants.

        Its values and its backward are those of the composed chain kept in
        tests/bruteforce.py (concat, add, mean, affine, tanh, affine), bit
        for bit: the same numpy calls in the same order, on the whole
        (n, num_positions, word_dim) sequences written into one fresh array.
        """
        m, d = self.num_positions - 1, self.word_dim
        shape = context.values.shape
        if shape[-2:] != (m, d):
            raise ShapeMismatchError(f"expected context (..., {m}, {d}), got {shape}")
        closing = np.asarray(closing, dtype=np.float64)
        lead = shape[:-2]
        if closing.shape != lead + (d,):
            raise ShapeMismatchError(
                f"expected closing rows {lead + (d,)} for context {shape}, got {closing.shape}"
            )
        seq = np.empty(lead + (m + 1, d))
        np.add(context.values, self._positions[:m], out=seq[..., :m, :])
        np.add(closing, self._positions[m], out=seq[..., m, :])
        pooled = seq.reshape(-1, m + 1, d).mean(axis=1)
        h = pooled @ self._w1
        h += self._b1
        h = np.tanh(h)
        out = h @ self._w2
        out += self._b2
        out = out.reshape(lead + (self.feat_dim,))
        if not recording((context,)):
            return from_op(out, (context,), None)

        def backward(g):
            g_h = g.reshape(-1, self.feat_dim) @ self._w2.T
            g_pre = g_h * (1.0 - h * h)
            g_pooled = g_pre @ self._w1.T
            rows = g_pooled.reshape(lead + (1, d)) / self.num_positions
            return (np.broadcast_to(rows, shape),)

        return from_op(out, (context,), backward)

    def checksum(self) -> str:
        return checksum(self._positions, self._w1, self._b1, self._w2, self._b2)


class FrozenImageEncoder:
    """Per-patch affine + tanh: patches (..., patch_dim) -> (..., feat_dim)."""

    def __init__(self, seed: int, patch_dim: int, feat_dim: int):
        self.seed = seed
        self.patch_dim = patch_dim
        self.feat_dim = feat_dim
        rng = np.random.default_rng(seed)
        self._w = rng.normal(0.0, 1.0 / np.sqrt(patch_dim), size=(patch_dim, feat_dim))
        self._b = rng.normal(0.0, 0.01, size=feat_dim)

    def encode(self, patches: np.ndarray) -> np.ndarray:
        patches = np.asarray(patches, dtype=np.float64)
        if patches.shape[-1] != self.patch_dim:
            raise ShapeMismatchError(
                f"expected patches (..., {self.patch_dim}), got {patches.shape}"
            )
        # one output array, updated in place: fewer large temporaries per call
        out = patches @ self._w
        rows = out.reshape(-1, self.feat_dim)  # a view: matmul's result is C-ordered
        rowwise(rows, [(np.add, self._b)], out=rows)
        return np.tanh(out, out=out)

    def checksum(self) -> str:
        return checksum(self._w, self._b)


# --- feature files -----------------------------------------------------------


def save_features(path: str, values: np.ndarray, metadata: dict | None = None) -> None:
    """Write one f32 array named "features" plus JSON metadata (class/part names etc.)."""
    try:
        values = np.asarray(values)
    except ValueError as err:  # a ragged nested list
        raise FormatError(f"features are not one rectangular array: {err}") from None
    arrays = [("features", values, "<f4")]
    write_atomic(path, pack(FEATURE_MAGIC, FEATURE_VERSION, arrays, metadata or {}))


def load_features(path: str) -> tuple[np.ndarray, dict]:
    """Read a feature file back as (float64 array, metadata dict)."""
    with open(path, "rb") as f:
        arrays, meta = unpack(f, FEATURE_MAGIC, FEATURE_VERSION, "feature array")
    check_arrays(arrays, {"features": None}, "feature array")
    return arrays["features"], meta
