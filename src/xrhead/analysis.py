"""Post-hoc array analyses: class-embedding geometry and attention-to-part agreement.

Pure functions of numpy arrays; they train and load nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def _rows(embeddings: np.ndarray, least: int) -> np.ndarray:
    """embeddings as finite float64 rows (classes, dim), at least `least` of them."""
    emb = np.asarray(embeddings)
    if emb.dtype.kind not in "biuf":
        raise DataError(f"embeddings must be numeric, got dtype {emb.dtype}")
    if emb.ndim != 2 or emb.shape[0] < least:
        raise DataError(f"need at least {least} embeddings (rows), got shape {emb.shape}")
    if not np.isfinite(emb).all():
        raise DataError("embeddings must be finite")
    return np.asarray(emb, dtype=np.float64)


def analyze_embeddings(embeddings: np.ndarray, bins: int = 10) -> dict:
    """Nearest-neighbor distance structure of row vectors (classes, dim)."""
    emb = _rows(embeddings, 2)
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)):
        raise DataError(f"bins must be an integer, got {bins!r}")
    if bins < 1:
        raise DataError(f"need bins >= 1, got {bins}")
    diff = emb[:, None, :] - emb[None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    np.fill_diagonal(d2, np.inf)
    min_d = np.sqrt(np.min(d2, axis=1))
    counts, edges = np.histogram(min_d, bins=bins)
    return {
        "min_distances": min_d,
        "counts": counts,
        "edges": edges,
        "mean": float(np.mean(min_d)),
        "median": float(np.median(min_d)),
    }


def project_2d(embeddings: np.ndarray) -> np.ndarray:
    """Top-2 principal-component coordinates (classes, 2).

    Rank-deficient input pads missing components with zeros.  Sign convention:
    within each component the largest-magnitude coordinate is positive.
    """
    emb = _rows(embeddings, 3)
    centered = emb - emb.mean(axis=0, keepdims=True)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    k = min(2, s.size)
    coords = np.zeros((emb.shape[0], 2))
    coords[:, :k] = u[:, :k] * s[:k]
    for j in range(2):
        pivot = np.argmax(np.abs(coords[:, j]))
        if coords[pivot, j] < 0:
            coords[:, j] = -coords[:, j]
    return coords


def mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """MI in nats between two equal-length arrays of class indices (integers >= 0)."""
    x, y = np.ravel(x), np.ravel(y)
    if x.shape != y.shape or x.size == 0:
        raise DataError(f"labels must be equal-length and nonempty, got {x.shape}, {y.shape}")
    if x.dtype.kind not in "iu" or y.dtype.kind not in "iu":
        raise DataError(f"labels must be integers, got dtypes {x.dtype}, {y.dtype}")
    if x.min() < 0 or y.min() < 0:
        raise IndexError("labels must be >= 0")
    joint = np.zeros((int(x.max()) + 1, int(y.max()) + 1))
    np.add.at(joint, (x, y), 1.0)
    p = joint / x.size
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / (px @ py)[nz])))


def attention_alignment(samples: list[dict]) -> dict:
    """Dominant-slot vs ground-truth part id MI, against a permuted baseline."""
    if not samples:
        raise DataError("no samples")
    dominant = np.concatenate([np.argmax(s["weights"], axis=1) for s in samples])
    truth = np.concatenate([np.asarray(s["part_ids"]) for s in samples])
    permuted = np.random.default_rng(0).permutation(truth)
    return {
        "mutual_information": mutual_information(dominant, truth),
        "permuted_mutual_information": mutual_information(dominant, permuted),
    }
