"""Token-to-part attention pooling.

Tokens are scored against num_parts + 1 slots (the extra slot absorbs
background), each token's scores are softmax-normalized, and the first
num_parts columns pool a projection of the tokens into per-part features.
Every image's pooled block is then rescaled to the fixed Frobenius norm TAU
so downstream inner products live on a stable scale.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeMismatchError
from .numerics import Affine, BatchNorm, Tensor
from .numerics.layers import rowwise, seeded
from .numerics.tensor import from_op, recording, unbroadcast

# tau: the Frobenius norm of every image's pooled part block
TAU = 64.0


class PartAttention:
    """batch norm -> affine scores -> relu -> row softmax -> pooled projection."""

    def __init__(self, feat_dim: int, num_parts: int, seed: int | None):
        """seed None leaves the affine weights unfilled, for a loader to replace."""
        if num_parts < 1:
            raise ConfigError(f"need num_parts >= 1, got {num_parts}")
        self.feat_dim = feat_dim
        self.num_parts = num_parts
        rng = seeded(seed)
        self.bn = BatchNorm(feat_dim, name="attn.bn")
        self.score = Affine(feat_dim, num_parts + 1, rng, name="attn.score")
        self.proj = Affine(feat_dim, feat_dim, rng, name="attn.proj")

    def params(self) -> list[Tensor]:
        return self.bn.params() + self.score.params() + self.proj.params()

    def forward(self, tokens: Tensor, training: bool) -> tuple[Tensor, Tensor]:
        """tokens (b, n, feat_dim) -> (parts (b, num_parts, feat_dim), weights).

        Part features are the attention-weighted sums of projected tokens,
        rescaled per image to Frobenius norm TAU.  The parts are one tape
        op over the tokens and the six parameters; its backward repeats, bit
        for bit, the gradients of the composed chain kept in
        tests/bruteforce.py.  The weights are values only.
        """
        b, n, f = self._check(tokens)
        s = self.num_parts
        gamma, beta = self.bn.gamma, self.bn.beta
        ws, bs = self.score.weight, self.score.bias
        wp, bp = self.proj.weight, self.proj.bias
        parents = (tokens, gamma, beta, ws, bs, wp, bp)
        record = recording(parents)
        need_x = record and tokens.requires_grad

        flat = tokens.values.reshape(b * n, f)
        normed, bn_backward = self.bn.normalize(flat, training, record, need_x)
        weights = normed @ ws.values
        if not record:
            normed = None  # only the backward reads it: free it before the projection
        weights += bs.values
        active = weights > 0.0 if record else None  # relu subgradient 0 at the kink
        np.maximum(weights, 0.0, out=weights)
        # the row max, one column at a time, without max(axis=1)'s per-row
        # calls: a max is exact, so the softmax keeps its bits at every width
        top = weights[:, 0].copy()
        for j in range(1, s + 1):
            np.maximum(top, weights[:, j], out=top)
        weights -= top[:, None]
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
        picked = np.ascontiguousarray(weights[:, :s]).reshape(b, n, s)
        projected = flat @ wp.values
        rowwise(projected, [(np.add, bp.values)], out=projected)
        projected = projected.reshape(b, n, f)
        pooled = picked.swapaxes(-1, -2) @ projected  # (b, s, f)

        total = (pooled * pooled).reshape(b, s * f).sum(axis=1, keepdims=True)
        if np.any(total == 0.0):
            raise DegenerateInputError("pooled part features have zero norm")
        denom = total**0.5
        factor = (TAU / denom).reshape(b, 1, 1)
        slots = Tensor(weights.reshape(b, n, s + 1))
        if not record:
            pooled *= factor
            return from_op(pooled, parents, None), slots

        def backward(g):
            # rescale: pooled feeds the product and, twice, its own square
            g_factor = unbroadcast(g * pooled, factor.shape).reshape(b, 1)
            g_denom = -g_factor * TAU / (denom * denom)
            g_total = g_denom * 0.5 * total ** (0.5 - 1.0)
            sq = g_total.reshape(b, 1, 1) * pooled
            g_pooled = g * factor + sq + sq
            # pooling product, part pick, softmax, relu
            g_weights = np.zeros_like(weights)
            g_picked = (g_pooled @ projected.swapaxes(-1, -2)).swapaxes(-1, -2)
            g_weights.reshape(b, n, s + 1)[:, :, :s] = g_picked
            g_scores = weights * (g_weights - (g_weights * weights).sum(axis=1, keepdims=True))
            g_scores *= active
            g_proj = (picked @ g_pooled).reshape(b * n, f)
            g_normed = g_scores @ ws.values.T
            g_flat, g_gamma, g_beta = bn_backward(g_normed)
            g_tokens = None
            if need_x:
                g_tokens = (g_flat + g_proj @ wp.values.T).reshape(b, n, f)
            return (
                g_tokens,
                g_gamma,
                g_beta,
                normed.T @ g_scores,
                unbroadcast(g_scores, bs.values.shape),
                flat.T @ g_proj,
                unbroadcast(g_proj, bp.values.shape),
            )

        return from_op(pooled * factor, parents, backward), slots

    def _check(self, tokens: Tensor):
        if tokens.values.ndim != 3 or tokens.values.shape[2] != self.feat_dim:
            raise ShapeMismatchError(
                f"expected tokens (b, n, {self.feat_dim}), got {tokens.values.shape}"
            )
        return tokens.values.shape
