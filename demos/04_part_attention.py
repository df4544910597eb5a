"""
Unified part attention over image tokens
========================================

One attention module scores every token against S part slots plus one
background slot, softmaxes across slots, and pools projected tokens into S
part features. The pooled block is rescaled to a fixed Frobenius norm so
downstream inner products live on a stable scale.
"""

import numpy as np

from xrhead.attention import PartAttention
from xrhead.numerics import constant

B, N, D, S = 4, 12, 16, 3  # images, tokens, token dim, parts
rng = np.random.default_rng(0)
tokens = constant(rng.standard_normal((B, N, D)))

attn = PartAttention(feat_dim=D, num_parts=S, seed=5)

# attention rows are distributions over (background, part 1..S)
parts, weights = attn.forward(tokens, training=False)
weights = weights.values
print(f"weights         {weights.shape}  (B, N, S + 1)")
print(f"rows sum to 1   max |sum - 1| = {np.abs(weights.sum(axis=2) - 1).max():.2e}")
print(f"first image, first 4 tokens:")
for row in weights[0, :4]:
    print("   ", "  ".join(f"{v:.3f}" for v in row))

# pooling: weighted sums of projected tokens, one feature row per part
print(f"part features   {parts.values.shape}  (B, S, feat_dim)")

# every image's part block lands exactly on the tau = 64 sphere
norms = np.sqrt((parts.values ** 2).sum(axis=(1, 2)))
print(f"Frobenius norms {np.array2string(norms, precision=6)}")
