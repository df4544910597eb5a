"""
Cross-relationship scoring and its baselines
============================================

Given part features V (S rows) and prompt features T (one row per class and
part), the relation vector collects every inner product <V[s], T[w, s2]>,
including the cross terms s != s2. A trainable classifier over that vector
is the full head; the baselines restrict what it may look at.
"""

import numpy as np

from xrhead.heads import CrmHead, HeadKind, build_head, pwcs_batch, relation_batch
from xrhead.numerics import Tensor

# worked example: one image with 2 parts, 2 classes, identity part features.
# Class 0's prompts match parts in order; class 1's prompts are swapped.
# Every head takes a batch of images, here a batch of one.
v = np.eye(2)[None]
t = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
flat = relation_batch(Tensor(v), Tensor(t)).values[0]
print(f"relation vector {flat}  length S*S*W = {flat.size}")

# layout: flat[s * (S * W) + s2 * W + w]; the cross terms expose the swap
print("entries (s, s2, w) -> value:")
for s in range(2):
    for s2 in range(2):
        for w in range(2):
            idx = s * (2 * 2) + s2 * 2 + w
            print(f"    ({s}, {s2}, {w}) at {idx}: {flat[idx]:+.1f}")

# part-wise cosine scoring averages only the s == s2 diagonal, so class 1
# scores 0 although its prompts hold the same features, paired the other
# way; only the cross terms above see that pairing
logits = pwcs_batch(Tensor(v), Tensor(t)).values[0]
print(f"pwcs logits     {logits}  (diagonal only: class 1's swap reads as no match)")

# with one part, part-wise scoring is the plain cosine baseline: ALIGN is
# the PWCS head at S = 1
v1, t1 = np.array([[[3.0, 4.0]]]), np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
print(f"S=1 pwcs        {pwcs_batch(Tensor(v1), Tensor(t1)).values[0]}")
print(f"   == cosine    {v1[0, 0] @ t1[:, 0].T / np.linalg.norm(v1[0, 0])}")

# the BASE head reads exactly the s == s2 diagonal of the full vector
base = CrmHead(HeadKind.CRM_BASE, num_classes=2, num_parts=2, hidden=4, seed=0)
print(f"BASE picks      {base.pick}  -> {flat[base.pick]}")

# every head kind maps part features to per-class logits; ALIGN is the
# single-prompt special case and insists on S = 1
rng = np.random.default_rng(0)
v8 = Tensor(rng.standard_normal((2, 6, 8)))  # batch of 2, S=6 parts, dim 8
t8 = Tensor(rng.standard_normal((4, 6, 8)))  # W=4 classes
for kind in HeadKind:
    parts = 1 if kind == HeadKind.ALIGN else 6
    head = build_head(kind, num_classes=4, num_parts=parts, feat_dim=8, seed=1)
    vk = Tensor(v8.values[:, :parts]) if parts == 1 else v8
    tk = Tensor(t8.values[:, :parts]) if parts == 1 else t8
    out = head.logits(vk, tk, training=False)
    print(f"{kind.value:<10s} logits {out.values.shape}  params {len(head.params())}")
