"""
Frozen encoder stubs and feature files
======================================

Training adapts a small head on top of fixed representations. The two
encoders here stand in for the usual pretrained pair: a text encoder that
maps prompt sequences to features and an image encoder that maps raw
patches to tokens. Both are seeded, deterministic, and never updated.
"""

import os
import tempfile

import numpy as np

from xrhead.encoders import (
    FrozenImageEncoder,
    FrozenTextEncoder,
    load_features,
    save_features,
)
from xrhead.numerics import Tensor

# the same seed always builds the same encoder; checksums make that auditable
text = FrozenTextEncoder(seed=7, word_dim=32, feat_dim=64, num_positions=17)
text_again = FrozenTextEncoder(seed=7, word_dim=32, feat_dim=64, num_positions=17)
print(f"text checksum   {text.checksum()[:16]}...")
print(f"same seed       {text.checksum() == text_again.checksum()}")
print(f"other seed      {text.checksum() == FrozenTextEncoder(8, 32, 64, 17).checksum()}")

# text encoding: 16 context rows (batch, positions - 1, word_dim) and one
# closing row (batch, word_dim) per sequence -> (batch, feat_dim)
rng = np.random.default_rng(0)
context = Tensor(rng.standard_normal((5, 16, 32)), requires_grad=True)
closing = rng.standard_normal((5, 32))
feats = text.encode(context, closing)
print(f"text features   {context.values.shape} + {closing.shape} -> {feats.values.shape}")

# gradients flow through to the inputs, so learned prompts can be trained
# through the frozen encoder even though its own weights never move
print(f"differentiable  {feats.requires_grad}")

# image encoding: per-patch projection, (..., patch_dim) -> (..., feat_dim)
image = FrozenImageEncoder(seed=8, patch_dim=24, feat_dim=64)
patches = rng.standard_normal((3, 16, 24))
tokens = image.encode(patches)
print(f"image tokens    {patches.shape} -> {tokens.shape}")
print(f"bounded         max |token| = {np.abs(tokens).max():.4f} (tanh output)")

# feature files: a tagged binary container storing f32 payloads (features
# are exports, not training state), read back as float64
path = os.path.join(tempfile.mkdtemp(), "tokens.xrvf")
save_features(path, tokens[0], metadata={"source": "demo"})
loaded, meta = load_features(path)
err = np.abs(loaded - tokens[0]).max()
print(f"round trip      max err {err:.1e} (f32 storage), metadata={meta}")
