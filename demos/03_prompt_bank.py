"""
Multi-part learnable prompts
============================

Each class gets one prompt per part: a block of trainable context vectors
followed by the frozen class embedding. The frozen text encoder reads every
context block with its closing class row in one call, yields one feature row
per (class, part) pair, and passes gradients to the contexts only.
"""

import numpy as np

from xrhead.encoders import FrozenTextEncoder
from xrhead.numerics import backward, constant, tsum
from xrhead.prompts import PromptBank

W, S, M, D = 5, 3, 4, 16  # classes, parts, context length, word dim
rng = np.random.default_rng(0)
class_embeddings = rng.standard_normal((W, D))

bank = PromptBank(class_embeddings, num_parts=S, ctx_len=M, seed=1)
print(f"contexts        {bank.contexts.values.shape}  (W, S, M, word_dim), trainable")
print(f"class rows      {bank.class_embeddings.shape}  frozen, a plain array")

# one prompt = M context rows then the class embedding row; the encoder
# takes the two blocks separately and writes them into one sequence itself
ctx = bank.contexts.values[2, 1]  # class 2, part 1
print(f"context block   {ctx.shape}  (M, word_dim), trainable")
print(f"closing row     {bank.class_embeddings[2].shape}  class 2's embedding, frozen")

# encode through the frozen text encoder: one feature row per (class, part)
encoder = FrozenTextEncoder(seed=7, word_dim=D, feat_dim=24, num_positions=M + 1)
features = bank.encode(encoder)
print(f"prompt features {features.values.shape}  (W, S, feat_dim)")
one = encoder.encode(constant(ctx), class_embeddings[2])
print(f"one prompt      {one.values.shape}  same as row [2, 1]: "
      f"{np.allclose(one.values, features.values[2, 1], rtol=1e-12)}")

# only the contexts accumulate gradient; the class embeddings stay frozen
backward(tsum(features))
ctx_norm = np.linalg.norm(bank.contexts.grad)
print(f"context grad    {ctx_norm:.4f}")
print(f"trained params  {[p.name for p in bank.params()]}")

# manual mode skips the bank entirely: fixed features, nothing to train
fixed = constant(rng.standard_normal((W, S, 24)))
print(f"manual features {fixed.values.shape}  requires_grad={fixed.requires_grad}")
