"""
Multi-part learnable prompts
============================

Each class gets one prompt per part: a block of trainable context vectors
followed by the frozen class embedding. Encoding every sequence through the
frozen text encoder yields one feature row per (class, part) pair, and
gradients reach only the contexts.
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

# all W * S sequences stacked in class-major order
stacked = bank.all_sequences()
print(f"all sequences   {stacked.values.shape}  row i = (class i // S, part i % S)")

# one sequence = M context rows then the class embedding row
seq = stacked.values[2 * S + 1]  # class 2, part 1
print(f"sequence        {seq.shape}  (M + 1, word_dim)")
print(f"last row is     class embedding: {np.array_equal(seq[-1], class_embeddings[2])}")

# encode through the frozen text encoder: one feature row per (class, part)
encoder = FrozenTextEncoder(seed=7, word_dim=D, feat_dim=24, num_positions=M + 1)
features = bank.encode(encoder)
print(f"prompt features {features.values.shape}  (W, S, feat_dim)")

# only the contexts accumulate gradient; the class embeddings stay frozen
backward(tsum(features))
ctx_norm = np.linalg.norm(bank.contexts.grad)
print(f"context grad    {ctx_norm:.4f}")
print(f"trained params  {[p.name for p in bank.params()]}")

# manual mode skips the bank entirely: fixed features, nothing to train
fixed = constant(rng.standard_normal((W, S, 24)))
print(f"manual features {fixed.values.shape}  requires_grad={fixed.requires_grad}")
