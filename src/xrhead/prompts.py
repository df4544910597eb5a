"""Learnable multi-part prompt bank.

Each (class, part) pair owns a private sequence of ctx_len context vectors;
the frozen text encoder reads them followed by the class embedding, ctx_len
+ 1 word vectors, and turns them into one prompt feature.  Contexts train,
class embeddings stay frozen.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .numerics import Tensor
from .numerics.layers import init_normal, seeded

# the standard deviation of the contexts' initial normal draw
CONTEXT_STD = 0.02


class PromptBank:
    """contexts (W, S, M, word_dim) trainable, class_embeddings (W, word_dim) frozen.

    seed None leaves the contexts unfilled, for a loader to replace.
    """

    def __init__(
        self, class_embeddings: np.ndarray, num_parts: int, ctx_len: int, seed: int | None
    ):
        class_embeddings = np.asarray(class_embeddings, dtype=np.float64)
        if class_embeddings.ndim != 2:
            raise ShapeMismatchError(
                f"class embeddings must be (classes, word_dim), got {class_embeddings.shape}"
            )
        if num_parts < 1 or ctx_len < 1:
            raise ConfigError(f"need num_parts >= 1 and ctx_len >= 1, got {num_parts}, {ctx_len}")
        self.num_classes, self.word_dim = class_embeddings.shape
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        self.num_parts = num_parts
        self.ctx_len = ctx_len
        shape = (self.num_classes, num_parts, ctx_len, self.word_dim)
        ctx = init_normal(seeded(seed), CONTEXT_STD, shape)
        self.contexts = Tensor(ctx, requires_grad=True, name="prompts.contexts")
        self.class_embeddings = class_embeddings  # frozen: an input, not a parameter
        # the class row closing every prompt: (W, S, word_dim), row [k, s] = class k
        self._closing = np.repeat(class_embeddings[:, None, :], num_parts, axis=1)

    def params(self) -> list[Tensor]:
        return [self.contexts]

    def encode(self, encoder) -> Tensor:
        """Run every prompt through the frozen text encoder: (W, S, feat_dim)."""
        return encoder.encode(self.contexts, self._closing)
