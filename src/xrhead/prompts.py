"""Learnable multi-part prompt bank.

Each (class, part) pair owns a private sequence of ctx_len context vectors;
appending the class embedding gives a sequence of ctx_len + 1 word vectors
that the frozen text encoder turns into one prompt feature.  Contexts train,
class embeddings stay frozen.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .numerics import Tensor, concat, constant, reshape
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
        # the class row closing every prompt, row i = class i // S
        rows = np.repeat(class_embeddings, num_parts, axis=0)
        self._class_rows = constant(rows.reshape(self.num_classes * num_parts, 1, self.word_dim))

    def params(self) -> list[Tensor]:
        return [self.contexts]

    def all_sequences(self) -> Tensor:
        """All prompts stacked: (W * S, ctx_len + 1, word_dim), row i = class i // S, part i % S."""
        w, s, m, d = self.num_classes, self.num_parts, self.ctx_len, self.word_dim
        ctx = reshape(self.contexts, (w * s, m, d))
        return concat([ctx, self._class_rows], axis=1)

    def encode(self, encoder) -> Tensor:
        """Run every prompt through the frozen text encoder: (W, S, feat_dim)."""
        feats = encoder.encode(self.all_sequences())
        return reshape(feats, (self.num_classes, self.num_parts, feats.values.shape[1]))
