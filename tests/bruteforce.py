"""Brute-force reference implementations used by unit and acceptance tests.

The first group is deliberately written as plain python loops over numpy
rows, independent of the library's batched tensor code paths.  The second
group adds the primitive tape ops that only the oracles use, and the third
rebuilds the fused layers from primitive tape ops, as bitwise oracles.  Then
comes the whole-split eval, the bitwise oracle of the chunked one, then
the frozen prompt features that manual-prompt runs load from a file, and
last the container layout framed with struct, the byte oracle of pack that
also writes dtype codes pack refuses.
"""

import json
import math
import struct

import numpy as np

from xrhead.attention import TAU
from xrhead.errors import ShapeMismatchError
from xrhead.harness import LOSS_TEMPERATURE, class_name_embeddings
from xrhead.numerics import (
    Tensor,
    add,
    constant,
    cross_entropy,
    gather,
    l2_normalize_rows,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    sum_axis,
    transpose,
)
from xrhead.numerics.tensor import from_op, unbroadcast


def flat_index(s: int, s2: int, w: int, num_parts: int, num_classes: int) -> int:
    """Position of v[s] . t[w, s2] in the flattened relation vector."""
    if not (0 <= s < num_parts and 0 <= s2 < num_parts and 0 <= w < num_classes):
        raise IndexError(f"({s}, {s2}, {w}) outside ({num_parts}, {num_parts}, {num_classes})")
    return s * (num_parts * num_classes) + s2 * num_classes + w


def relation_flat(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """v (s, d), t (w, s, d) -> flattened inner products, loop per entry."""
    s, _ = v.shape
    w = t.shape[0]
    flat = np.zeros(s * s * w)
    for a in range(s):
        for b in range(s):
            for c in range(w):
                flat[a * (s * w) + b * w + c] = float(np.dot(v[a], t[c, b]))
    return flat


def pwcs_logits(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """v (s, d), t (w, s, d) -> mean per-part cosine per class, loop per pair."""
    s, _ = v.shape
    w = t.shape[0]
    out = np.zeros(w)
    for c in range(w):
        total = 0.0
        for p in range(s):
            num = float(np.dot(v[p], t[c, p]))
            total += num / (np.linalg.norm(v[p]) * np.linalg.norm(t[c, p]))
        out[c] = total / s
    return out


def align_logits(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """v (d,), t (w, d) -> cosine per class."""
    return np.array(
        [float(np.dot(v, row)) / (np.linalg.norm(v) * np.linalg.norm(row)) for row in t]
    )


def mutual_information(x, y) -> float:
    """MI in nats of two equal-length label sequences, counted pair by pair."""
    n = len(x)
    joint, px, py = {}, {}, {}
    for a, b in zip(x, y):
        joint[a, b] = joint.get((a, b), 0) + 1
        px[a] = px.get(a, 0) + 1
        py[b] = py.get(b, 0) + 1
    total = 0.0
    for (a, b), count in joint.items():
        p = count / n
        total += p * math.log(p / ((px[a] / n) * (py[b] / n)))
    return total


class LoopSgd:
    """Sgd.step as one pass per parameter, with per-parameter momentum.

    The library updates flat arrays in blocks; per element it must do the
    same operations in the same order as this loop.
    """

    def __init__(self, weight_decay, momentum):
        self.weight_decay = weight_decay
        self.momentum = momentum
        self.velocities: dict[int, np.ndarray] = {}

    def step(self, params, lr) -> None:
        for p in params:
            g = np.empty_like(p.values)
            np.multiply(p.values, self.weight_decay, out=g)
            np.add(p.grad, g, out=g)
            v = self.velocities.get(id(p))
            if v is None:
                self.velocities[id(p)] = v = g.copy()
            else:
                v *= self.momentum
                v += g
            np.multiply(v, lr, out=g)
            p.values -= g


# --- primitives the composed chains need -------------------------------------------
#
# The library's fused ops replaced these on every training and eval path, so
# they live here, next to the chains built from them; test_numerics.py
# gradient-checks each one.


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.values - b.values
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (
            unbroadcast(g, a.values.shape) if need_a else None,
            unbroadcast(-g, b.values.shape) if need_b else None,
        )

    return from_op(out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.values / b.values
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (
            unbroadcast(g / b.values, a.values.shape) if need_a else None,
            unbroadcast(-g * a.values / (b.values * b.values), b.values.shape) if need_b else None,
        )

    return from_op(out, (a, b), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)

    def bw(g):
        return (g * (1.0 - out * out),)

    return from_op(out, (a,), bw)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p.  Non-integer p requires a positive base."""
    out = a.values**p

    def bw(g):
        return (g * p * a.values ** (p - 1.0),)

    return from_op(out, (a,), bw)


def mean_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = a.values.shape[axis]
    out = a.values.mean(axis=axis, keepdims=keepdims)

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, a.values.shape),)

    return from_op(out, (a,), bw)


def concat(parts, axis: int = 0) -> Tensor:
    """Join tensors along axis (0 <= axis < ndim); all other axes must agree."""
    parts = list(parts)
    shapes = [p.values.shape for p in parts]
    rest = {(len(s),) + s[:axis] + s[axis + 1 :] for s in shapes}
    if len(rest) != 1 or not 0 <= axis < len(shapes[0]):
        raise ShapeMismatchError(f"concat along axis {axis} needs matching shapes, got {shapes}")
    out = np.concatenate([p.values for p in parts], axis=axis)
    bounds = np.cumsum([s[axis] for s in shapes])[:-1]

    def bw(g):
        return tuple(np.split(g, bounds, axis=axis))

    return from_op(out, tuple(parts), bw)


def softmax_rows(a: Tensor) -> Tensor:
    """Row softmax of a (n, d), stabilized by max subtraction."""
    if a.values.ndim != 2:
        raise ShapeMismatchError(f"softmax_rows needs a 2-d tensor, got {a.values.shape}")
    z = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        return (out * (g - (g * out).sum(axis=1, keepdims=True)),)

    return from_op(out, (a,), bw)


# --- composed tape chains --------------------------------------------------------
#
# The library runs each hot layer as one fused tape op with a hand-written
# backward.  Below are the chains of primitive tape ops those layers are made
# of.  A fused op must give the same bits as its chain: forward values, every
# leaf gradient and the batch-norm running statistics.


def composed_affine(x, w, b=None):
    out = matmul(x, w)
    return out if b is None else add(out, b)


def composed_batch_norm(bn, x, training: bool):
    if training:
        mean = mean_axis(x, 0, keepdims=True)
        centered = sub(x, mean)
        var = mean_axis(mul(centered, centered), 0, keepdims=True)
        inv = power(add(var, constant(bn.eps)), -0.5)
        xhat = mul(centered, inv)
        m = bn.momentum
        bn.running_mean = (1.0 - m) * bn.running_mean + m * mean.values[0]
        bn.running_var = (1.0 - m) * bn.running_var + m * var.values[0]
    else:
        inv = constant(1.0 / np.sqrt(bn.running_var + bn.eps))
        xhat = mul(sub(x, constant(bn.running_mean)), inv)
    return add(mul(xhat, bn.gamma), bn.beta)


def composed_mlp(mlp, x, training: bool):
    h = composed_affine(x, mlp.fc1.weight)
    h = relu(composed_batch_norm(mlp.bn, h, training))
    return composed_affine(h, mlp.fc2.weight, mlp.fc2.bias)


def composed_attention(attn, tokens, training: bool):
    """PartAttention.forward as a chain: (parts, weights), both on the tape."""
    b, n, f = tokens.values.shape
    s = attn.num_parts
    flat = reshape(tokens, (b * n, f))
    normed = composed_batch_norm(attn.bn, flat, training)
    scores = relu(composed_affine(normed, attn.score.weight, attn.score.bias))
    weights = softmax_rows(scores)
    picked = reshape(gather(weights, np.arange(s), 1), (b, n, s))
    projected = composed_affine(flat, attn.proj.weight, attn.proj.bias)
    pooled = matmul(transpose(picked, (0, 2, 1)), reshape(projected, (b, n, f)))
    # rescale each image's block to Frobenius norm TAU
    squares = reshape(mul(pooled, pooled), (b, s * f))
    total = reshape(sum_axis(squares, 1), (b, 1))
    factor = div(constant(TAU), power(total, 0.5))
    parts = mul(pooled, reshape(factor, (b, 1, 1)))
    return parts, reshape(weights, (b, n, s + 1))


def composed_pwcs(v, t):
    """pwcs_batch as a loop over parts: gather, matmul and add per part."""
    b, s, d = v.values.shape
    w = t.values.shape[0]
    vn = l2_normalize_rows(reshape(v, (b * s, d)))
    tn = l2_normalize_rows(reshape(t, (w * s, d)))
    acc = None
    for part in range(s):
        vs = gather(vn, np.arange(b) * s + part, 0)
        ts = gather(tn, np.arange(w) * s + part, 0)
        sims = matmul(vs, transpose(ts, (1, 0)))
        acc = sims if acc is None else add(acc, sims)
    return acc * (1.0 / s)


def composed_relation(v, t):
    """relation_batch with the prompt rows reordered by an index gather."""
    b, s, d = v.values.shape
    w = t.values.shape[0]
    t2 = reshape(t, (w * s, d))  # row w * s + s2
    # reorder prompt rows to (s2 outer, w inner) so a plain matmul + reshape
    # lands every product at flat[s * (s*w) + s2 * w + w_idx]
    perm = np.arange(s * w)
    trows = gather(t2, (perm % w) * s + perm // w, 0)
    products = matmul(reshape(v, (b * s, d)), transpose(trows, (1, 0)))  # (b*s, s*w)
    return reshape(products, (b, s * s * w))


def composed_sequences(bank):
    """Every prompt of the bank as a whole sequence, its contexts then its
    class row: (W * S, ctx_len + 1, word_dim), row i = class i // S, part
    i % S, built as a row interleave of contexts and class rows."""
    w, s, m, d = bank.num_classes, bank.num_parts, bank.ctx_len, bank.word_dim
    ctx2 = reshape(bank.contexts, (w * s * m, d))
    cls_rep = gather(constant(bank.class_embeddings), np.arange(w * s) // s, 0)
    stacked = concat([ctx2, cls_rep])
    order = np.empty((w * s, m + 1), dtype=np.intp)
    order[:, :m] = np.arange(w * s * m).reshape(w * s, m)
    order[:, m] = w * s * m + np.arange(w * s)
    return reshape(gather(stacked, order.reshape(-1), 0), (w * s, m + 1, d))


def composed_text_encode(enc, sequences):
    x = add(sequences, constant(enc._positions))
    pooled = mean_axis(x, 1)
    h = tanh(composed_affine(pooled, constant(enc._w1), constant(enc._b1)))
    return composed_affine(h, constant(enc._w2), constant(enc._b2))


def composed_prompt_features(bank, enc):
    """PromptBank.encode as a chain: whole sequences, encoded, then (W, S, feat_dim)."""
    feats = composed_text_encode(enc, composed_sequences(bank))
    return reshape(feats, (bank.num_classes, bank.num_parts, feats.values.shape[1]))


def composed_image_encode(enc, patches):
    """FrozenImageEncoder.encode with its bias added by broadcasting: the
    encoder is forward-only numpy, so its chain is numpy too."""
    return np.tanh(np.asarray(patches, dtype=np.float64) @ enc._w + enc._b)


def composed_model_loss(model, feats, labels):
    """Model.loss, a training-mode loss, with every fused layer replaced by its chain."""
    from xrhead.heads import CrmHead, HeadKind, MlpsHead

    v, _ = composed_attention(model.attention, feats, True)
    b, s, d = v.values.shape
    head = model.head
    if isinstance(head, MlpsHead):
        flat = reshape(v, (b * s, d))
        acc = None
        for part, mlp in enumerate(head.mlps):
            out = composed_mlp(mlp, gather(flat, np.arange(b) * s + part, 0), True)
            acc = out if acc is None else add(acc, out)
        return cross_entropy(acc * (1.0 / s), labels)
    if model.manual is not None:
        t = model.manual
    else:
        t = composed_prompt_features(model.bank, model.text_encoder)
    w = t.values.shape[0]
    if not isinstance(head, CrmHead):  # PWCS, and ALIGN as PWCS at one part
        return cross_entropy(composed_pwcs(v, t) * LOSS_TEMPERATURE, labels)
    flat = composed_relation(v, t)
    if head.kind == HeadKind.CRM_FULL:
        return cross_entropy(composed_mlp(head.clf, flat, True), labels)
    picked = gather(flat, head.pick, 1)
    if head.kind == HeadKind.CRM_XCLASS:
        return cross_entropy(composed_mlp(head.clf, picked, True), labels)
    per_class = head.pick.size // w
    scores = composed_mlp(head.clf, reshape(picked, (b * w, per_class)), True)
    return cross_entropy(reshape(scores, (b, w)), labels)


# --- whole-split eval ---------------------------------------------------------------


def whole_split_eval(model, patches, chunk: int = 256):
    """Eval-mode (logits, attention weights) of a whole split: every patch
    converted and encoded at once, then one attention pass per chunk."""
    feats = model.image_encoder.encode(np.asarray(patches, dtype=np.float64))
    logits, weights = [], []
    with no_grad():
        prompts = model.prompt_features()
        for start in range(0, feats.shape[0], chunk):
            v, w = model.attention.forward(constant(feats[start : start + chunk]), training=False)
            logits.append(model.head.logits(v, prompts, training=False).values)
            weights.append(w.values)
    return np.concatenate(logits, axis=0), np.concatenate(weights, axis=0)


# --- frozen prompt features ------------------------------------------------------------


def manual_prompt_features(config, class_embeddings: np.ndarray) -> np.ndarray:
    """Frozen (classes, parts, feat_dim) features: the class-name encoding per part."""
    names = class_name_embeddings(config, class_embeddings)
    return np.repeat(names[:, None, :], config.num_parts, axis=1)


def random_prompt_features(config, num_classes: int, seed: int = 0) -> np.ndarray:
    """Frozen standard-normal (classes, parts, feat_dim) features, for robustness runs."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(num_classes, config.num_parts, config.feat_dim))


# --- the container layout, framed by hand -----------------------------------------------


def framed_by_hand(magic: bytes, version: int, arrays, meta: dict) -> tuple[bytes, list[int]]:
    """The bytes of pack's layout from (name, dtype code, values) triples, each
    payload written as values.tobytes(), and the offset of each dtype code byte."""
    out = magic + struct.pack("<II", version, len(arrays))
    code_offsets = []
    for name, code, values in arrays:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded
        code_offsets.append(len(out))
        out += struct.pack(f"<BI{values.ndim}Q", code, values.ndim, *values.shape)
        out += values.tobytes()  # row-major, whatever the strides
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    return out + struct.pack("<I", len(raw)) + raw, code_offsets
