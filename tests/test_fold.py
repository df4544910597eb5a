"""CRM_FULL's folded eval head, against its oracles, at drawn shapes.

In an eval pass the prompt features and batch norm's running statistics are
constants, so CRM_FULL's relation product, fc1 and batch norm fold into one
(S * d, 512) weight and a bias.  A CRM_FULL pass must give the bytes of
bruteforce.folded_crm_full, the fold written as its own chain of numpy calls,
and that oracle must stay within FOLD_RTOL of the unfolded chain
(bruteforce.whole_split_eval), relative to the largest logit.  Every other
head kind keeps the bytes of the unfolded chain.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bruteforce
from xrhead import harness, heads
from xrhead.harness import Model, TrainConfig, predict_logits
from xrhead.heads import HeadKind, relation_batch
from xrhead.numerics import constant, no_grad

# the folded logits sum the same products in another order; the reference
# model's moved by at most 1.3e-15 of its largest logit
FOLD_RTOL = 1e-12
TOKENS = 5
PATCH_DIM = 3
STATS_IMAGES = 32


def make_model(kind: str, w: int, s: int, d: int, seed: int) -> Model:
    """A model of W classes, S parts and feature width d with its parameters
    and running statistics drawn.  The statistics of CRM_FULL's classifier
    norm sit near those of its inputs over STATS_IMAGES drawn images, as a
    trained model's sit near those of its training batches."""
    config = TrainConfig(head=kind, num_parts=s, feat_dim=d, ctx_len=2)
    rng = np.random.default_rng(seed)
    model = Model(config, w, PATCH_DIM, rng.normal(size=(w, 4)), None, seed)
    for p in model.params():
        p.values += 0.3 * rng.normal(size=p.values.shape)
    for bn in model.batch_norms():
        bn.running_mean = rng.normal(size=bn.dim)
        bn.running_var = rng.uniform(0.5, 2.0, size=bn.dim)
    if kind == "CRM_FULL":
        with no_grad():
            feats = model.image_encoder.encode(rng.normal(size=(STATS_IMAGES, TOKENS, PATCH_DIM)))
            v, _ = model.attention.forward(constant(feats), training=False)
            relation = relation_batch(v, model.prompt_features()).values
        x = relation @ model.head.clf.fc1.weight.values
        bn = model.head.clf.bn
        bn.running_mean = x.mean(axis=0) + 0.1 * x.std(axis=0) * rng.normal(size=bn.dim)
        bn.running_var = x.var(axis=0) * rng.uniform(0.5, 2.0, size=bn.dim)
    return model


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(kind="CRM_FULL", w=20, s=4, d=64, n=3, seed=0)  # the reference shapes
@example(kind="CRM_FULL", w=20, s=2, d=64, n=3, seed=1)
@example(kind="CRM_FULL", w=6, s=4, d=32, n=3, seed=2)  # the tiny trainings
@example(kind="CRM_FULL", w=2, s=1, d=1, n=1, seed=3)  # one image, one part
@example(kind="CRM_XCLASS", w=20, s=4, d=64, n=3, seed=4)
@given(
    kind=st.sampled_from([k.value for k in HeadKind if k != HeadKind.ALIGN]),
    w=st.integers(2, 12),
    s=st.integers(1, 8),
    d=st.integers(1, 96),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_eval_pass_folds_crm_full_only(kind, w, s, d, n, seed):
    model = make_model(kind, w, s, d, seed)
    patches = np.random.default_rng(seed + 1).normal(size=(n, TOKENS, PATCH_DIM))
    got = predict_logits(model, patches)
    unfolded, _ = bruteforce.whole_split_eval(model, patches)
    if kind != "CRM_FULL":
        assert got.tobytes() == unfolded.tobytes()
        return
    folded, _ = bruteforce.whole_split_eval(model, patches, folded=True)
    assert got.tobytes() == folded.tobytes()
    assert np.abs(folded - unfolded).max() <= FOLD_RTOL * np.abs(unfolded).max()


def test_the_fold_is_built_once_per_pass(monkeypatch):
    monkeypatch.setattr(harness, "EVAL_CHUNK", 7)
    model = make_model("CRM_FULL", 6, 4, 8, seed=5)
    patches = np.random.default_rng(6).normal(size=(30, TOKENS, PATCH_DIM))
    built, scored, related = [], [], []
    scorer = model.head.scorer

    def spy_scorer(t):
        built.append(t)
        score = scorer(t)

        def spy_score(v):
            scored.append(v.values.shape[0])
            return score(v)

        return spy_score

    def spy_relation(*args):
        related.append(args)
        return relation_batch(*args)

    monkeypatch.setattr(model.head, "scorer", spy_scorer)
    monkeypatch.setattr(heads, "relation_batch", spy_relation)
    for passes in (1, 2):
        predict_logits(model, patches)
        assert len(built) == passes
        assert sorted(scored) == sorted([7] * 4 * passes + [2] * passes)
    # the folded head never builds a relation vector
    assert related == []
