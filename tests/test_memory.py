"""Memory held by training and eval passes, read with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced memory counts
every array alive at a moment and the traced peak is repeatable from run to
run, where a process's RSS is not.  Each test pins one release: `train`
holds neither its optimizer nor its training features through the test
split's pass, no step's forward starts with the last step's tape alive, an
eval chunk's token features are gone before its head runs, and the peak of
one training stays where it was pinned.
"""

import contextlib
import os
import tracemalloc

import numpy as np
import pytest

from xrhead import harness
from xrhead.data import SyntheticSpec, generate
from xrhead.harness import TrainConfig, build_model, predict_logits, train
from xrhead.heads import HeadKind

MIB = 1 << 20
# slack for the small Python objects a training or a pass holds beside its
# arrays (loss lists, index arrays, frames)
SLACK = 64 << 10

REFERENCE_SPEC = {"cross_structure": True, "seed": 0}

TINY_SPEC = {
    "num_classes": 6,
    "num_superclasses": 3,
    "noise": 0.1,
    "train_per_class": 8,
    "test_per_class": 8,
    "tokens_per_image": 10,
}


def tiny_config(kind: str) -> TrainConfig:
    return TrainConfig(
        head=kind,
        num_parts=1 if kind == "ALIGN" else 4,
        epochs=3,
        shots=4,
        batch_size=8,
        feat_dim=32,
        ctx_len=4,
        data_spec=TINY_SPEC,
    )


@pytest.fixture(scope="module")
def reference_dataset():
    return generate(SyntheticSpec.from_dict(REFERENCE_SPEC))


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(SyntheticSpec.from_dict(TINY_SPEC))


@contextlib.contextmanager
def one_cpu():
    """Pin the calling thread to one of its CPUs: eval then starts no helper thread."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@contextlib.contextmanager
def traced():
    """Trace allocations inside the block; yields the bytes held at its start."""
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def held() -> int:
    return tracemalloc.get_traced_memory()[0]


def train_peak(config: TrainConfig, dataset) -> int:
    """The traced peak of one `train`, over what was held before the call."""
    with one_cpu(), traced() as base:
        train(config, dataset)
        return tracemalloc.get_traced_memory()[1] - base


@pytest.mark.parametrize("kind", ["CRM_FULL", "PWCS"])
def test_train_holds_only_the_model_through_the_test_pass(kind, reference_dataset, monkeypatch):
    config = TrainConfig(head=kind, data_spec=REFERENCE_SPEC, epochs=2)
    at_test_pass = []
    evaluate = harness.evaluate

    def spy(*args, **kwargs):
        at_test_pass.append(held())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate", spy)
    with one_cpu(), traced():
        model, report = train(config, reference_dataset)
        returned = held()  # the model and the report
    # the training features alone are 320 x 16 x 64 float64 (2.5 MiB), and the
    # optimizer's gradient and velocity arenas twice the parameters' bytes
    tokens = reference_dataset.train_patches.shape[1]
    feats = report.num_train * tokens * model.config.feat_dim * 8
    assert len(at_test_pass) == 1
    assert at_test_pass[0] <= returned + SLACK < returned + feats


@pytest.mark.parametrize("kind", ["CRM_FULL", "PWCS"])
def test_no_step_starts_with_the_last_steps_tape(kind, reference_dataset, monkeypatch):
    config = TrainConfig(head=kind, data_spec=REFERENCE_SPEC, epochs=2)
    at_forward, at_backward = [], []
    loss, backward = harness.Model.loss, harness.backward

    def spy_loss(self, *args, **kwargs):
        at_forward.append(held())
        return loss(self, *args, **kwargs)

    def spy_backward(root):
        at_backward.append(held())
        backward(root)

    monkeypatch.setattr(harness.Model, "loss", spy_loss)
    monkeypatch.setattr(harness, "backward", spy_backward)
    with one_cpu(), traced():
        train(config, reference_dataset)
    assert len(at_forward) == 20
    # what a step's forward leaves for its backward: the tape
    tape = at_backward[0] - at_forward[0]
    assert tape > 10 * SLACK
    assert max(at_forward) - at_forward[0] <= SLACK


def test_an_eval_thread_drops_each_chunk_once_read(reference_dataset, monkeypatch):
    model = build_model(TrainConfig(data_spec=REFERENCE_SPEC), reference_dataset)
    chunks = []
    forward, scorer = model.attention.forward, model.head.scorer

    def spy_forward(tokens, training):
        start = held()
        v, w = forward(tokens, training)
        chunks.append({"start": start, "attention": held(), "features": tokens.values.nbytes,
                       "kept": v.values.nbytes + w.values.nbytes})
        return v, w

    def spy_scorer(prompts):
        score = scorer(prompts)

        def spy_score(*args, **kwargs):
            chunks[-1]["head"] = held()
            return score(*args, **kwargs)

        return spy_score

    monkeypatch.setattr(model.attention, "forward", spy_forward)
    monkeypatch.setattr(model.head, "scorer", spy_scorer)
    with one_cpu(), traced():
        predict_logits(model, reference_dataset.test_patches)
    assert len(chunks) == 5
    for c in chunks:
        # held when attention returns: the chunk's features, the parts v and
        # the weights w; by the time the head runs the features are gone
        assert c["head"] <= c["attention"] - c["features"] + SLACK
        assert c["features"] > c["kept"] + SLACK
        # and the last chunk's v, w and logits are gone before the next starts
        assert c["start"] <= chunks[0]["start"] + SLACK < chunks[0]["start"] + c["kept"]


# The traced peak of one training of tiny_config(kind), in KiB, over what was
# held before the call.  These hold for numpy PINNED_NUMPY: numpy's own
# temporaries and small objects move the bytes from version to version.  A
# change that moves a peak re-pins it and says why.
PINNED_NUMPY = "2.4.6"
PINNED_TINY_PEAKS_KIB = {
    "ALIGN": 564,
    "PWCS": 587,
    "MLPS": 3453,
    "CRM_FULL": 2559,
    "CRM_BASE": 599,
    "CRM_XCLASS": 1318,
    "CRM_XPART": 600,
}


def test_pins_cover_every_head_kind():
    assert set(PINNED_TINY_PEAKS_KIB) == {kind.value for kind in HeadKind}


@pytest.mark.parametrize("kind", sorted(PINNED_TINY_PEAKS_KIB))
def test_tiny_training_peak_pinned(kind, tiny_dataset):
    assert np.__version__ == PINNED_NUMPY, (
        f"the peaks are pinned for numpy {PINNED_NUMPY}, this is numpy {np.__version__}: re-pin"
    )
    train(tiny_config(kind), tiny_dataset)  # first calls allocate a few lasting objects
    peak = train_peak(tiny_config(kind), tiny_dataset) / 1024
    assert peak == pytest.approx(PINNED_TINY_PEAKS_KIB[kind], rel=0.02)


# 2-epoch trainings on the reference data: CRM_FULL peaked at 17.5 MiB and
# PWCS at 12.8 MiB while train kept its optimizer and training features
# through the test split's pass and each step's tape through the next forward
@pytest.mark.parametrize("kind, bound_mib", [("CRM_FULL", 13.0), ("PWCS", 7.0)])
def test_reference_training_peak_bounded(kind, bound_mib, reference_dataset):
    config = TrainConfig(head=kind, data_spec=REFERENCE_SPEC, epochs=2)
    assert train_peak(config, reference_dataset) <= bound_mib * MIB
