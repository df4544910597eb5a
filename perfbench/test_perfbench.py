"""Tests of the benchmark's own logic.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

import run
from tracing import Span, Tracer, layer_totals, self_times, steps, tail

xr = run.load_xrhead()


def span(name, parent, start, end, cpu_scale=2.0):
    return Span(name, parent, start, end, start * cpu_scale, end * cpu_scale)


def test_wrappers_install_and_uninstall_cleanly():
    targets = run.layer_targets()
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    tracer = Tracer()
    with tracer.installed(targets):
        for (owner, attr, _), original in zip(targets, originals):
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    for (owner, attr, _), original in zip(targets, originals):
        assert vars(owner)[attr] is original


def test_failed_install_restores_what_it_wrapped():
    targets = run.layer_targets()
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    with pytest.raises(TypeError):
        with Tracer().installed(targets + [(xr.harness, "no_such_function", "x")]):
            pass
    for (owner, attr, _), original in zip(targets, originals):
        assert vars(owner)[attr] is original


def test_traced_training_matches_untraced_bitwise():
    ds = run.generate(xr, 0)
    config = dataclasses.replace(run.make_config(xr, "CRM_FULL", 0), epochs=3)
    _, plain = xr.harness.train(config, ds)
    tracer = Tracer()
    with tracer.installed(run.layer_targets()):
        _, traced = xr.harness.train(config, ds)
    assert run.same_report(traced, plain)
    totals = layer_totals(tracer.spans, run.LAYERS)
    assert totals["numerics.backward"]["calls"] == 30
    assert totals["numerics.sgd_step"]["calls"] == 30
    assert totals["harness.evaluate"]["calls"] == 2
    assert run.step_problems(tracer, 0, config, plain.num_train) == []


def test_self_time_of_nested_spans():
    spans = [
        span("a", -1, 0.0, 10.0),
        span("b", 0, 1.0, 4.0),
        span("c", 0, 5.0, 9.0),
        span("d", 2, 6.0, 7.0),
        span("b", -1, 11.0, 12.0),
    ]
    wall, cpu = self_times(spans)
    assert wall == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])
    assert cpu == pytest.approx([6.0, 6.0, 6.0, 2.0, 2.0])
    totals = layer_totals(spans, ["a", "b", "d", "unused"])
    assert totals["b"] == {"self_s": pytest.approx(4.0), "cpu_s": pytest.approx(8.0), "calls": 2}
    assert totals["unused"] == {"self_s": 0.0, "cpu_s": 0.0, "calls": 0}
    assert layer_totals(spans, ["b"], first=2)["b"]["calls"] == 1


def test_steps_split_into_phases_and_uncovered_time():
    spans = [
        span("setup", -1, 0.0, 1.0),
        span("zero", -1, 2.0, 2.5),
        span("fwd", -1, 3.0, 5.0),
        span("inner", 2, 3.5, 4.0),
        span("step", -1, 5.5, 6.0),
        span("zero", -1, 7.0, 7.5),
        span("step", -1, 8.0, 9.0),
        span("child", 6, 8.2, 8.4),
    ]
    found = steps(spans, "zero", "step")
    assert [s.seconds for s in found] == pytest.approx([4.0, 2.0])
    assert [s.phases_s for s in found] == pytest.approx([3.0, 1.5])
    assert [s.other_s for s in found] == pytest.approx([1.0, 0.5])
    for s in found:
        assert s.phases_s + s.other_s == pytest.approx(s.seconds)


@pytest.mark.parametrize("n", [11, 12, 20, 40, 60, 99, 100, 315, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n) * 0.5)
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))


def _report(**changes):
    pinned = run.load_pins("CRM_FULL", 0)
    fields = {
        "head": "CRM_FULL",
        "seed_data": 0,
        "seed_model": 0,
        "train_accuracy": pinned["train_accuracy"],
        "test_accuracy": pinned["test_accuracy"],
        "num_train": 320,
        "num_test": 1280,
        "param_count": pinned["param_count"],
        "epoch_losses": list(pinned["epoch_losses"]),
        "epoch_lrs": [0.0] * 100,
        "config": {"epochs": 100},
    }
    fields.update(changes)
    return xr.harness.RunReport(**fields)


def test_failed_frac_counts_an_injected_mismatch():
    pinned = run.load_pins("CRM_FULL", 0)
    good = _report()
    losses = list(good.epoch_losses)
    losses[57] *= 1.0 + 1e-9
    shifted = _report(epoch_losses=losses)

    gate = run.Gate()
    check = lambda r: run.training_problems(r, pinned, None)  # noqa: E731
    assert gate.attempt("train", lambda: good, check) is good
    assert gate.attempt("train", lambda: shifted, check) is None
    assert gate.attempt("train", lambda: _report(test_accuracy=0.5), check) is None
    assert gate.attempt("train", lambda: 1 / 0, check) is None
    assert (gate.attempted, gate.failed, gate.failed_frac) == (4, 3, 0.75)


def test_eval_check_compares_later_passes_with_the_first():
    labels = np.array([0, 1, 1, 0])
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 4.0], [5.0, -1.0]])
    check = run.EvalCheck(labels, _report(test_accuracy=1.0), pinned=None)
    assert check(logits) == []
    assert check(logits.copy()) == []
    nudged = logits.copy()
    nudged[2, 1] *= 1.0 + 1e-9
    assert len(check(nudged)) == 1
    flipped = logits[:, ::-1].copy()
    assert len(check(flipped)) == 2


def test_failed_trainings_are_counted_and_the_run_still_ends(monkeypatch):
    make_config = run.make_config
    monkeypatch.setattr(run, "make_config", lambda *a: dataclasses.replace(make_config(*a), epochs=2))
    monkeypatch.setattr(run, "PASSES_PER_ROUND", 2)
    real_train, calls = run.timed_train, []

    def train_once_then_raise(*args):
        calls.append(args)
        if len(calls) > 1:
            raise RuntimeError("injected")
        return real_train(*args)

    monkeypatch.setattr(run, "timed_train", train_once_then_raise)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    gate = run.Gate()
    setup_s, trainings, rounds, _ = run.run_workload(xr, gate, "PWCS", 5, seconds=0)
    assert setup_s > 0
    assert len(trainings) == 1 and [len(r) for r in rounds] == [2] * run.MIN_TRAININGS
    assert len(calls) == run.MIN_TRAININGS and gate.failed == run.MIN_TRAININGS - 1
