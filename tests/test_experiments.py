"""Head comparisons and part-count sweeps: the shared run loop and the sweep's timing rounds."""

import itertools
from types import SimpleNamespace

import pytest

from xrhead import experiments
from xrhead.data import SyntheticSpec, generate
from xrhead.experiments import TIMING_ROUNDS, compare_heads, sweep_parts
from xrhead.harness import TrainConfig

TINY_SPEC = {
    "num_classes": 6,
    "num_superclasses": 3,
    "noise": 0.1,
    "train_per_class": 8,
    "test_per_class": 8,
    "tokens_per_image": 10,
}


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(SyntheticSpec.from_dict(TINY_SPEC))


def fake_train(step_seconds):
    """A train that records its calls and reports step_seconds(config, call index)."""
    calls = []

    def train(cfg, ds=None):
        report = SimpleNamespace(
            seed_model=cfg.seed_model,
            seed_data=cfg.seed_data,
            train_accuracy=0.5,
            test_accuracy=0.5,
            timing={
                "train_cpu_seconds": 1.0,
                "step_cpu_min_seconds": step_seconds(cfg, len(calls)),
            },
        )
        calls.append((cfg.num_parts, cfg.epochs))
        return None, report

    train.calls = calls
    return train


def test_sweep_flag_survives_a_machine_that_speeds_up_call_by_call(tiny_dataset, monkeypatch):
    # each call's step time falls by 3 s, more than any gap between part counts (at most 1 s
    # per part), so timing each part count once, at its own time, inverts their order
    train = fake_train(lambda cfg, k: 100.0 + cfg.num_parts - 3.0 * k)
    monkeypatch.setattr(experiments, "train", train)
    config = TrainConfig(epochs=5, data_spec=TINY_SPEC)
    result = sweep_parts(config, [4, 1, 2], dataset=tiny_dataset)
    assert result.flags["runtime_monotone"] is True
    # the training per part count in the caller's order, then the one-epoch rounds
    rounds = [[1, 2, 4], [4, 2, 1]] * (TIMING_ROUNDS // 2)
    assert train.calls == [(4, 5), (1, 5), (2, 5)] + [(s, 1) for s in itertools.chain(*rounds)]
    # the rows keep each training's own times: here they fall with the call order
    assert [r["step_cpu_min_seconds"] for r in result.rows] == [104.0, 98.0, 96.0]
    # a count's least round time is its turn in the last, descending round
    last = {s: 3 + 3 * (TIMING_ROUNDS - 1) + i for i, s in enumerate([4, 2, 1])}
    assert [r["rounds_step_cpu_min_seconds"] for r in result.rows] == [
        100.0 + s - 3.0 * last[s] for s in (4, 1, 2)
    ]


def test_sweep_flag_survives_a_machine_that_slows_down_call_by_call(tiny_dataset, monkeypatch):
    monkeypatch.setattr(experiments, "train", fake_train(lambda cfg, k: cfg.num_parts + 3.0 * k))
    result = sweep_parts(TrainConfig(data_spec=TINY_SPEC), [4, 1, 2], dataset=tiny_dataset)
    assert result.flags["runtime_monotone"] is True


def test_sweep_flag_reads_false_when_step_time_does_not_grow(tiny_dataset, monkeypatch):
    monkeypatch.setattr(experiments, "train", fake_train(lambda cfg, k: 5.0 - cfg.num_parts))
    result = sweep_parts(TrainConfig(data_spec=TINY_SPEC), [1, 2], dataset=tiny_dataset)
    assert result.flags["runtime_monotone"] is False


def test_experiments_train_every_run_on_one_loaded_dataset(tiny_dataset, monkeypatch):
    seen = []
    train = fake_train(lambda cfg, k: 1.0)

    def recording_train(cfg, ds=None):
        seen.append(ds)
        return train(cfg, ds)

    monkeypatch.setattr(experiments, "train", recording_train)
    loaded = []

    def load(cfg):
        loaded.append(cfg)
        return tiny_dataset

    monkeypatch.setattr(experiments, "config_dataset", load)
    config = TrainConfig(data_spec=TINY_SPEC)
    result = compare_heads(config, ["PWCS", "CRM_BASE"], num_seeds=2)
    assert [(r["head"], r["seed_model"]) for r in result.rows] == [
        ("PWCS", 0), ("PWCS", 1), ("CRM_BASE", 0), ("CRM_BASE", 1)
    ]
    assert len(loaded) == 1 and all(ds is tiny_dataset for ds in seen)
    seen.clear()
    sweep_parts(config, [2, 1])
    assert len(loaded) == 2 and all(ds is tiny_dataset for ds in seen)
    assert len(seen) == 2 + 2 * TIMING_ROUNDS
