"""Experiments over many trainings: head comparisons and part-count sweeps.

Each experiment names its runs by key, validates all of them before the
first training, trains them on one dataset and emits the results in its own
canonical order, so aggregation does not depend on the order runs execute
in.  Wall-clock and CPU timings stay out of CSV and SVG outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .harness import TrainConfig, _count, config_dataset, train
from .heads import HeadKind
from . import report as rpt


def _train_runs(config: TrainConfig, runs: dict, dataset: Dataset | None) -> tuple[dict, Dataset]:
    """Validate every run, then train each in order on `dataset` or the config's, loaded
    once.  Returns the reports under the keys of `runs`, and the dataset."""
    for cfg in runs.values():
        cfg.validate()
    ds = dataset if dataset is not None else config_dataset(config)
    return {key: train(cfg, ds)[1] for key, cfg in runs.items()}, ds


# --- head comparison ---------------------------------------------------------------


@dataclass
class ComparisonResult:
    kinds: list[str]
    num_seeds: int
    rows: list[dict]
    summary: dict

    CSV_HEADER = ["head", "seed_model", "seed_data", "train_accuracy", "test_accuracy"]

    def csv(self) -> str:
        rows = [
            [r["head"], r["seed_model"], r["seed_data"], r["train_accuracy"], r["test_accuracy"]]
            for r in self.rows
        ]
        for kind in self.kinds:
            s = self.summary[kind]
            rows.append([kind, "mean", "", s["mean_train"], s["mean_test"]])
            rows.append([kind, "std", "", s["std_train"], s["std_test"]])
        return rpt.csv_text(self.CSV_HEADER, rows)


def compare_heads(
    config: TrainConfig,
    kinds: list[str],
    num_seeds: int = 5,
    dataset: Dataset | None = None,
) -> ComparisonResult:
    """Train every head kind on identical data, splits, and shared-module seeds.

    Run i uses seed_model + i and seed_data + i, the same pair for every kind,
    so prompt-bank and attention initializations match across kinds.
    """
    kind_names = [HeadKind.parse(k).value for k in kinds]
    if len(kind_names) < 2:
        raise ConfigError(f"need at least 2 head kinds, got {kind_names}")
    if len(set(kind_names)) != len(kind_names):
        raise ConfigError(f"duplicate head kinds: {kind_names}")
    num_seeds = _count(num_seeds, "num_seeds")
    if num_seeds < 1:
        raise ConfigError(f"need num_seeds >= 1, got {num_seeds}")
    runs = {
        (kind, i): replace(
            config, head=kind, seed_model=config.seed_model + i, seed_data=config.seed_data + i
        )
        for kind in kind_names
        for i in range(num_seeds)
    }
    by_key, _ = _train_runs(config, runs, dataset)

    rows = []
    summary = {}
    for kind in kind_names:
        train_accs, test_accs = [], []
        for i in range(num_seeds):
            r = by_key[(kind, i)]
            rows.append(
                {
                    "head": kind,
                    "seed_model": r.seed_model,
                    "seed_data": r.seed_data,
                    "train_accuracy": r.train_accuracy,
                    "test_accuracy": r.test_accuracy,
                }
            )
            train_accs.append(r.train_accuracy)
            test_accs.append(r.test_accuracy)
        summary[kind] = {
            "mean_train": float(np.mean(train_accs)),
            "std_train": float(np.std(train_accs)),
            "mean_test": float(np.mean(test_accs)),
            "std_test": float(np.std(test_accs)),
        }
    return ComparisonResult(kind_names, num_seeds, rows, summary)


# --- prompt-count sweep --------------------------------------------------------------

# rounds of one-epoch trainings that time the part counts against each other; even,
# so the last round takes the counts in descending order.  Each count gets 10 steps
# a round at the reference protocol; 4 rounds left every step of a count inflated
# in some sweeps on a busy 2-vCPU host, 8 did not
TIMING_ROUNDS = 8


@dataclass
class SweepResult:
    parts: list[int]
    rows: list[dict]
    flags: dict

    CSV_HEADER = ["num_parts", "train_accuracy", "test_accuracy", "is_default"]

    def csv(self) -> str:
        rows = [
            [r["num_parts"], r["train_accuracy"], r["test_accuracy"], int(r["is_default"])]
            for r in self.rows
        ]
        return rpt.csv_text(self.CSV_HEADER, rows)

    def svg(self) -> str:
        xs = [float(r["num_parts"]) for r in self.rows]
        series = {
            "train": [r["train_accuracy"] for r in self.rows],
            "test": [r["test_accuracy"] for r in self.rows],
        }
        return rpt.svg_lines(xs, series, "accuracy vs part count", "parts", "accuracy")


def sweep_parts(
    config: TrainConfig, parts: list[int], dataset: Dataset | None = None
) -> SweepResult:
    """One train/eval per part count with shared seeds; records CPU runtimes.

    runtime_monotone compares each part count's least per-step CPU time, which
    a busy machine inflates far less than a run's total, over TIMING_ROUNDS
    rounds of one-epoch trainings run after the sweep's own, so the counts
    are timed against each other and not each at its own time.  The rounds
    take the counts in ascending and descending order in turn, first
    ascending and last descending.  When the machine speeds up or slows down
    across the rounds, each count's least time comes from the round at the
    fast end, and that round gives the smaller counts the faster turns, so
    the drift cannot invert the order.  Each row also keeps its own
    training's times.
    """
    parts = [_count(s, "part counts") for s in parts]
    if not parts:
        raise ConfigError("need at least one part count")
    for s in parts:
        if s < 1:
            raise ConfigError(f"part counts must be >= 1, got {s}")
    if len(set(parts)) != len(parts):
        raise ConfigError(f"duplicate part counts: {parts}")
    runs = {s: replace(config, num_parts=s) for s in parts}
    by_key, ds = _train_runs(config, runs, dataset)
    ascending = sorted(parts)
    rounds = {
        (i, s): replace(runs[s], epochs=1)
        for i in range(TIMING_ROUNDS)
        for s in (ascending if i % 2 == 0 else ascending[::-1])
    }
    timed, _ = _train_runs(config, rounds, ds)
    default_parts = TrainConfig().num_parts

    rows = []
    for s in parts:
        r = by_key[s]
        rows.append(
            {
                "num_parts": s,
                "train_accuracy": r.train_accuracy,
                "test_accuracy": r.test_accuracy,
                "is_default": s == default_parts,
                "train_cpu_seconds": r.timing["train_cpu_seconds"],
                "step_cpu_min_seconds": r.timing["step_cpu_min_seconds"],
                "rounds_step_cpu_min_seconds": min(
                    timed[(i, s)].timing["step_cpu_min_seconds"] for i in range(TIMING_ROUNDS)
                ),
            }
        )

    ordered = sorted(rows, key=lambda r: r["num_parts"])
    runtimes = [r["rounds_step_cpu_min_seconds"] for r in ordered]
    best = max(rows, key=lambda r: (r["test_accuracy"], -r["num_parts"]))
    default_rows = [r for r in rows if r["is_default"]]
    flags = {
        "runtime_monotone": bool(
            all(a < b for a, b in zip(runtimes, runtimes[1:]))
        ),
        "best_parts": int(best["num_parts"]),
        "best_test_accuracy": float(best["test_accuracy"]),
        "default_within_one_point": (
            bool(best["test_accuracy"] - default_rows[0]["test_accuracy"] <= 0.01 + 1e-12)
            if default_rows
            else None
        ),
    }
    return SweepResult(parts, rows, flags)
