"""tools/bench_pairs.py: seed parsing and the per-metric pair summary."""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
import bench_pairs  # noqa: E402

METRICS = [
    {"name": "train_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def run(metrics: dict, correct: bool = True, failed: int = 0) -> dict:
    return {"metrics": metrics, "correct": correct, "failed": failed}


def pair(parent: dict, change: dict) -> dict:
    return {"parent": run(parent), "change": run(change)}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("301-304,310") == [301, 302, 303, 304, 310]
    assert bench_pairs.parse_seeds("7") == [7]
    for bad in ("5-3", "a", "1,,2", "3-", "-3", "1-2-3", ""):
        with pytest.raises(SystemExit, match="bad --seeds"):
            bench_pairs.parse_seeds(bad)


def test_summary_counts_wins_and_applies_the_claim_rule():
    # the change is 1 s faster in 9 of 10 pairs; the parent's quartiles are 0.5 s apart
    parents = [5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6, 5.7, 5.8, 5.9]
    changes = [p - 1.0 for p in parents[:9]] + [6.0]
    pairs = [pair({"train_s": a, "rate": 1.0}, {"train_s": b, "rate": 1.0})
             for a, b in zip(parents, changes)]
    s = bench_pairs.summarize(pairs, METRICS)
    assert s["train_s"]["change_wins"] == 9 and s["train_s"]["ties"] == 0
    assert s["train_s"]["parent"]["median"] == pytest.approx(5.45)
    assert s["train_s"]["gain_claimable"]
    # ties count for neither side, so equal rates are no gain
    assert s["rate"]["change_wins"] == 0 and s["rate"]["ties"] == 10
    assert not s["rate"]["gain_claimable"]
    # eight wins of ten is too few
    pairs[0]["change"]["metrics"]["train_s"] = 9.0
    assert not bench_pairs.summarize(pairs, METRICS)["train_s"]["gain_claimable"]


def test_summary_needs_the_gap_beyond_the_parent_spread():
    parents = [4.0, 6.0] * 5
    pairs = [pair({"train_s": a, "rate": 1.0}, {"train_s": a - 0.5, "rate": 1.0}) for a in parents]
    s = bench_pairs.summarize(pairs, METRICS)["train_s"]
    assert s["change_wins"] == 10
    assert not s["gain_claimable"]  # a 0.5 s gap inside a 2 s quartile spread


def test_summary_counts_a_pair_missing_the_metric_as_no_win():
    # the change is faster in 8 pairs and reads no train_s in 2: 8 wins of 10 pairs run
    pairs = [pair({"train_s": 5.0 + i / 10}, {"train_s": 4.0}) for i in range(8)]
    pairs += [pair({"train_s": 5.0}, {}) for _ in range(2)]
    s = bench_pairs.summarize(pairs, METRICS)["train_s"]
    assert s["pairs"] == 10 and s["change_wins"] == 8
    assert not s["gain_claimable"]


def test_summary_voids_a_gain_when_the_change_fails():
    # nine clear wins plus one pair whose change run failed and reported no metrics
    pairs = [pair({"train_s": 5.0 + i / 10}, {"train_s": 3.0}) for i in range(9)]
    pairs.append({"parent": run({"train_s": 5.0}), "change": run({}, correct=False, failed=1)})
    s = bench_pairs.summarize(pairs, METRICS)["train_s"]
    assert s["pairs"] == 10 and s["change_wins"] == 9
    assert not s["gain_claimable"]
    # every run correct, but the change fails more operations than the parent
    pairs[-1] = pair({"train_s": 5.0}, {"train_s": 3.0})
    assert bench_pairs.summarize(pairs, METRICS)["train_s"]["gain_claimable"]
    pairs[0]["change"]["failed"] = 1
    assert not bench_pairs.summarize(pairs, METRICS)["train_s"]["gain_claimable"]
    pairs[1]["parent"]["failed"] = 1  # as many failures on both sides: no longer voided
    assert bench_pairs.summarize(pairs, METRICS)["train_s"]["gain_claimable"]


def test_summary_flags_a_median_worse_than_the_bound():
    # the bound is 0.25 of the parent's median for both metrics
    def summary(train_s: float, rate: float) -> dict:
        pairs = [pair({"train_s": 4.0, "rate": 2.0}, {"train_s": train_s, "rate": rate})
                 for _ in range(10)]
        return bench_pairs.summarize(pairs, METRICS)

    s = summary(5.2, 1.4)  # 30% slower, 30% lower rate
    assert s["train_s"]["regressed"] and s["rate"]["regressed"]
    assert not s["train_s"]["gain_claimable"]
    s = summary(4.8, 1.6)  # 20% worse on both: inside the bound
    assert not s["train_s"]["regressed"] and not s["rate"]["regressed"]
    s = summary(2.0, 4.0)  # much better on both
    assert not s["train_s"]["regressed"] and not s["rate"]["regressed"]
    assert s["train_s"]["gain_claimable"] and s["rate"]["gain_claimable"]


def test_print_summary_marks_a_regression(capsys):
    pairs = [pair({"train_s": 4.0, "rate": 2.0}, {"train_s": 5.2, "rate": 2.0}) for _ in range(10)]
    bench_pairs.print_summary("w", bench_pairs.summarize(pairs, METRICS))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["train_s", "rate"]
    assert lines[1].endswith("(REGRESSED)") and "REGRESSED" not in lines[2]


def fake_perfbench_run(monkeypatch, events, ticks):
    """run_once with a faked load average, /proc/stat reader and perfbench run;
    the reader returns the given readings in turn."""
    result = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {"train_s": {"value": 4.0, "unit": "s"}}}
    readings = iter(ticks)

    def loadavg():
        events.append("load")
        return (1.5, 0.5, 0.25)

    def cpu_ticks():
        events.append("ticks")
        return next(readings)

    def fake_run(cmd, **kwargs):
        events.append("run")
        stdout = ('perfbench environment {"commit": "abc"}\n'
                  'perfbench details {"train_runs": 3}\n' + json.dumps(result) + "\n")
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.os, "getloadavg", loadavg)
    monkeypatch.setattr(bench_pairs, "cpu_ticks", cpu_ticks)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    return bench_pairs.run_once(".", "train_crm", 3, 1)


def test_run_once_records_the_load_before_the_run(monkeypatch):
    events = []
    # 200 ticks pass during the run, 50 of them stolen
    before = [100, 0, 10, 500, 0, 0, 0, 20]
    after = [200, 0, 30, 530, 0, 0, 0, 70]
    run_ = fake_perfbench_run(monkeypatch, events, [before, after])
    assert events == ["load", "ticks", "run", "ticks"]
    assert run_["load_1min"] == 1.5
    assert run_["steal_share"] == 0.25
    assert run_["metrics"] == {"train_s": 4.0} and run_["environment"] == {"commit": "abc"}
    # how many trained models the run held, to read its peak_rss_mb against
    assert run_["details"] == {"train_runs": 3}
    assert bench_pairs.tagged_line(['perfbench environment {"commit": "abc"}'], "details") is None


def test_run_once_records_no_steal_share_without_proc_stat(monkeypatch, tmp_path):
    assert bench_pairs.cpu_ticks(str(tmp_path / "missing")) is None
    (tmp_path / "short").write_text("cpu  1 2 3\n")
    assert bench_pairs.cpu_ticks(str(tmp_path / "short")) is None
    (tmp_path / "stat").write_text("cpu  1 2 3 4 5 6 7 8 9 10\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
    assert bench_pairs.cpu_ticks(str(tmp_path / "stat")) == [1, 2, 3, 4, 5, 6, 7, 8]
    run_ = fake_perfbench_run(monkeypatch, [], [None, None])
    assert run_["steal_share"] is None and run_["correct"]


def test_highest_loads_per_side(capsys):
    pairs = [
        {"parent": {"load_1min": 0.4, "steal_share": 0.02},
         "change": {"load_1min": 1.9, "steal_share": None}},
        {"parent": {"load_1min": 1.1, "steal_share": 0.3},
         "change": {"load_1min": 0.2, "steal_share": None}},
    ]
    loads = bench_pairs.highest_loads(pairs)
    assert loads == {"parent": 1.1, "change": 1.9}
    steal = bench_pairs.highest_steal(pairs)
    assert steal == {"parent": 0.3, "change": None}
    bench_pairs.print_loads(loads, steal)
    out = capsys.readouterr().out
    assert "parent 1.10, change 1.90" in out
    assert "highest steal share during a run: parent 0.300, change n/a" in out


@pytest.mark.parametrize(
    "seeds, finished", [("1-2", ["a"]), ("1-3", [])], ids=["in_b", "in_a"]
)
def test_an_interrupted_set_keeps_its_pairs(seeds, finished, tmp_path, monkeypatch):
    # workloads a then b; the third pair's first run raises
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    runs = []

    def fake_run_once(checkout, workload, seed, seconds):
        if len(runs) == 4:
            raise KeyboardInterrupt
        runs.append((workload, seed))
        return {**run({"train_s": 4.0, "rate": 1.0}), "attempted": 1, "wall_s": 1.0,
                "cpu_s": 1.0, "load_1min": 0.5, "steal_share": None, "environment": None,
                "details": None}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "out.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "a",
            "--workload", "b", "--seeds", seeds, "--seconds", "1", "--out", str(out)]
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main(argv)
    report = json.loads(out.read_text())
    assert [p["seed"] for p in report["workloads"]["a"]["pairs"]] == [1, 2]
    assert [w for w, entry in report["workloads"].items() if "summary" in entry] == finished
    for name in finished:
        assert report["workloads"][name]["summary"]["train_s"]["pairs"] == 2
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "out.json"]


def summary_entry(ratio, better="lower", wins=10, gain=False):
    return {"ratio": ratio, "better": better, "bound": 0.25, "change_wins": wins, "pairs": 10,
            "gain_claimable": gain}


def test_history_prints_each_files_ratios(tmp_path, capsys):
    # two hand-written sets; the older file's summaries lack the stored "regressed" flag
    newer = {"workloads": {
        "train_pwcs": {"summary": {"peak_rss_mb": summary_entry(0.92, gain=True)}},
        "train_crm": {"summary": {"train_s": summary_entry(1.3, wins=0),
                                  "rate": summary_entry(0.8, better="higher", wins=2)}},
    }}
    older = {"workloads": {"train_crm": {"summary": {"rate": summary_entry(None)}},
                           "eval_crm": {"pairs": []}}}
    (tmp_path / "BENCH_b.json").write_text(json.dumps(newer))
    (tmp_path / "BENCH_a.json").write_text(json.dumps(older))
    (tmp_path / "other.json").write_text("not a benchmark")
    assert bench_pairs.main(["--history", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_a.json eval_crm: no summary (stopped part way)",
        "BENCH_a.json train_crm: rate - 10/10",
        "BENCH_b.json train_crm: train_s 1.300x 0/10 REGRESSED, rate 0.800x 2/10",
        "BENCH_b.json train_pwcs: peak_rss_mb 0.920x 10/10 gain",
    ]


def test_history_reads_every_committed_set():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    files = [f for f in os.listdir(root) if f.startswith("BENCH_") and f.endswith(".json")]
    lines = bench_pairs.history(root)
    assert {line.split()[0] for line in lines} == set(files)
    assert not [line for line in lines if "no summary" in line]
