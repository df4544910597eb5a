"""Paired benchmark runs of two checkouts, with the run order alternated.

Run from anywhere, standard library only:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload train_crm --seeds 301-310 --seconds 30 --out BENCH_x.json

For every workload and seed, perfbench/run.py runs once in each checkout,
one run after the other; the parent runs first for even pair indices and
the change runs first for odd ones.  For each end-to-end metric that the
change's BENCHMARK.json names, the script prints each side's median and
quartiles, the number of pairs in which the change reads better, and
"(REGRESSED)" when the change's median is worse than the parent's by more
than the metric's bound, a fraction of the parent's median.  It also
prints, per side, the highest 1-minute load average read before a run and
the highest share of CPU time the host stole during a run (the `steal`
field of /proc/stat; inside a VM the load average cannot see other
guests): work on the other CPU and a host that steals CPU time both slow
the runs, so a pair run under either can be named.  Every run (metrics,
the run's wall and CPU time, the load before it, its steal share, seed,
run order, and perfbench's environment and details lines; the details'
`train_runs` is how many trained models the run held, which its
`peak_rss_mb` has to be read against) goes to the --out JSON file,
which is rewritten atomically after every pair: a set stopped part way
keeps every pair it ran and the summaries of the workloads it finished.

    python3 tools/bench_pairs.py --history .

prints one row per BENCH_*.json file in a directory and workload: each
end-to-end metric's change/parent median ratio, the pairs the change won,
and "gain" or "REGRESSED" as the file's summary reads.  Only ratios are
shown: each file pairs its own parent and change runs, and the machine's
speed drifts between sets, so absolute medians do not compare across files.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'301-305,310' -> [301, 302, 303, 304, 305, 310]; anything else exits with a message."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        hi = hi if dash else lo
        if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
            raise SystemExit(f"bench_pairs: bad --seeds {text!r}: {part!r} is not N or N-M, N <= M")
        seeds += range(int(lo), int(hi) + 1)
    return seeds


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_ticks(path: str = "/proc/stat") -> list[int] | None:
    """The machine's CPU time so far, in ticks: user, nice, system, idle,
    iowait, irq, softirq and steal from /proc/stat's `cpu` line; None where
    the file is missing or unreadable."""
    try:
        with open(path, encoding="ascii") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks if len(ticks) == 8 else None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """The share of the CPU time between two cpu_ticks readings that the host stole."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def tagged_line(lines: list[str], tag: str) -> dict | None:
    """The JSON of the first `perfbench <tag> {...}` line; None if there is none."""
    prefix = f"perfbench {tag} "
    return next((json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)),
                None)


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run: its parsed result, environment and details lines,
    wall and CPU seconds, the 1-minute load average just before it and the
    share of CPU time the host stole during it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    load = os.getloadavg()[0]
    ticks0 = cpu_ticks()
    cpu0, wall0 = children_cpu_s(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall, cpu = time.perf_counter() - wall0, children_cpu_s() - cpu0
    steal = steal_share(ticks0, cpu_ticks())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(f"bench_pairs: {checkout} {workload} seed {seed} failed:\n")
        sys.stderr.write(proc.stderr[-2000:] + "\n")
    return {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "wall_s": wall,
        "cpu_s": cpu,
        "load_1min": load,
        "steal_share": steal,
        "environment": tagged_line(lines, "environment"),
        "details": tagged_line(lines, "details"),
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change's wins and ties, whether
    a gain would be claimable and whether the change regressed.

    A gain is claimable with every change run correct, no more failed
    operations on the change's side than on the parent's, wins in 9 of 10
    pairs run (a pair missing the metric is no win) and a median difference
    beyond the parent's quartile distance.  The change regressed when its
    median is worse than the parent's by more than the metric's bound, a
    fraction of the parent's median."""
    failed = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
    sound = all(p["change"]["correct"] for p in pairs) and failed["change"] <= failed["parent"]
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        rows = [p for p in pairs if all(name in p[s]["metrics"] for s in SIDES)]
        if not rows:
            continue
        side = {s: quartiles([p[s]["metrics"][name] for p in rows]) for s in SIDES}
        wins = ties = 0
        for p in rows:
            a, b = p["parent"]["metrics"][name], p["change"]["metrics"][name]
            ties += a == b
            wins += (b < a) if lower else (b > a)
        gap = side["change"]["median"] - side["parent"]["median"]
        spread = side["parent"]["q3"] - side["parent"]["q1"]
        worse_by = gap if lower else -gap
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            **{s: side[s] for s in SIDES},
            "ratio": side["change"]["median"] / side["parent"]["median"]
            if side["parent"]["median"]
            else None,
            "pairs": len(pairs),
            "change_wins": wins,
            "ties": ties,
            "gain_claimable": sound and worse_by < 0 and wins >= 0.9 * len(pairs) and -worse_by > spread,
            "regressed": worse_by > m["bound"] * abs(side["parent"]["median"]),
        }
    return out


def print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: median [q1, q3] parent -> change, change better in n of pairs")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        ratio = f"{s['ratio']:.3f}x" if s["ratio"] is not None else "-"
        print(f"  {name:<18} {p['median']:>10.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
              f"{c['median']:>10.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {s['unit']:<9} {ratio:>7}  "
              f"{s['change_wins']}/{s['pairs']}{' (gain)' if s['gain_claimable'] else ''}"
              f"{' (REGRESSED)' if s['regressed'] else ''}")


def highest_loads(pairs: list[dict]) -> dict:
    """Per side, the highest 1-minute load average read before one of its runs."""
    return {s: max(p[s]["load_1min"] for p in pairs) for s in SIDES}


def highest_steal(pairs: list[dict]) -> dict:
    """Per side, the highest steal share of one of its runs; None where none was read."""
    shares = {s: [p[s]["steal_share"] for p in pairs if p[s]["steal_share"] is not None]
              for s in SIDES}
    return {s: max(shares[s]) if shares[s] else None for s in SIDES}


def print_loads(loads: dict, steal: dict) -> None:
    def share(s: str) -> str:
        return "n/a" if steal[s] is None else f"{steal[s]:.3f}"

    print(f"  highest 1-min load before a run: parent {loads['parent']:.2f}, "
          f"change {loads['change']:.2f}; highest steal share during a run: "
          f"parent {share('parent')}, change {share('change')}")


def write_report(path: str, report: dict) -> None:
    """Replace `path` with the report in one step, so a reader never sees half a file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def history(directory: str) -> list[str]:
    """One line per BENCH_*.json file in `directory` and workload, files in
    name order: each summarized metric's ratio, wins and flags.  A metric is
    REGRESSED when its ratio is worse than 1 by more than its bound, the
    rule summarize applies to the medians."""
    lines = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path, encoding="utf-8") as f:
            workloads = json.load(f)["workloads"]
        for workload, result in sorted(workloads.items()):
            cells = []
            for name, s in result.get("summary", {}).items():
                ratio = s["ratio"]  # None when the parent's median is 0
                known = ratio is not None
                worse_by = (ratio - 1.0 if s["better"] == "lower" else 1.0 - ratio) if known else 0.0
                cells.append(f"{name} {f'{ratio:.3f}x' if known else '-'} "
                             f"{s['change_wins']}/{s['pairs']}"
                             f"{' gain' if s['gain_claimable'] else ''}"
                             f"{' REGRESSED' if worse_by > s['bound'] else ''}")
            row = ", ".join(cells) if cells else "no summary (stopped part way)"
            lines.append(f"{os.path.basename(path)} {workload}: {row}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", action="append", help="perfbench workload; repeatable")
    parser.add_argument("--seeds", help="seeds, e.g. 301-310 or 5,7,9; one pair per seed")
    parser.add_argument("--seconds", type=int, default=30, help="perfbench --seconds")
    parser.add_argument("--out", help="JSON file for every run and the summaries")
    parser.add_argument("--history", metavar="DIR",
                        help="print the ratios of every BENCH_*.json in DIR and run nothing")
    args = parser.parse_args(argv)
    if args.history is not None:
        print("\n".join(history(args.history)))
        return 0
    missing = [f"--{k}" for k in ("parent", "change", "workload", "seeds") if not getattr(args, k)]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    seeds = parse_seeds(args.seeds)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                run = pair[side]
                print(f"bench_pairs: {workload} seed {seed} {side}: wall {run['wall_s']:.1f} s, "
                      f"correct {run['correct']}", file=sys.stderr, flush=True)
            pairs.append(pair)
            if args.out:
                report["workloads"][workload] = {"pairs": pairs}
                write_report(args.out, report)
        summary = summarize(pairs, metrics)
        print_summary(workload, summary)
        loads, steal = highest_loads(pairs), highest_steal(pairs)
        print_loads(loads, steal)
        envs = {s: [p[s]["environment"] for p in pairs if p[s]["environment"]] for s in SIDES}
        first = (envs["parent"] + envs["change"] or [{}])[0]
        report["workloads"][workload] = {
            "blas": first.get("blas"),
            "blas_thread_env": first.get("blas_thread_env"),
            "commits": {s: envs[s][0]["commit"] if envs[s] else None for s in SIDES},
            "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
            "highest_loads": loads,
            "highest_steal": steal,
            "summary": summary,
            "pairs": pairs,
        }
        if args.out:
            write_report(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
