"""xrhead benchmark: runs one workload, checks its outputs, prints its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_crm --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each exists):
    train_crm   harness.train of CRM_FULL on cross-structure data, reference protocol,
                with harness.predict_logits passes of the saved, reloaded model
    train_pwcs  the same data, seeds and protocol with the parameter-free PWCS head

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
wraps the calls into each layer (see LAYERS) from outside the package and
reports per-layer self times, call counts, step timings and the tracing
overhead; the spans are written to .perfbench_out/ when the run ends.

Every operation (one training run or one eval pass) goes through a
correctness gate; see Gate and the *_problems checks.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The sources are imported from src/ of the checkout this file sits in.
OpenBLAS runs one thread (BLAS_THREADS), set before numpy is imported.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

# One BLAS thread per run: on a shared 2-vCPU VM the default of two spread the
# training times more (CRM_FULL 10.1-12.6 s against 10.7-11.3 s with one) and
# doubled the CPU time, and two busy threads per process measure the
# scheduler as soon as anything else runs.  environment() records what
# OpenBLAS reports.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings)

from tracing import Tracer, layer_totals, percentile, steps, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

WORKLOADS = {"train_crm": "CRM_FULL", "train_pwcs": "PWCS"}

# span name -> the name its caller resolves ("module:attribute path")
LAYERS = {
    "attention.forward": "xrhead.attention:PartAttention.forward",
    "prompts.encode": "xrhead.prompts:PromptBank.encode",
    "encoders.text_encode": "xrhead.encoders:FrozenTextEncoder.encode",
    "encoders.image_encode": "xrhead.encoders:FrozenImageEncoder.encode",
    "heads.relation_batch": "xrhead.heads:relation_batch",
    "heads.crm_classifier": "xrhead.heads:CrmHead.logits_from_relation",
    "heads.pwcs": "xrhead.heads:PwcsHead.logits",
    "numerics.cross_entropy": "xrhead.harness:cross_entropy",
    "numerics.backward": "xrhead.harness:backward",
    "numerics.sgd_step": "xrhead.numerics.optim:Sgd.step",
    "numerics.zero_grads": "xrhead.numerics.optim:Sgd.zero_grads",
    "harness.evaluate": "xrhead.harness:evaluate",
    "harness.predict_logits": "xrhead.harness:predict_logits",
    "harness.build_model": "xrhead.harness:build_model",
    "harness.load_model": "xrhead.harness:load_model",
    "data.generate": "xrhead.data:generate",
    "data.few_shot_split": "xrhead.harness:few_shot_split",
    "data.load_dataset": "xrhead.data:load_dataset",
}

SETUP_REPEATS = 15  # set-ups per CPU; see timed_setup
MIN_TRAININGS = 3  # a run trains at least this often, however short --seconds is
PASSES_PER_ROUND = 60  # timed eval passes after each training
WARMUP_PASSES = 3
TRACED_EVAL_PASSES = 40
STEP_TOLERANCE = 0.05  # traced phases plus loop_other must sum to the step time within this share
RTOL = 1e-12


def load_xrhead():
    """Import xrhead from src/ of this checkout, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    package = os.path.join(src, "xrhead")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no xrhead sources under {src}")
    sys.path.insert(0, src)
    import xrhead

    if os.path.dirname(os.path.abspath(xrhead.__file__)) != package:
        raise SystemExit(f"perfbench: imported xrhead from {xrhead.__file__}, not {package}")
    return xrhead


def layer_targets():
    """(owner, attribute, span name) for every entry of LAYERS."""
    out = []
    for span, where in LAYERS.items():
        module, _, path = where.partition(":")
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        out.append((owner, attr, span))
    return out


# --- correctness gate ------------------------------------------------------------


class Gate:
    """Counts operations; one fails if it raises or its check reports problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what: str, call, check):
        self.attempted += 1
        try:
            result = call()
            problems = check(result)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAILED {what}: {p}", file=sys.stderr)
            return None
        return result

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def close(values, reference) -> bool:
    """Equal shapes and every element within RTOL of the reference, relative."""
    a = np.asarray(values, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= RTOL * np.abs(b)))


def same_report(a, b) -> bool:
    """RunReport equality, with the epoch losses compared bit for bit."""
    return a == b and np.asarray(a.epoch_losses).tobytes() == np.asarray(b.epoch_losses).tobytes()


def training_problems(report, pinned: dict | None, first) -> list[str]:
    problems = []
    losses = np.asarray(report.epoch_losses, dtype=np.float64)
    if losses.size != report.config["epochs"] or not np.all(np.isfinite(losses)):
        problems.append("epoch losses missing or not finite")
    if pinned is not None:
        for key in ("train_accuracy", "test_accuracy", "param_count"):
            if getattr(report, key) != pinned[key]:
                problems.append(f"{key} {getattr(report, key)!r} != pinned {pinned[key]!r}")
        if not close(losses, pinned["epoch_losses"]):
            problems.append("epoch_losses differ from the pinned ones by more than 1e-12 relative")
    if first is not None and not same_report(report, first):
        problems.append("RunReport differs from the run's first training on the same inputs")
    return problems


class EvalCheck:
    """Checks eval-pass logits of one model.

    The first pass that passes is checked against the training report (its
    argmax accuracy must equal report.test_accuracy) and, at the pinned seed,
    against the pinned predictions and logits; later passes must give the same
    argmax predictions and logits within RTOL.
    """

    def __init__(self, labels: np.ndarray, report, pinned: dict | None):
        self.labels = np.asarray(labels)
        self.report = report
        self.pinned = pinned
        self.expected = None

    def __call__(self, logits: np.ndarray) -> list[str]:
        if not np.all(np.isfinite(logits)):
            return ["non-finite logits"]
        preds = np.argmax(logits, axis=1)
        if self.expected is not None:
            problems = []
            if not np.array_equal(preds, np.argmax(self.expected, axis=1)):
                problems.append("argmax predictions differ from the in-memory model's")
            if not close(logits, self.expected):
                problems.append("logits differ from the in-memory model's by more than 1e-12 relative")
            return problems
        problems = []
        accuracy = float(np.mean(preds == self.labels))
        if accuracy != self.report.test_accuracy:
            problems.append(f"accuracy {accuracy!r} != report {self.report.test_accuracy!r}")
        if self.pinned is not None:
            if preds_digest(preds) != self.pinned["test_preds_sha256"]:
                problems.append("argmax predictions differ from the pinned ones")
            if not close(logits[0], self.pinned["test_logits_row0"]) or not close(
                np.abs(logits).sum(), self.pinned["test_logits_abs_sum"]
            ):
                problems.append("logits differ from the pinned ones by more than 1e-12 relative")
        if not problems:
            self.expected = logits
        return problems


def preds_digest(preds: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(preds, dtype="<i8").tobytes()).hexdigest()


def load_pins(head: str, seed: int) -> dict | None:
    with open(REFERENCE_FILE, encoding="utf-8") as f:
        reference = json.load(f)
    return reference["heads"][head] if seed == reference["seed"] else None


# --- operations -------------------------------------------------------------------


def data_spec(seed: int) -> dict:
    return {"cross_structure": True, "seed": seed}


def make_config(xr, head: str, seed: int):
    """The reference protocol (default TrainConfig) with every seed drawn from the workload seed."""
    return xr.harness.TrainConfig(head=head, data_spec=data_spec(seed), seed_data=seed, seed_model=seed)


@dataclass
class Trained:
    model: object
    report: object
    wall: float
    cpu: float


def timed_train(xr, config, ds) -> Trained:
    cpu0, wall0 = time.process_time(), time.perf_counter()
    model, report = xr.harness.train(config, ds)
    return Trained(model, report, time.perf_counter() - wall0, time.process_time() - cpu0)


def timed_pass(xr, model, patches):
    cpu0, wall0 = time.process_time(), time.perf_counter()
    logits = xr.harness.predict_logits(model, patches)
    return logits, time.perf_counter() - wall0, time.process_time() - cpu0


def timed_setup(make):
    """Set-up wall time, and the last value made.

    The time is the median of SETUP_REPEATS set-ups on each CPU the process
    may use, averaged over those CPUs.  Set-up is single-threaded, and the
    vCPUs of a shared VM can run it at different speeds (18 and 24 ms for
    data.generate on a 2-vCPU Xeon VM), so an unpinned median jumps between
    them from run to run.  Only the calling thread is pinned, and only here.
    """
    cpus = os.sched_getaffinity(0)
    medians = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                value = make()
                times.append(time.perf_counter() - t0)
            medians.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(medians), value


def eval_passes(gate, xr, model, patches, check, count):
    """Run `count` passes; (wall, cpu) of each that passes."""
    out = []
    for _ in range(count):
        result = gate.attempt("eval pass", lambda: timed_pass(xr, model, patches), lambda r: check(r[0]))
        if result is not None:
            out.append(result[1:])
    return out


def generate(xr, seed: int):
    return xr.data.generate(xr.data.SyntheticSpec.from_dict(data_spec(seed)))


# --- workloads ----------------------------------------------------------------------


def run_workload(xr, gate, head, seed, seconds):
    """Set up, train, save and reload the model, then alternate PASSES_PER_ROUND
    timed eval passes of the reloaded model with further trainings on the same
    inputs until `seconds` pass (at least MIN_TRAININGS trainings attempted in all).

    Returns (setup_s, trainings, rounds, images per pass), where rounds holds
    the (wall, cpu) of each round's passes; setup_s is None if the first
    training or the in-memory pass failed.
    """
    pinned = load_pins(head, seed)
    generate_s, ds = timed_setup(lambda: generate(xr, seed))
    config = make_config(xr, head, seed)
    num_images = ds.test_labels.shape[0]
    deadline = time.perf_counter() + seconds
    first = gate.attempt(
        "train", lambda: timed_train(xr, config, ds), lambda r: training_problems(r.report, pinned, None)
    )
    if first is None:
        return None, [], [], num_images
    check = in_memory_check(gate, xr, first, ds, pinned)
    if check is None:
        return None, [first], [], num_images
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        reload_s, (loaded_ds, model) = save_and_reload(xr, tmp, first, ds)
    eval_passes(gate, xr, model, loaded_ds.test_patches, check, count=WARMUP_PASSES)
    trainings, rounds, attempts = [first], [], 1
    while True:
        rounds.append(eval_passes(gate, xr, model, loaded_ds.test_patches, check, count=PASSES_PER_ROUND))
        if attempts >= MIN_TRAININGS and time.perf_counter() >= deadline:
            break
        attempts += 1
        done = gate.attempt(
            "train",
            lambda: timed_train(xr, config, ds),
            lambda r: training_problems(r.report, pinned, first.report),
        )
        if done is not None:
            trainings.append(done)
    return generate_s + reload_s, trainings, rounds, num_images


def in_memory_check(gate, xr, trained, ds, pinned):
    """One pass of the in-memory model; its logits become what every reloaded pass must match."""
    check = EvalCheck(ds.test_labels, trained.report, pinned)
    result = gate.attempt(
        "eval pass (in-memory model)", lambda: timed_pass(xr, trained.model, ds.test_patches), lambda r: check(r[0])
    )
    return None if result is None else check


def save_and_reload(xr, tmp, trained, ds):
    """Save the model and dataset with the library's writers; (set-up time, (dataset, model)) of reloading them."""
    model_dir, data_file = os.path.join(tmp, "model"), os.path.join(tmp, "data.xrvd")
    xr.harness.save_model(model_dir, trained.model, trained.report)
    xr.data.save_dataset(data_file, ds)
    return timed_setup(lambda: (xr.data.load_dataset(data_file), xr.harness.load_model(model_dir)[0]))


def end_to_end_metrics(setup_s, trainings, rounds, num_images):
    """eval_ms_tail is the median over the rounds of each round's tail: a
    stretch of slow passes (the VM preempted for a second or two) moves the
    tail of the round it falls in, not the run's figure."""
    passes = [p for r in rounds for p in r]
    walls = [p[0] for p in passes]
    tails = [tail([p[0] for p in r]) for r in rounds]
    tail_s = statistics.median(t[0] for t in tails)
    metrics = {
        "setup_s": (setup_s, "s"),
        "train_s": (statistics.median(t.wall for t in trainings), "s"),
        "train_cpu_s": (statistics.median(t.cpu for t in trainings), "s"),
        "eval_ms_p50": (statistics.median(walls) * 1e3, "ms"),
        "eval_ms_tail": (tail_s * 1e3, "ms"),
        "eval_images_per_s": (num_images * len(walls) / sum(walls), "images/s"),
        "eval_cpu_ms": (statistics.median(p[1] for p in passes) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "train_runs": len(trainings),
        "eval_passes": len(walls),
        "eval_passes_per_round": [len(r) for r in rounds],
        "eval_ms_tail_percentile": [t[1] for t in tails],
        "eval_images_per_pass": num_images,
    }
    return metrics, details


def run_untraced(xr, gate, workload, seed, seconds):
    setup_s, trainings, rounds, num_images = run_workload(xr, gate, WORKLOADS[workload], seed, seconds)
    rounds = [r for r in rounds if len(r) > 10]  # tail() needs more than 10 passes
    if setup_s is None or not rounds:
        return None, {}
    return end_to_end_metrics(setup_s, trainings, rounds, num_images)


def run_traced(xr, gate, workload, seed):
    """One untraced and one traced training on the same inputs, then traced
    reloads and eval passes of the traced model.

    The per-layer metrics cover every span: the set-ups (data.generate, and
    load_dataset + load_model), the traced training and TRACED_EVAL_PASSES
    eval passes of the reloaded model.
    """
    head = WORKLOADS[workload]
    pinned = load_pins(head, seed)
    tracer = Tracer()
    targets = layer_targets()
    config = make_config(xr, head, seed)

    with tracer.installed(targets):
        ds = timed_setup(lambda: generate(xr, seed))[1]
    untraced = gate.attempt(
        "train", lambda: timed_train(xr, config, ds), lambda r: training_problems(r.report, pinned, None)
    )
    if untraced is None:
        return None, {}, tracer
    train_mark = len(tracer.spans)
    with tracer.installed(targets):
        traced = gate.attempt(
            "traced train",
            lambda: timed_train(xr, config, ds),
            lambda r: training_problems(r.report, pinned, untraced.report)
            + step_problems(tracer, train_mark, config, r.report.num_train),
        )
    if traced is None:
        return None, {}, tracer
    check = in_memory_check(gate, xr, traced, ds, pinned)
    if check is None:
        return None, {}, tracer
    eval_mark = len(tracer.spans)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp, tracer.installed(targets):
        loaded_ds, model = save_and_reload(xr, tmp, traced, ds)[1]
        eval_passes(gate, xr, model, loaded_ds.test_patches, check, count=TRACED_EVAL_PASSES)

    metrics = {}
    for span, totals in layer_totals(tracer.spans, LAYERS).items():
        metrics[f"{span}.self_s"] = (totals["self_s"], "s")
        metrics[f"{span}.cpu_s"] = (totals["cpu_s"], "s")
        metrics[f"{span}.calls"] = (totals["calls"], "count")
    step_list = steps(tracer.spans, "numerics.zero_grads", "numerics.sgd_step", first=train_mark)
    step_ms = [s.seconds * 1e3 for s in step_list]
    metrics["harness.step_ms_p50"] = (statistics.median(step_ms), "ms")
    metrics["harness.step_ms_p99"] = (percentile(step_ms, 99), "ms")
    metrics["harness.loop_other_s"] = (sum(s.other_s for s in step_list), "s")
    metrics["numerics.param_count"] = (model.param_count(), "count")
    metrics["prompts.encode_useful_ratio"] = (encode_useful_ratio(tracer.spans, eval_mark), "ratio")
    metrics["trace.overhead_frac"] = (traced.wall / untraced.wall - 1.0, "fraction")
    details = {
        "untraced_train_s": untraced.wall,
        "traced_train_s": traced.wall,
        "steps": len(step_list),
        "step_s": sum(s.seconds for s in step_list),
        "step_phases_s": sum(s.phases_s for s in step_list),
        "spans": len(tracer.spans),
        "eval_first_span": eval_mark,
    }
    return metrics, details, tracer


def step_problems(tracer, first, config, num_train) -> list[str]:
    """The traced training has one step per batch, and its phases plus the
    uncovered time sum to the step time within STEP_TOLERANCE."""
    step_list = steps(tracer.spans, "numerics.zero_grads", "numerics.sgd_step", first=first)
    batches = num_train // config.batch_size + (num_train % config.batch_size >= 2)
    if len(step_list) != config.epochs * batches:
        return [f"traced {len(step_list)} steps, expected {config.epochs * batches}"]
    total = sum(s.seconds for s in step_list)
    covered = sum(s.phases_s + s.other_s for s in step_list)
    if abs(covered - total) > STEP_TOLERANCE * total:
        return [f"step phases plus loop_other sum to {covered:.6f} s, steps took {total:.6f} s"]
    return []


def encode_useful_ratio(spans, first: int) -> float:
    """Eval passes per prompt-bank encode made inside an eval pass (1.0 = one encode per pass)."""
    passes = encodes = 0
    for i in range(first, len(spans)):
        if spans[i].name == "harness.predict_logits":
            passes += 1
        elif spans[i].name == "prompts.encode":
            parent = spans[i].parent
            while parent >= 0 and spans[parent].name != "harness.predict_logits":
                parent = spans[parent].parent
            encodes += parent >= 0
    return passes / encodes if encodes else 0.0


# --- environment and output -------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a git checkout."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git_dir, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """OpenBLAS version and the thread count it runs with, asked of numpy's bundled library."""
    info = {"version": None, "config": None, "threads": None}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    info["threads"], info["config"] = threads(), config().decode()
                    return info
    return info


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def write_spans(path: str, env: dict, spans) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"environment": env}) + "\n")
        for i, s in enumerate(spans):
            row = {"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
                   "cpu_start": s.cpu_start, "cpu_end": s.cpu_end}
            f.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")

    xr = load_xrhead()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    gate = Gate()
    if args.trace:
        metrics, details, tracer = run_traced(xr, gate, args.workload, args.seed)
        spans_file = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")
        write_spans(spans_file, env, tracer.spans)
        details["spans_file"] = os.path.relpath(spans_file, ROOT)
    else:
        metrics, details = run_untraced(xr, gate, args.workload, args.seed, args.seconds)
    if metrics is None:
        gate.failed = max(gate.failed, 1)
        metrics = {}

    print("perfbench environment " + json.dumps(env, sort_keys=True))
    print("perfbench details " + json.dumps(details, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>22.9g} {unit}")
    print(f"  {'failed_frac':<34} {gate.failed_frac:>22.9g} fraction "
          f"({gate.failed} of {gate.attempted} operations)")
    result = {
        "correct": gate.failed == 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
