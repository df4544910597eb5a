"""Spans around calls into xrhead's layers, recorded from outside the package.

A Tracer replaces a function at the name its caller resolves (a module global
such as `xrhead.harness.backward`, or a class attribute such as
`PartAttention.forward`) with a wrapper that records one Span per call: the
span name, wall-clock start and end, process CPU start and end (all threads,
so BLAS helper threads count), and the index of the enclosing span.  Spans
stay in memory until the run ends.  Uninstalling puts the original objects
back, so nothing inside the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    start: float = 0.0  # time.perf_counter(), seconds
    end: float = 0.0
    cpu_start: float = 0.0  # time.process_time(), seconds
    cpu_end: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_spans[-1] if open_spans else -1)
            open_spans.append(len(spans))
            spans.append(span)
            span.cpu_start = time.process_time()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.process_time()
                open_spans.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap each (owner, attribute, span name) for the duration of the block.

        The attribute must be a plain function defined on the owner itself, so
        restoring it with setattr gives back exactly the object that was there.
        """
        if self._installed:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, name in targets:
                original = vars(owner).get(attr)
                if not inspect.isfunction(original):
                    raise TypeError(f"{owner!r} defines no function {attr!r}")
                setattr(owner, attr, self.wrap(name, original))
                self._installed.append((owner, attr, original))
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per span: (wall, cpu) duration minus the durations of its direct children."""
    wall = [s.wall for s in spans]
    cpu = [s.cpu for s in spans]
    for s in spans:
        if s.parent >= 0:
            wall[s.parent] -= s.wall
            cpu[s.parent] -= s.cpu
    return wall, cpu


def layer_totals(spans: list[Span], names, first: int = 0) -> dict[str, dict]:
    """Self wall seconds, self CPU seconds and call count per span name, over spans[first:]."""
    out = {name: {"self_s": 0.0, "cpu_s": 0.0, "calls": 0} for name in names}
    wall, cpu = self_times(spans)
    for i in range(first, len(spans)):
        entry = out.get(spans[i].name)
        if entry is not None:
            entry["self_s"] += wall[i]
            entry["cpu_s"] += cpu[i]
            entry["calls"] += 1
    return out


@dataclass
class Step:
    seconds: float  # start of the first span to the end of the last
    phases_s: float  # summed self time of every span inside the step
    other_s: float  # time between the step's top-level spans that no span covers


def steps(spans: list[Span], first_name: str, last_name: str, first: int = 0) -> list[Step]:
    """Split spans[first:] into steps that open with a top-level `first_name`
    span and close with the next top-level `last_name` span.

    spans[first] must be top level: a span's children follow it in the list,
    so each top-level span owns the indices up to the next top-level span.
    """
    wall, _ = self_times(spans)
    top = [i for i in range(first, len(spans)) if spans[i].parent == -1]
    owned_until = top[1:] + [len(spans)]
    out = []
    opened = None
    for j, i in enumerate(top):
        if opened is None:
            if spans[i].name != first_name:
                continue
            opened = j
        if spans[i].name == last_name:
            members = top[opened : j + 1]
            out.append(
                Step(
                    seconds=spans[i].end - spans[members[0]].start,
                    phases_s=sum(wall[members[0] : owned_until[j]]),
                    other_s=sum(spans[b].start - spans[a].end for a, b in zip(members, members[1:])),
                )
            )
            opened = None
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least `beyond` values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} values for a tail, got {n}")
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n
