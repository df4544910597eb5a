"""JSON objects in and out, deterministic CSV and SVG emission, atomic file writes.

Numbers are formatted with repr (shortest round-trip) so equal runs produce
byte-identical files.  Wall-clock timings never go into CSV or SVG outputs;
they live in JSON reports under an explicit "timing" key.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import MISSING, fields

from .errors import ConfigError


def format_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(x) for x in row])
    return buf.getvalue()


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in a UTF-8 file; bad UTF-8, bad JSON or another value raise ConfigError."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return raw


def _one_of(*types):
    """A check for a JSON value of one of `types`.

    bool is an int subclass: it passes only where `types` names bool.
    """
    return lambda v: isinstance(v, types) and (bool in types or not isinstance(v, bool))


def _list_of(check):
    return lambda v: isinstance(v, list) and all(check(x) for x in v)


# the check of a JSON value per annotation name of a dataclass field
_JSON_TYPES = {
    "int": _one_of(int),
    "float": _one_of(int, float),
    "bool": _one_of(bool),
    "str": _one_of(str),
    "dict": _one_of(dict),
    "None": _one_of(type(None)),
}
_JSON_TYPES["list[float]"] = _list_of(_JSON_TYPES["float"])
_JSON_TYPES["list[str]"] = _list_of(_JSON_TYPES["str"])


def _json_types(annotation: str) -> tuple:
    """The checks of the JSON values a field annotated e.g. 'int | None' accepts."""
    names = [t.strip() for t in annotation.split("|")]
    unmapped = [t for t in names if t not in _JSON_TYPES]
    if unmapped:
        raise TypeError(f"no JSON type for annotation {annotation!r}: {unmapped}")
    return tuple(_JSON_TYPES[t] for t in names)


class JsonFields:
    """Builds a dataclass from a JSON object whose keys name its fields.

    The reading half of a record's JSON form; `dataclasses.asdict` and
    json_text write it.  Unknown keys, missing keys of fields without a
    default and values of the wrong JSON type raise `error`, the caller's
    own error class; a list's elements are checked too.  `check` applies
    the type rule alone, to a record made in Python.  The accepted
    types come from the field annotations when the JsonFields is made, at
    the caller's import, so a field without a JSON type fails there and
    not on load.
    """

    def __init__(self, cls: type, error: type[Exception], what: str):
        self.cls, self.error, self.what = cls, error, what
        self.types = {f.name: _json_types(f.type) for f in fields(cls)}
        self.required = {
            f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
        }

    def from_dict(self, raw: dict):
        unknown = sorted(set(raw) - set(self.types))
        if unknown:
            raise self.error(f"unknown {self.what} keys: {', '.join(unknown)}")
        missing = sorted(self.required - set(raw))
        if missing:
            raise self.error(f"missing {self.what} keys: {', '.join(missing)}")
        obj = self.cls(**raw)
        self.check(obj)
        return obj

    def check(self, obj) -> None:
        """Raise `error` when a field of obj holds a value of the wrong JSON type."""
        for f in fields(self.cls):
            value = getattr(obj, f.name)
            if not any(check(value) for check in self.types[f.name]):
                raise self.error(f"{self.what} key {f.name!r} must be {f.type}, got {value!r}")


def write_atomic(path: str, data: str | bytes | bytearray) -> None:
    """Write via a temp file and rename so readers never see partial files.

    Text is written as UTF-8.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- tiny hand-rolled svg ------------------------------------------------------

_W, _H = 640, 400
_MARGIN = 56
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axes(title: str, xlabel: str, ylabel: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 8}" text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_H / 2})">{ylabel}</text>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
    ]


def _scale(vals: list[float]) -> tuple[float, float]:
    lo, hi = min(vals), max(vals)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def _plot_area(xs: list[float], ys: list[float]):
    """(px, py, ylo, yhi): data-to-pixel maps over the padded ranges of xs and ys."""
    xlo, xhi = _scale(xs)
    ylo, yhi = _scale(ys)

    def px(x):
        return _MARGIN + (x - xlo) / (xhi - xlo) * (_W - 2 * _MARGIN)

    def py(y):
        return _H - _MARGIN - (y - ylo) / (yhi - ylo) * (_H - 2 * _MARGIN)

    return px, py, ylo, yhi


def svg_lines(
    xs: list[float],
    series: dict[str, list[float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Line chart with one polyline per labeled series."""
    px, py, ylo, yhi = _plot_area(xs, [y for ys in series.values() for y in ys])
    parts = _axes(title, xlabel, ylabel)
    for x in xs:
        parts.append(
            f'<text x="{_fmt(px(x))}" y="{_H - _MARGIN + 16}" text-anchor="middle">{format_cell(x)}</text>'
        )
    for i, (label, ys) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{_W - _MARGIN + 4}" y="{_fmt(py(ys[-1]))}" fill="{color}">{label}</text>'
        )
    lo_label, hi_label = f"{ylo:.3f}", f"{yhi:.3f}"
    parts.append(f'<text x="{_MARGIN - 4}" y="{_H - _MARGIN}" text-anchor="end">{lo_label}</text>')
    parts.append(f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" text-anchor="end">{hi_label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_histogram(counts, edges, title: str, xlabel: str) -> str:
    counts = list(counts)
    edges = list(edges)
    top = max(max(counts), 1)
    parts = _axes(title, xlabel, "count")
    n = len(counts)
    span = _W - 2 * _MARGIN
    for i, c in enumerate(counts):
        x0 = _MARGIN + span * i / n
        width = span / n - 2
        height = (_H - 2 * _MARGIN) * c / top
        y0 = _H - _MARGIN - height
        parts.append(
            f'<rect x="{_fmt(x0 + 1)}" y="{_fmt(y0)}" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" fill="#1f77b4"/>'
        )
    parts.append(
        f'<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" text-anchor="middle">{edges[0]:.3f}</text>'
    )
    parts.append(
        f'<text x="{_W - _MARGIN}" y="{_H - _MARGIN + 16}" text-anchor="middle">{edges[-1]:.3f}</text>'
    )
    parts.append(f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" text-anchor="end">{top}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_scatter(points, groups, title: str) -> str:
    """points (n, 2), groups (n,) ints coloring the markers."""
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    px, py, _, _ = _plot_area(xs, ys)
    parts = _axes(title, "dim 1", "dim 2")
    for (x, y), g in zip(zip(xs, ys), groups):
        color = _COLORS[int(g) % len(_COLORS)]
        parts.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_weight_grid(weights, title: str) -> str:
    """Attention weights (tokens, slots) as a grayscale grid, row per token."""
    rows = len(weights)
    cols = len(weights[0])
    cell_w = (_W - 2 * _MARGIN) / cols
    cell_h = (_H - 2 * _MARGIN) / rows
    parts = _axes(title, "slot (0 = background)", "token")
    for i, row in enumerate(weights):
        for j, v in enumerate(row):
            shade = int(round(255 * (1.0 - min(max(float(v), 0.0), 1.0))))
            parts.append(
                f'<rect x="{_fmt(_MARGIN + j * cell_w)}" y="{_fmt(_MARGIN + i * cell_h)}" '
                f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" '
                f'fill="rgb({shade},{shade},{shade})" stroke="#ddd" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
