"""CSV/SVG emission and atomic writes."""

import csv
import hashlib
import io
import os
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from xrhead import report as rpt
from xrhead.data import SyntheticSpec, generate, load_dataset, save_dataset
from xrhead.encoders import load_features, save_features


def test_csv_text_rfc4180_quoting():
    text = rpt.csv_text(["a", "b"], [["plain", 'has "quotes"'], ["with,comma", 1.5]])
    assert text == 'a,b\r\nplain,"has ""quotes"""\r\n"with,comma",1.5\r\n'


def test_csv_floats_round_trip_exactly():
    values = [0.1 + 0.2, 1 / 3, 2e-3, 1e-300]
    text = rpt.csv_text(["x"], [[v] for v in values])
    rows = list(csv.reader(io.StringIO(text)))
    parsed = [float(r[0]) for r in rows[1:]]
    assert parsed == values


def test_csv_deterministic_bytes():
    rows = [[i, i * 0.37] for i in range(20)]
    assert rpt.csv_text(["i", "v"], rows) == rpt.csv_text(["i", "v"], rows)


def test_write_atomic_content_and_no_leftovers(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    rpt.write_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    rpt.write_atomic(str(path), "replaced\n")
    assert path.read_text() == "replaced\n"
    assert [p.name for p in (tmp_path / "sub").iterdir()] == ["out.txt"]


def test_write_atomic_binary_and_utf8_text(tmp_path):
    path = tmp_path / "blob.bin"
    rpt.write_atomic(str(path), b"\x00\x01\x02")
    assert path.read_bytes() == b"\x00\x01\x02"
    # text is written as UTF-8, whatever the locale
    rpt.write_atomic(str(path), "caf\u00e9\n")
    assert path.read_bytes() == b"caf\xc3\xa9\n"


def _dataset(seed):
    spec = SyntheticSpec(num_classes=4, num_superclasses=2, train_per_class=2, test_per_class=2)
    return generate(replace(spec, seed=seed))


def _features(seed):
    return np.full((2, 3), float(seed))


@pytest.mark.parametrize(
    "save, load, make",
    [(save_dataset, load_dataset, _dataset), (save_features, load_features, _features)],
    ids=["dataset", "features"],
)
def test_failed_save_keeps_old_file(tmp_path, monkeypatch, save, load, make):
    path = tmp_path / "file.bin"
    save(str(path), make(0))
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save(str(path), make(1))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]
    load(str(path))


def test_json_text_sorted_and_newline_terminated():
    text = rpt.json_text({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "build",
    [
        lambda: rpt.svg_lines([1.0, 2.0, 4.0], {"x": [0.1, 0.5, 0.4]}, "t", "a", "b"),
        lambda: rpt.svg_histogram([3, 0, 5], [0.0, 1.0, 2.0, 3.0], "t", "d"),
        lambda: rpt.svg_scatter(np.array([[0.0, 1.0], [2.0, 3.0], [1.0, 1.0]]), [0, 1, 2], "t"),
        lambda: rpt.svg_weight_grid([[0.2, 0.8], [0.9, 0.1]], "t"),
    ],
)
def test_svg_outputs_are_well_formed_xml(build):
    text = build()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")


def test_svg_lines_marks_every_point():
    text = rpt.svg_lines([1.0, 2.0, 3.0], {"a": [0.0, 0.5, 1.0], "b": [1.0, 0.5, 0.0]}, "t", "x", "y")
    root = ET.fromstring(text)
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(circles) == 6
    assert len(polylines) == 2


def test_svg_histogram_bar_per_bin():
    text = rpt.svg_histogram([1, 2, 3, 4], [0, 1, 2, 3, 4], "t", "d")
    root = ET.fromstring(text)
    bars = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(bars) == 1 + 4  # background + one bar per bin


def test_flat_series_and_constant_values_render():
    text = rpt.svg_lines([1.0, 2.0], {"flat": [0.5, 0.5]}, "t", "x", "y")
    ET.fromstring(text)


def test_svg_coordinates_have_two_decimals():
    assert [rpt._fmt(x) for x in (0.0, 1.005, 123.456, -3.14159, 2.0 / 3.0)] == [
        "0.00",
        "1.00",
        "123.46",
        "-3.14",
        "0.67",
    ]


def test_svg_lines_bytes_pinned():
    # a sweep-style plot; any change to the layout or the number format moves the digest
    text = rpt.svg_lines(
        [1.0, 2.0, 4.0, 8.0],
        {"train": [0.5, 0.61, 0.7, 0.83], "test": [0.4, 0.45, 0.52, 0.65]},
        "accuracy by part count",
        "parts",
        "accuracy",
    )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "e8c5b86780c910ef65ee6220e86f3c169523d570daf815d52a32f842002f06d1"
