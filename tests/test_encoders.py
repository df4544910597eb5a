"""Frozen encoder stubs and the feature file format."""

import json
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bruteforce
from xrhead.container import pack
from xrhead.encoders import (
    FEATURE_MAGIC,
    FEATURE_VERSION,
    FrozenImageEncoder,
    FrozenTextEncoder,
    load_features,
    save_features,
)
from xrhead.errors import FormatError, ShapeMismatchError
from xrhead.numerics import Tensor, backward, constant, finite_diff_check, tsum


def test_text_encoder_deterministic():
    a = FrozenTextEncoder(seed=7, word_dim=8, feat_dim=12, num_positions=5)
    b = FrozenTextEncoder(seed=7, word_dim=8, feat_dim=12, num_positions=5)
    c = FrozenTextEncoder(seed=8, word_dim=8, feat_dim=12, num_positions=5)
    rng = np.random.default_rng(0)
    x, closing = constant(rng.normal(size=(3, 4, 8))), rng.normal(size=(3, 8))
    np.testing.assert_array_equal(a.encode(x, closing).values, b.encode(x, closing).values)
    assert a.checksum() == b.checksum()
    assert a.checksum() != c.checksum()


# (context shape, closing shape, message) for an encoder of 5 positions, word_dim 8
TEXT_ENCODE_REFUSALS = [
    ((3, 3, 8), (3, 8), r"expected context \(\.\.\., 4, 8\), got \(3, 3, 8\)"),
    ((3, 5, 8), (3, 8), r"expected context \(\.\.\., 4, 8\), got \(3, 5, 8\)"),
    ((3, 4, 7), (3, 7), r"expected context \(\.\.\., 4, 8\), got \(3, 4, 7\)"),
    ((8,), (8,), r"expected context \(\.\.\., 4, 8\), got \(8,\)"),
    ((3, 4, 8), (3, 7), r"expected closing rows \(3, 8\) for context \(3, 4, 8\), got \(3, 7\)"),
    ((3, 4, 8), (2, 8), r"expected closing rows \(3, 8\)"),
    ((3, 4, 8), (3, 1, 8), r"expected closing rows \(3, 8\)"),
    ((2, 3, 4, 8), (3, 8), r"expected closing rows \(2, 3, 8\)"),
]


def test_text_encoder_shape_checks():
    enc = FrozenTextEncoder(seed=0, word_dim=8, feat_dim=12, num_positions=5)
    for context, closing, match in TEXT_ENCODE_REFUSALS:
        with pytest.raises(ShapeMismatchError, match=match):
            enc.encode(constant(np.zeros(context)), np.zeros(closing))


def test_text_encoder_leading_shapes():
    # (..., M, word_dim) -> (..., feat_dim): one sequence, a batch, a grid
    enc = FrozenTextEncoder(seed=2, word_dim=3, feat_dim=5, num_positions=3)
    rng = np.random.default_rng(3)
    ctx, closing = rng.normal(size=(4, 2, 2, 3)), rng.normal(size=(4, 2, 3))
    grid = enc.encode(constant(ctx), closing).values
    assert grid.shape == (4, 2, 5)
    flat = enc.encode(constant(ctx.reshape(8, 2, 3)), closing.reshape(8, 3)).values
    assert grid.tobytes() == flat.tobytes()
    one = enc.encode(constant(ctx[1, 0]), closing[1, 0]).values
    assert one.shape == (5,)
    np.testing.assert_allclose(one, grid[1, 0], rtol=1e-12)


def test_text_encoder_differentiable_wrt_input():
    enc = FrozenTextEncoder(seed=1, word_dim=6, feat_dim=9, num_positions=4)
    rng = np.random.default_rng(1)
    ctx = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True, name="ctx")
    closing = rng.normal(size=(2, 6))
    out = enc.encode(ctx, closing)
    assert out._parents == (ctx,)  # the closing rows are a constant
    backward(tsum(out))
    assert np.any(ctx.grad != 0.0)
    worst = finite_diff_check(
        lambda: tsum(enc.encode(ctx, closing)), [ctx], max_coords_per_param=12
    )
    assert worst["ctx"] < 1e-6


def test_image_encoder_deterministic_and_bounded():
    a = FrozenImageEncoder(seed=3, patch_dim=10, feat_dim=6)
    b = FrozenImageEncoder(seed=3, patch_dim=10, feat_dim=6)
    patches = np.random.default_rng(2).normal(size=(7, 10))
    fa = a.encode(patches)
    np.testing.assert_array_equal(fa, b.encode(patches))
    assert fa.shape == (7, 6)
    assert np.all(np.abs(fa) < 1.0)
    batched = a.encode(patches[None].repeat(3, axis=0))
    np.testing.assert_array_equal(batched[1], fa)
    with pytest.raises(ShapeMismatchError):
        a.encode(np.zeros((4, 9)))


def test_encoder_determinism_across_processes():
    code = (
        "from xrhead.encoders import FrozenTextEncoder, FrozenImageEncoder;"
        "print(FrozenTextEncoder(5, 8, 12, 4).checksum());"
        "print(FrozenImageEncoder(5, 8, 12).checksum())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == FrozenTextEncoder(5, 8, 12, 4).checksum()
    assert out[1] == FrozenImageEncoder(5, 8, 12).checksum()


# --- feature files ------------------------------------------------------------


def test_feature_file_round_trip(tmp_path):
    path = str(tmp_path / "feats.xrvf")
    values = np.random.default_rng(4).normal(size=(3, 2, 5))
    meta = {"class_names": ["a", "b", "c"], "part_names": ["head", "tail"]}
    save_features(path, values, meta)
    loaded, got_meta = load_features(path)
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, values.astype(np.float32).astype(np.float64))
    assert got_meta == meta


def test_feature_file_bad_magic(tmp_path):
    path = str(tmp_path / "bad.xrvf")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError) as err:
        load_features(path)
    assert err.value.offset == 0


def test_feature_file_bad_version(tmp_path):
    path = str(tmp_path / "bad.xrvf")
    with open(path, "wb") as f:
        f.write(b"XRVF" + struct.pack("<I", 99))
    with pytest.raises(FormatError) as err:
        load_features(path)
    assert err.value.offset == 4


def test_feature_file_truncated(tmp_path):
    path = str(tmp_path / "ok.xrvf")
    save_features(path, np.ones((4, 4)), {})
    raw = open(path, "rb").read()
    cut = str(tmp_path / "cut.xrvf")
    with open(cut, "wb") as f:
        f.write(raw[:30])
    with pytest.raises(FormatError) as err:
        load_features(cut)
    assert err.value.offset is not None and "offset" in str(err.value)


def test_feature_file_trailing_bytes(tmp_path):
    path = str(tmp_path / "ok.xrvf")
    save_features(path, np.ones((2, 2)), {})
    with open(path, "ab") as f:
        f.write(b"xx")
    with pytest.raises(FormatError) as err:
        load_features(path)
    assert "trailing" in str(err.value)


@pytest.mark.parametrize(
    "values, match",
    [
        ([[1e39, 1.0]], "not finite as float32"),  # finite as f8, inf once stored as f4
        ([["a"]], "not numeric"),
        ([[1.0, 2.0], [3.0]], "not one rectangular array"),
    ],
    ids=["beyond_f4", "strings", "ragged"],
)
def test_save_features_refuses_what_load_features_would(values, match, tmp_path):
    path = tmp_path / "bad.xrvf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the cast, no numpy TypeError
        with pytest.raises(FormatError, match=match):
            save_features(str(path), values)
    assert not path.exists()


def test_feature_file_rejects_non_finite(tmp_path):
    path = str(tmp_path / "nan.xrvf")
    with pytest.raises(FormatError):
        save_features(path, np.array([np.nan]))
    # craft one on disk directly; pack refuses it, so the bytes are framed by hand
    arrays = [("features", 0, np.array([np.inf], "<f4"))]
    with open(path, "wb") as f:
        f.write(bruteforce.framed_by_hand(FEATURE_MAGIC, FEATURE_VERSION, arrays, {})[0])
    with pytest.raises(FormatError, match="non-finite"):
        load_features(path)


def version_1_feature_file(values: np.ndarray, meta: dict) -> bytes:
    """A feature file as version 1 wrote it: one untagged f4 array, then the metadata."""
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    out = b"XRVF" + struct.pack(f"<II{values.ndim}Q", 1, values.ndim, *values.shape)
    out += values.astype("<f4").tobytes()
    return out + struct.pack("<I", len(raw)) + raw


def test_feature_file_is_one_named_f4_array(tmp_path):
    path = tmp_path / "ok.xrvf"
    values = np.arange(6.0).reshape(2, 3)
    save_features(str(path), values, {"a": 1})
    want = pack(FEATURE_MAGIC, 2, [("features", values, "<f4")], {"a": 1})
    assert path.read_bytes() == bytes(want)


FEATURE_FILE_REFUSALS = {
    "two arrays": (
        [("features", np.ones(3), "<f4"), ("extra", np.ones(3), "<f4")],
        "unknown feature array 'extra'",
    ),
    "wrong name": ([("feature", np.ones(3), "<f4")], "unknown feature array 'feature'"),
    "no array": ([], "missing feature array 'features'"),
}


@pytest.mark.parametrize("case", sorted(FEATURE_FILE_REFUSALS))
def test_feature_file_refuses_other_arrays(case, tmp_path):
    path = tmp_path / "bad.xrvf"
    arrays, match = FEATURE_FILE_REFUSALS[case]
    path.write_bytes(pack(FEATURE_MAGIC, FEATURE_VERSION, arrays, {}))
    with pytest.raises(FormatError, match=match):
        load_features(str(path))


def test_feature_file_refuses_dtype_code_1(tmp_path):
    # code 1 was int64; pack no longer writes it, so the bytes are framed by hand
    path = tmp_path / "ints.xrvf"
    arrays = [("features", 1, np.arange(3))]
    raw, code_offsets = bruteforce.framed_by_hand(FEATURE_MAGIC, FEATURE_VERSION, arrays, {})
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="unknown dtype code 1 for features") as err:
        load_features(str(path))
    assert err.value.offset == code_offsets[0]


def test_feature_file_of_version_1_is_refused(tmp_path):
    path = tmp_path / "old.xrvf"
    path.write_bytes(version_1_feature_file(np.arange(6.0).reshape(2, 3), {"class_names": []}))
    with pytest.raises(FormatError, match="unsupported version 1, expected 2") as err:
        load_features(str(path))
    assert err.value.offset == 4
