"""The shared binary container: pack bytes against a struct oracle, unpack copies."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bruteforce
from xrhead.container import MAX_METADATA_BYTES, pack, unpack
from xrhead.errors import FormatError
from xrhead.report import write_atomic

CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 2}

# C-contiguous, strided, narrowed, widened, big-endian, 0-d and empty inputs
ARRAYS = [
    ("plain", np.arange(12.0).reshape(3, 4), "<f8"),
    ("strided", np.arange(12.0).reshape(3, 4).T, "<f8"),
    ("narrowed", np.linspace(-1.0, 1.0, 5), "<f4"),
    ("strided as f4", np.arange(12.0).reshape(3, 4).T, "<f4"),
    ("widened", np.arange(6, dtype=np.int32).reshape(2, 3), "<f8"),
    ("big-endian", np.arange(4.0).astype(">f8"), "<f8"),
    ("zero-d", np.array(2.5), "<f8"),
    ("empty", np.zeros((0, 3)), "<f8"),
    ("näme", np.array([[7]]), "<f4"),
]
META = {"b": [1, 2.5, None], "a": "ü"}


def oracle_bytes() -> bytes:
    arrays = [
        (name, CODES[np.dtype(dtype)], np.asarray(values, dtype=dtype))
        for name, values, dtype in ARRAYS
    ]
    return bruteforce.framed_by_hand(b"TEST", 3, arrays, META)[0]


def test_pack_bytes_match_struct_oracle(tmp_path):
    buf = pack(b"TEST", 3, ARRAYS, META)
    assert isinstance(buf, bytearray) and bytes(buf) == oracle_bytes()
    path = tmp_path / "x.bin"
    write_atomic(str(path), buf)
    assert path.read_bytes() == oracle_bytes()


def test_reader_returns_fresh_writable_arrays():
    data = bytearray(oracle_bytes())
    arrays, meta = unpack(io.BytesIO(data), b"TEST", 3, "array")
    assert meta == META
    data[:] = bytes(len(data))  # the arrays hold no view of the input
    assert list(arrays) == [name for name, _, _ in ARRAYS]
    for name, values, dtype in ARRAYS:
        got = arrays[name]
        assert got.flags.owndata and got.flags.writeable, name
        want = np.asarray(values, dtype=np.dtype(dtype)).astype(got.dtype)
        assert got.shape == values.shape and got.tobytes() == want.tobytes(), name


def test_reader_refuses_dtype_code_1_at_its_offset():
    # code 1 was int64; pack no longer writes it, so the bytes are framed by hand
    arrays = [("floats", 2, np.ones(3)), ("ints", 1, np.arange(6).reshape(2, 3))]
    raw, code_offsets = bruteforce.framed_by_hand(b"TEST", 3, arrays, {})
    with pytest.raises(FormatError, match="unknown dtype code 1 for ints") as err:
        unpack(io.BytesIO(raw), b"TEST", 3, "array")
    assert err.value.offset == code_offsets[1]


def test_reader_errors_print_bytes():
    with pytest.raises(FormatError) as err:
        unpack(io.BytesIO(b"WRNG" + bytes(4)), b"TEST", 3, "array")
    assert "b'WRNG'" in str(err.value) and "memory" not in str(err.value)


class ShortRead(io.BytesIO):
    """A file whose read() returns one byte fewer than asked for."""

    def read(self, n=-1):
        return super().read(n)[:-1]


class ShortReadinto(io.BytesIO):
    """A file whose readinto() fills all but the last byte of the buffer."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:-1])


def oversized_metadata() -> io.BytesIO:
    """A file with no arrays whose metadata length is one past the limit."""
    buf = pack(b"TEST", 3, [], {})
    buf[12:16] = struct.pack("<I", MAX_METADATA_BYTES + 1)
    return io.BytesIO(buf)


@pytest.mark.parametrize(
    "file, match",
    [
        (io.BytesIO(pack(b"TEST", 3, [], [1, 2])), "metadata must be a JSON object"),
        (oversized_metadata(), f"metadata length {MAX_METADATA_BYTES + 1} exceeds limit"),
        # the size says the bytes are there; the reads that come up short are refused
        (ShortRead(oracle_bytes()), "truncated while reading magic"),
        (ShortReadinto(oracle_bytes()), "truncated while reading plain payload"),
    ],
    ids=["metadata_not_object", "metadata_too_long", "short_read", "short_readinto"],
)
def test_unpack_refuses(file, match):
    with pytest.raises(FormatError, match=match):
        unpack(file, b"TEST", 3, "array")


# every dtype kind pack may meet: numbers of each width, and bools, complex
# numbers and strings, which it refuses
any_dtype = st.one_of(
    hnp.floating_dtypes(),
    hnp.integer_dtypes(),
    hnp.unsigned_integer_dtypes(),
    hnp.boolean_dtypes(),
    hnp.complex_number_dtypes(),
    hnp.unicode_string_dtypes(max_len=2),
)


@settings(max_examples=300, deadline=None)
@given(
    values=hnp.arrays(any_dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
    dtype=st.sampled_from(["<f4", "<f8"]),
)
def test_what_pack_accepts_unpack_returns(values, dtype):
    numeric = values.dtype.kind in "iuf"
    with np.errstate(over="ignore"):
        stored = values.astype(dtype) if numeric else None
    try:
        buf = pack(b"TEST", 3, [("x", values, dtype)], {})
    except FormatError:
        assert not numeric or not np.isfinite(stored).all()
        return
    assert numeric and np.isfinite(stored).all()
    got = unpack(io.BytesIO(buf), b"TEST", 3, "array")[0]["x"]
    # bit-equal to the cast to the stored dtype (exact for f8), widened to float64
    assert got.shape == values.shape and got.tobytes() == stored.astype(np.float64).tobytes()
