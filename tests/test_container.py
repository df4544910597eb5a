"""The shared binary container: Writer bytes against a struct oracle, Reader copies."""

import io
import json
import struct

import numpy as np
import pytest

from xrhead.container import Reader, Writer
from xrhead.errors import FormatError

CODES = {np.dtype("<f4"): 0, np.dtype("<i8"): 1, np.dtype("<f8"): 2}

# C-contiguous, strided, narrowed, widened, big-endian, 0-d and empty inputs
ARRAYS = [
    ("plain", np.arange(12.0).reshape(3, 4), "<f8"),
    ("strided", np.arange(12.0).reshape(3, 4).T, "<f8"),
    ("narrowed", np.linspace(-1.0, 1.0, 5), "<f4"),
    ("widened", np.arange(6, dtype=np.int32).reshape(2, 3), "<i8"),
    ("big-endian", np.arange(4.0).astype(">f8"), "<f8"),
    ("zero-d", np.array(2.5), "<f8"),
    ("empty", np.zeros((0, 3)), "<f8"),
    ("näme", np.array([[7]]), "<i8"),
]
META = {"b": [1, 2.5, None], "a": "ü"}


def oracle_array(values, dtype) -> bytes:
    out = struct.pack("<I", values.ndim)
    out += b"".join(struct.pack("<Q", e) for e in values.shape)
    return out + np.ascontiguousarray(values, dtype=dtype).tobytes()


def oracle_bytes() -> bytes:
    out = b"TEST" + struct.pack("<I", 3) + struct.pack("<I", len(ARRAYS))
    for name, values, dtype in ARRAYS:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded + struct.pack("<B", CODES[np.dtype(dtype)])
        out += oracle_array(values, dtype)
    out += oracle_array(ARRAYS[1][1], "<f4")
    meta = json.dumps(META, sort_keys=True).encode("utf-8")
    return out + struct.pack("<I", len(meta)) + meta


def written() -> Writer:
    w = Writer(b"TEST", 3)
    w.named_arrays([(name, values, np.dtype(dtype)) for name, values, dtype in ARRAYS])
    w.array(ARRAYS[1][1], np.dtype("<f4"))
    w.metadata(META)
    return w


def test_writer_bytes_match_struct_oracle(tmp_path):
    w = written()
    assert bytes(w.buf) == oracle_bytes()
    path = tmp_path / "x.bin"
    w.save(str(path))
    assert path.read_bytes() == oracle_bytes()


def test_reader_returns_fresh_writable_arrays():
    data = bytearray(oracle_bytes())
    r = Reader(io.BytesIO(data))
    r.magic(b"TEST")
    r.version(3)
    arrays = r.named_arrays("array")
    strided_f4 = r.array("strided as f4")
    assert r.metadata() == META
    r.done()
    data[:] = bytes(len(data))  # the arrays hold no view of the input
    for name, values, dtype in ARRAYS:
        got = arrays[name]
        assert got.flags.owndata and got.flags.writeable, name
        want = np.asarray(values, dtype=np.dtype(dtype)).astype(got.dtype)
        assert got.shape == values.shape and got.tobytes() == want.tobytes(), name
    assert strided_f4.tobytes() == ARRAYS[1][1].astype("<f4").astype(np.float64).tobytes()


def test_reader_errors_print_bytes():
    with pytest.raises(FormatError) as err:
        Reader(io.BytesIO(b"WRNG" + bytes(4))).magic(b"TEST")
    assert "b'WRNG'" in str(err.value) and "memory" not in str(err.value)
