"""The one little-endian file layout that every binary file of this package uses.

Feature, dataset and model files all hold a 4-byte magic, a u32 version, a
u32 count of arrays, then that many arrays, and last length-prefixed UTF-8
JSON metadata.  Each array is tagged with a unique name and a dtype code (f4
or f8) and stored as rank + u64 extents + row-major payload.  pack() builds
that layout and unpack() reads it back; no other module knows the framing.
Decoding errors always report the byte offset of the failure.

One rule says what any file may hold: exactly the arrays its reader names,
in the shapes it implies (check_arrays), each finite in its stored dtype.
pack refuses on write what the reader refuses on read.

Arrays are copied at most once each way.  pack appends each payload through
the buffer protocol into the one buffer that the caller hands to the atomic
file write.  Reader reads each payload from the open file straight into its
final array, so loading holds about 1.0x the array bytes; only f4 arrays and
big-endian hosts add a copy, the astype to float64 or native order.
"""

from __future__ import annotations

import io
import json
import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError

# array payload dtypes; everything is read back as float64
_DTYPE_CODES = {0: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR = {dtype: code for code, dtype in _DTYPE_CODES.items()}

MAX_RANK = 8
# the largest array extent a file may declare; configs refuse sizes above it too
MAX_EXTENT = 1 << 32
MAX_METADATA_BYTES = 1 << 24


def pack(
    magic: bytes, version: int, arrays: list[tuple[str, np.ndarray, str]], meta: dict
) -> bytearray:
    """The layout unpack reads, from (name, values, dtype) triples and a metadata dict.

    FormatError for an array that is not numeric or not finite as its dtype.
    """
    buf = bytearray(magic)
    buf += struct.pack("<II", version, len(arrays))
    for name, values, dtype in arrays:
        dtype = np.dtype(dtype)
        if values.dtype.kind not in "iuf":
            raise FormatError(f"array {name!r} is not numeric: dtype {values.dtype}")
        with np.errstate(over="ignore"):  # a value beyond the dtype's range is refused below
            payload = np.ascontiguousarray(values, dtype=dtype)
        if not np.all(np.isfinite(payload)):
            raise FormatError(f"array {name!r} has values that are not finite as {dtype}")
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack(f"<BI{values.ndim}Q", _CODE_FOR[dtype], values.ndim, *values.shape)
        buf += payload.data
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    buf += struct.pack("<I", len(raw))
    buf += raw
    return buf


def unpack(
    f: BinaryIO, magic: bytes, version: int, what: str
) -> tuple[dict[str, np.ndarray], dict]:
    """Read a whole pack() layout from an open binary file: (arrays by name, metadata).

    `what` names the arrays in error messages.  Any damage raises FormatError.
    """
    r = Reader(f)
    got = r.take(4, "magic")
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}", 0)
    got = r.u32("version")
    if got != version:
        raise FormatError(f"unsupported version {got}, expected {version}", 4)
    arrays = r.named_arrays(what)
    meta = r.metadata()
    if r.offset != r.size:
        raise FormatError(f"{r.size - r.offset} trailing bytes after payload", r.offset)
    return arrays, meta


def check_arrays(
    arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...] | None], what: str
) -> None:
    """Refuse `arrays` unless they are exactly the names of `shapes`, each in its shape
    (None: any shape); FormatError names the first unknown, missing or misshapen array."""
    for name in arrays:
        if name not in shapes:
            raise FormatError(f"unknown {what} {name!r}")
    for name, shape in shapes.items():
        if name not in arrays:
            raise FormatError(f"missing {what} {name!r}")
        if shape is not None and arrays[name].shape != shape:
            raise FormatError(f"{what} {name!r} has shape {arrays[name].shape}, expected {shape}")


class Reader:
    """Cursor over an open binary file that raises FormatError with the offset.

    Header fields take small reads; array() reads each payload into its array.
    """

    def __init__(self, f: BinaryIO):
        self.f = f
        self.size = f.seek(0, io.SEEK_END)
        self.offset = f.seek(0)

    def _fits(self, n: int, what: str) -> None:
        # checked before anything of size n is allocated or read
        if self.offset + n > self.size:
            raise FormatError(f"truncated while reading {what}", self.offset)

    def take(self, n: int, what: str) -> bytes:
        self._fits(n, what)
        chunk = self.f.read(n)
        if len(chunk) != n:
            raise FormatError(f"truncated while reading {what}", self.offset)
        self.offset += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def array(self, what: str) -> np.ndarray:
        """dtype code u8, rank u32, extents rank x u64, payload of the dtype the code names."""
        code_at = self.offset
        code = self.take(1, f"{what} dtype code")[0]
        dtype = _DTYPE_CODES.get(code)
        if dtype is None:
            raise FormatError(f"unknown dtype code {code} for {what}", code_at)
        at = self.offset
        rank = self.u32(f"{what} rank")
        if rank > MAX_RANK:
            raise FormatError(f"{what} rank {rank} exceeds limit {MAX_RANK}", at)
        extents = [self.u64(f"{what} extent {i}") for i in range(rank)]
        count = 1
        for e in extents:
            if e > MAX_EXTENT:
                raise FormatError(f"{what} extent {e} is implausibly large", at)
            count *= e
        payload_at = self.offset
        nbytes = count * dtype.itemsize
        self._fits(nbytes, f"{what} payload")
        values = np.empty(extents, dtype)
        if self.f.readinto(values.reshape(-1).view(np.uint8)) != nbytes:
            raise FormatError(f"truncated while reading {what} payload", payload_at)
        self.offset += nbytes
        if not np.all(np.isfinite(values)):
            raise FormatError(f"{what} payload contains non-finite values", payload_at)
        # copies only to widen f4 or, on a big-endian host, to swap bytes
        return values.astype(np.float64, copy=False)

    def named_arrays(self, what: str) -> dict[str, np.ndarray]:
        """u32 count, then that many (name, array); a repeated name is refused."""
        out: dict[str, np.ndarray] = {}
        for _ in range(self.u32(f"{what} count")):
            at = self.offset
            name_len = self.u32(f"{what} name length")
            try:
                name = str(self.take(name_len, f"{what} name"), "utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"{what} name is not valid UTF-8", at + 4) from e
            if name in out:
                raise FormatError(f"{what} {name!r} appears twice", at)
            out[name] = self.array(name)
        return out

    def metadata(self) -> dict:
        at = self.offset
        n = self.u32("metadata length")
        if n > MAX_METADATA_BYTES:
            raise FormatError(f"metadata length {n} exceeds limit", at)
        raw = self.take(n, "metadata")
        try:
            meta = json.loads(str(raw, "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"metadata is not valid UTF-8 JSON: {e}", at + 4) from e
        if not isinstance(meta, dict):
            raise FormatError("metadata must be a JSON object", at + 4)
        return meta
