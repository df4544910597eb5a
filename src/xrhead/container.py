"""Shared little-endian binary container primitives.

Every on-disk format in this package (feature, dataset and model files)
follows the same conventions: a 4-byte magic, a u32 version, arrays stored as
rank + u64 extents + row-major payload, and length-prefixed UTF-8 JSON
metadata.  Dataset and model files hold a count-prefixed list of arrays,
each tagged with a unique name.
Decoding errors always report the byte offset of the failure.

Arrays are copied at most once each way.  Reader reads each payload from the
open file straight into its final array, so loading holds about 1.0x the
array bytes; only f4 feature files and big-endian hosts add a copy, the
astype to float64 or native order.  Writer appends each payload through the
buffer protocol and hands its one buffer to the atomic file write.
"""

from __future__ import annotations

import io
import json
import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError
from .report import write_atomic

# array payload dtypes; everything is read back as float64 / int64
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<i8"), 2: np.dtype("<f8")}
_CODE_FOR = {np.dtype("<f4"): 0, np.dtype("<i8"): 1, np.dtype("<f8"): 2}

MAX_RANK = 8
# the largest array extent a file may declare; configs refuse sizes above it too
MAX_EXTENT = 1 << 32
MAX_METADATA_BYTES = 1 << 24


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

    def magic(self, expected: bytes) -> None:
        got = self.take(4, "magic")
        if got != expected:
            raise FormatError(f"bad magic {got!r}, expected {expected!r}", 0)

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def version(self, supported: int) -> int:
        at = self.offset
        v = self.u32("version")
        if v != supported:
            raise FormatError(f"unsupported version {v}, expected {supported}", at)
        return v

    def array(self, what: str, dtype_code: int | None = None) -> np.ndarray:
        """rank u32, extents rank x u64, payload.  Code None means f32."""
        if dtype_code is None:
            dtype_code = 0
        dtype = _DTYPE_CODES.get(dtype_code)
        if dtype is None:
            raise FormatError(f"unknown dtype code {dtype_code} for {what}", self.offset)
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
        if dtype.kind == "f" and not np.all(np.isfinite(values)):
            raise FormatError(f"{what} payload contains non-finite values", payload_at)
        # copies only to widen f4 or, on a big-endian host, to swap bytes
        out_dtype = np.int64 if dtype.kind == "i" else np.float64
        return values.astype(out_dtype, copy=False)

    def tagged_array(self, what: str) -> tuple[str, np.ndarray]:
        name_len = self.u32(f"{what} name length")
        name_at = self.offset
        try:
            name = str(self.take(name_len, f"{what} name"), "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} name is not valid UTF-8", name_at) from e
        code = self.u8(f"{name} dtype code")
        return name, self.array(name, dtype_code=code)

    def named_arrays(self, what: str) -> dict[str, np.ndarray]:
        """u32 count, then that many tagged arrays; a repeated name is refused."""
        out: dict[str, np.ndarray] = {}
        for _ in range(self.u32(f"{what} count")):
            at = self.offset
            name, values = self.tagged_array(what)
            if name in out:
                raise FormatError(f"{what} {name!r} appears twice", at)
            out[name] = values
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

    def done(self) -> None:
        if self.offset != self.size:
            raise FormatError(
                f"{self.size - self.offset} trailing bytes after payload", self.offset
            )


class Writer:
    """Accumulates the byte layout mirrored by Reader."""

    def __init__(self, magic: bytes, version: int):
        self.buf = bytearray()
        self.buf += magic
        self.buf += struct.pack("<I", version)

    def u8(self, x: int) -> None:
        self.buf.append(x)

    def u32(self, x: int) -> None:
        self.buf += struct.pack("<I", x)

    def array(self, values: np.ndarray, dtype: np.dtype) -> None:
        dtype = np.dtype(dtype)
        self.u32(values.ndim)
        for e in values.shape:
            self.buf += struct.pack("<Q", e)
        self.buf += np.ascontiguousarray(values, dtype=dtype).data

    def tagged_array(self, name: str, values: np.ndarray, dtype) -> None:
        encoded = name.encode("utf-8")
        self.u32(len(encoded))
        self.buf += encoded
        self.u8(_CODE_FOR[np.dtype(dtype)])
        self.array(values, dtype)

    def named_arrays(self, arrays: list[tuple[str, np.ndarray, np.dtype]]) -> None:
        """The layout Reader.named_arrays reads: u32 count, then (name, values, dtype) each."""
        self.u32(len(arrays))
        for name, values, dtype in arrays:
            self.tagged_array(name, values, dtype)

    def metadata(self, meta: dict) -> None:
        raw = json.dumps(meta, sort_keys=True).encode("utf-8")
        self.u32(len(raw))
        self.buf += raw

    def save(self, path: str) -> None:
        """Write the layout to `path` atomically, without copying the buffer."""
        write_atomic(path, self.buf)
