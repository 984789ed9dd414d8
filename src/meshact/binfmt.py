"""The one writer and the one reader of every artifact, and the array
layout the binary ones share.

Checkpoints, `.emb` caches, `.seq` sequences and the hierarchy cache are
little-endian files that open with a 4-byte magic and a u32 version. A file
is well formed when its magic and version are the expected ones, every
field that the header and earlier fields announce is present, and nothing
follows the last field. `Reader` checks all of this as a loader walks the
fields, and every fault is a FormatError worded the same way for each
artifact and naming its file. A file shorter than its magic has a bad
magic; the version belongs to the header.

Every artifact is written through `replacing`: `os.replace` renames a
finished temporary file onto it, so a writer that raises leaves the old file
whole. There is no fsync, so this guards against an interrupted process,
not against a machine crash; `gen-data` would pay one flush per sequence.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError


@contextlib.contextmanager
def replacing(path, magic: bytes = b"", version: int = None):
    """A binary handle on `<path>.<pid>.tmp`, opened with `magic` and the
    u32 `version` if given, in a directory made if missing. A clean exit
    renames it onto `path`; an exception deletes it."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(magic)
            if version is not None:
                fh.write(struct.pack("<I", version))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_lines(path, lines) -> None:
    """A text artifact: each line followed by `\\n`, UTF-8, replaced whole."""
    with replacing(path) as fh:
        fh.write("".join(f"{line}\n" for line in lines).encode())


def write_array(fh, arr, dtype: str) -> None:
    """`u32 ndim | u32 dims | data`; a 0-d array is stored with ndim 0."""
    a = np.asarray(arr, dtype=dtype)
    fh.write(struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape))
    fh.write(a.tobytes())


class Reader:
    """Sequential fields of one artifact, read from a single memoryview."""

    def __init__(self, path, magic: bytes, version: int, what: str):
        self._path = path
        self._what = what
        self._data = memoryview(Path(path).read_bytes())
        self._pos = len(magic)
        got = bytes(self._data[:self._pos])
        if got != magic:
            self._fail(f"bad {what} magic: expected {magic!r}, got {got!r}")
        (found,) = self.unpack("<I", f"{what} header")
        if found != version:
            self._fail(f"unsupported {what} version {found}")

    def _fail(self, message: str):
        raise FormatError(f"{message} ({self._path})")

    def _advance(self, n: int, field: str) -> int:
        """Offset of the next n bytes, then past them; `field` names them in
        the truncation message (default: the artifact)."""
        start = self._pos
        if start + n > len(self._data):
            self._fail(f"truncated {field or self._what}: wanted {n} bytes, "
                       f"got {len(self._data) - start}")
        self._pos = start + n
        return start

    def take(self, n: int) -> memoryview:
        """The next n bytes, as a view of the file's buffer."""
        start = self._advance(n, None)
        return self._data[start:start + n]

    def text(self) -> str:
        """A `u32 length | utf-8 bytes` name."""
        (n,) = self.unpack("<I")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            self._fail(f"{self._what} holds a name that is not UTF-8")

    def unpack(self, fmt: str, field: str = None) -> tuple:
        start = self._advance(struct.calcsize(fmt), field)
        return struct.unpack_from(fmt, self._data, start)

    def array(self, dtype: str, shape=None, field: str = None) -> np.ndarray:
        """An owned array of `shape`, or of the stored `ndim | dims`."""
        if shape is None:
            (ndim,) = self.unpack("<I", field)
            shape = self.unpack(f"<{ndim}I", field)
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._advance(count * dtype.itemsize, field)
        return np.frombuffer(self._data, dtype, count, start) \
            .reshape(shape).copy()

    def end(self) -> None:
        """FormatError if any byte follows the last field read."""
        trailing = len(self._data) - self._pos
        if trailing:
            self._fail(f"{self._what} has {trailing} trailing bytes after "
                       f"its last field")
