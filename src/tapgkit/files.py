"""Crash-safe file writes and checked reads.

``write_atomic`` writes a temporary file beside the target, fsyncs it and
renames it into place, so a crash or a failed write leaves either the
previous file or the complete new one, never a truncated mix, and no
temporary file behind.

Every reader takes its rules from here. A binary file is sealed: an 8-byte
magic ending in its version digit, the body, then a u32 ``zlib.crc32`` of
every byte before it; ``seal`` writes one and ``ByteCursor`` reads one.
``number``, ``count`` and ``pair`` read JSON fields, raising ``TypeError``
that each JSON loader turns into its own typed error.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from tapgkit.errors import FileFormatError


def write_atomic(path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (str is written as UTF-8) in one step."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def seal(parts) -> bytes:
    """``parts`` joined, then a u32 ``zlib.crc32`` of every byte before it."""
    blob = b"".join(parts)
    return blob + struct.pack("<I", zlib.crc32(blob))


class ByteCursor:
    """Bounds-checked reads over one sealed file. A wrong magic, a read past
    the end, trailing bytes or a checksum mismatch raise ``FileFormatError``
    naming the file; so does an older version of ``magic`` (the same first
    seven bytes, a lower last digit), with the ``remedy`` the caller gives."""

    def __init__(self, path, magic: bytes, kind: str, remedy: str):
        self.path, self.kind = Path(path), kind
        self.view = memoryview(self.path.read_bytes())
        head = bytes(self.view[: len(magic)])
        if head[:-1] == magic[:-1] and head[-1:].isdigit() and head[-1:] < magic[-1:]:
            raise FileFormatError(f"{self.path}: {kind} version {head[-1:].decode()} is no "
                                  f"longer read; {remedy}")
        if head != magic:
            raise FileFormatError(f"{self.path}: not a {kind} (bad magic)")
        self.pos = len(magic)

    def take(self, n: int) -> memoryview:
        """The next ``n`` bytes, without a copy."""
        if self.pos + n > len(self.view):
            raise FileFormatError(f"{self.path}: truncated {self.kind} at byte {self.pos}")
        self.pos += n
        return self.view[self.pos - n: self.pos]

    def unpack(self, fmt: str) -> tuple:
        """The next bytes, as many as ``fmt`` needs, unpacked by ``struct``."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape, dtype) -> np.ndarray:
        """The next ``shape`` block of ``dtype`` as a writeable copy; its byte
        count is a Python int, so a corrupt extent reads as a truncation."""
        shape, dtype = tuple(int(n) for n in shape), np.dtype(dtype)
        block = self.take(math.prod(shape) * dtype.itemsize)
        return np.frombuffer(block, dtype).reshape(shape).copy()

    def finish(self) -> None:
        """Read the checksum, require that it ends the file, then check it:
        a structural fault names its byte before a checksum can fail."""
        end = self.pos
        (stored,) = self.unpack("<I")
        if self.pos != len(self.view):
            raise FileFormatError(f"{self.path}: {len(self.view) - self.pos} trailing bytes "
                                  f"after the end of the {self.kind}")
        if stored != zlib.crc32(self.view[:end]):
            raise FileFormatError(f"{self.path}: checksum at byte {end} does not match "
                                  f"the {self.kind}")


def number(value) -> float:
    """A finite JSON number as a float; a string, a boolean, null or an
    integer beyond float range is an error."""
    if type(value) in (int, float):     # not isinstance: a bool is an int
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise TypeError(f"expected a finite number, got {value!r}")


def count(value) -> int:
    """A JSON number with no fractional part as an int."""
    if isinstance(value, float) and not value.is_integer():
        raise TypeError(f"expected a whole number, got {value!r}")
    return int(number(value))


def pair(value) -> tuple[float, float]:
    """A list of exactly two finite JSON numbers."""
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"expected a list of two numbers, got {value!r}")
    return number(value[0]), number(value[1])
