"""Crash-safe file writes and checked reads.

``write_atomic`` writes a temporary file beside the target, fsyncs it and
renames it into place, so a crash or a failed write leaves either the
previous file or the complete new one, never a truncated mix, and no
temporary file behind.

Every reader takes its rules from here: ``ByteCursor`` walks a binary file,
and ``number``, ``count`` and ``pair`` read JSON fields, raising
``TypeError`` that each JSON loader turns into its own typed error.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

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


class ByteCursor:
    """Bounds-checked reads over one binary file; a wrong magic, a read past
    the end or trailing bytes raise ``FileFormatError`` naming the file."""

    def __init__(self, path, magic: bytes, kind: str):
        self.path, self.kind = Path(path), kind
        self.view = memoryview(self.path.read_bytes())
        if self.view[: len(magic)] != magic:
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

    def finish(self) -> None:
        """Require that every byte has been read."""
        if self.pos != len(self.view):
            raise FileFormatError(f"{self.path}: {len(self.view) - self.pos} trailing bytes "
                                  f"after the end of the {self.kind}")


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
