"""Binary checkpoints for named parameter arrays.

Layout (all integers little-endian unsigned 32-bit):

    magic   8 bytes  b"TAPGKIT1"
    count   u32      number of entries
    entry*  u32 name_len, name_len bytes UTF-8 name,
            u32 rank, rank * u32 extents,
            prod(extents) float64 values (little-endian)

Values are stored as float64 regardless of the runtime precision so a
checkpoint round-trips losslessly from either float32 or float64 models.
A save goes through ``files.write_atomic``, so a crash mid-write leaves the
previous checkpoint intact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from tapgkit.errors import FileFormatError
from tapgkit.files import ByteCursor, write_atomic

MAGIC = b"TAPGKIT1"


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", len(state))]
    for name, arr in state.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    cursor = ByteCursor(path, MAGIC, "checkpoint")
    (count,) = cursor.unpack("<I")
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = cursor.unpack("<I")
        try:
            name = bytes(cursor.take(name_len)).decode("utf-8")
        except UnicodeDecodeError as err:
            raise FileFormatError(f"{cursor.path}: entry name is not UTF-8 ({err})") from err
        (rank,) = cursor.unpack("<I")
        shape = cursor.unpack(f"<{rank}I")
        data = np.frombuffer(cursor.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if name in state:
            raise FileFormatError(f"{cursor.path}: duplicate entry {name!r}")
        state[name] = data.copy()
    cursor.finish()
    return state
