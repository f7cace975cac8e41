"""Binary checkpoints for named parameter arrays.

Layout (all integers little-endian unsigned 32-bit), sealed by
``files.seal``:

    magic   8 bytes  b"TAPGKIT2"
    count   u32      number of entries
    entry*  u32 name_len, name_len bytes UTF-8 name,
            u32 rank, rank * u32 extents,
            prod(extents) float64 values (little-endian)
    crc     u32      CRC-32 of every byte before it

Values are stored as float64 regardless of the runtime precision so a
checkpoint round-trips losslessly from either float32 or float64 models.
``files.ByteCursor`` checks the structure, then the checksum, so a flipped
bit anywhere fails instead of loading; a version-1 file (b"TAPGKIT1", the
same layout without the checksum) raises ``FileFormatError`` saying to
train again. A save goes through ``files.write_atomic``, so a crash
mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

import struct

import numpy as np

from tapgkit.errors import FileFormatError
from tapgkit.files import ByteCursor, seal, write_atomic

MAGIC = b"TAPGKIT2"


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", len(state))]
    for name, arr in state.items():
        # np.asarray keeps a 0-d entry 0-d; np.ascontiguousarray would make it (1,)
        arr = np.asarray(arr, dtype="<f8")
        raw = name.encode("utf-8")
        chunks += [struct.pack("<I", len(raw)), raw,
                   struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape), arr.tobytes()]
    write_atomic(path, seal(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    cursor = ByteCursor(path, MAGIC, "checkpoint", "train again with `tapgkit train`")
    (count,) = cursor.unpack("<I")
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = cursor.unpack("<I")
        try:
            name = bytes(cursor.take(name_len)).decode("utf-8")
        except UnicodeDecodeError as err:
            raise FileFormatError(f"{cursor.path}: entry name is not UTF-8 ({err})") from err
        (rank,) = cursor.unpack("<I")
        data = cursor.array(cursor.unpack(f"<{rank}I"), "<f8")
        if name in state:
            raise FileFormatError(f"{cursor.path}: duplicate entry {name!r}")
        state[name] = data
    cursor.finish()
    return state
