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

import struct
from pathlib import Path

import numpy as np

from tapgkit.errors import FileFormatError
from tapgkit.files import write_atomic

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
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise FileFormatError(f"{path}: not a checkpoint (bad magic)")
    view = memoryview(blob)
    pos = len(MAGIC)

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise FileFormatError(f"{path}: truncated checkpoint at byte {pos}")
        piece = view[pos: pos + n]
        pos += n
        return piece

    (count,) = struct.unpack("<I", take(4))
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as err:
            raise FileFormatError(f"{path}: entry name is not UTF-8 ({err})") from err
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        n_values = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(8 * n_values), dtype="<f8").reshape(shape)
        if name in state:
            raise FileFormatError(f"{path}: duplicate entry {name!r}")
        state[name] = data.copy()
    if pos != len(blob):
        raise FileFormatError(f"{path}: {len(blob) - pos} trailing bytes after last entry")
    return state
