"""Crash-safe file writes.

``write_atomic`` writes a temporary file beside the target, fsyncs it and
renames it into place, so a crash or a failed write leaves either the
previous file or the complete new one, never a truncated mix, and no
temporary file behind.
"""

from __future__ import annotations

import os
from pathlib import Path


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
