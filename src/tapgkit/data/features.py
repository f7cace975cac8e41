"""Per-snippet multi-stream features and their binary file format.

Each video is summarized by T snippets sampled every ``snippet_stride``
frames. A snippet carries three streams: one environment vector (global
context, width d_e), a variable-size stack of actor vectors (M x d_a), and a
variable-size stack of object vectors (K x d_o). M and K may be zero.

File layout (magic b"TAPGFEA1", integers little-endian u32, values
little-endian float32):

    magic    8 bytes
    header   u32 T, d_e, d_a, d_o, snippet_stride
    snippet* u32 M, u32 K,
             d_e floats (environment),
             M * d_a floats (actors, row-major),
             K * d_o floats (objects, row-major)

Feature files sit one per video in a directory, named ``<video_id>.feat``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tapgkit.errors import FileFormatError, ShapeError
from tapgkit.files import ByteCursor

MAGIC = b"TAPGFEA1"
FILE_SUFFIX = ".feat"


@dataclass
class SnippetBundle:
    environment: np.ndarray   # (d_e,)
    actors: np.ndarray        # (M, d_a), M >= 0
    objects: np.ndarray       # (K, d_o), K >= 0

    def validate(self, context: str = "snippet") -> None:
        if self.environment.ndim != 1:
            raise ShapeError(f"{context}: environment must be a vector")
        if self.actors.ndim != 2 or self.objects.ndim != 2:
            raise ShapeError(f"{context}: actors and objects must be matrices")


@dataclass
class VideoFeatureSequence:
    video_id: str
    snippet_stride: int
    snippets: list[SnippetBundle]

    @property
    def num_snippets(self) -> int:
        return len(self.snippets)

    def dims(self) -> tuple[int, int, int]:
        first = self.snippets[0]
        return (first.environment.shape[0], first.actors.shape[1], first.objects.shape[1])

    def validate(self) -> None:
        if not self.snippets:
            raise ShapeError(f"{self.video_id}: feature sequence has no snippets")
        if self.snippet_stride <= 0:
            raise ShapeError(f"{self.video_id}: snippet_stride must be positive")
        d_e, d_a, d_o = self.dims()
        for i, s in enumerate(self.snippets):
            s.validate(f"{self.video_id} snippet {i}")
            if s.environment.shape[0] != d_e or s.actors.shape[1] != d_a \
                    or s.objects.shape[1] != d_o:
                raise ShapeError(f"{self.video_id} snippet {i}: stream widths differ "
                                 f"from snippet 0")


def save_features(path, seq: VideoFeatureSequence) -> None:
    seq.validate()
    d_e, d_a, d_o = seq.dims()
    chunks = [MAGIC, struct.pack("<5I", seq.num_snippets, d_e, d_a, d_o, seq.snippet_stride)]
    for s in seq.snippets:
        chunks.append(struct.pack("<2I", s.actors.shape[0], s.objects.shape[0]))
        chunks.append(np.ascontiguousarray(s.environment, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(s.actors, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(s.objects, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_features(path, video_id: str | None = None) -> VideoFeatureSequence:
    cursor = ByteCursor(path, MAGIC, "feature file")
    num_snippets, d_e, d_a, d_o, stride = cursor.unpack("<5I")
    if num_snippets == 0 or stride == 0:
        raise FileFormatError(f"{cursor.path}: header declares zero snippets or zero stride")
    snippets = []
    for _ in range(num_snippets):
        m, k = cursor.unpack("<2I")
        env = np.frombuffer(cursor.take(4 * d_e), dtype="<f4").copy()
        actors = np.frombuffer(cursor.take(4 * m * d_a), dtype="<f4").reshape(m, d_a).copy()
        objects = np.frombuffer(cursor.take(4 * k * d_o), dtype="<f4").reshape(k, d_o).copy()
        snippets.append(SnippetBundle(env, actors, objects))
    cursor.finish()
    return VideoFeatureSequence(video_id or cursor.path.stem, stride, snippets)


def feature_path(directory, video_id: str) -> Path:
    return Path(directory) / f"{video_id}{FILE_SUFFIX}"
