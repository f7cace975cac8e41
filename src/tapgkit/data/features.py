"""Per-snippet multi-stream features and their binary file format.

Each video is summarized by T snippets sampled every ``snippet_stride``
frames. A snippet carries one environment vector (width d_e) and
variable-size stacks of actor (M x d_a) and object (K x d_o) vectors; M and
K may be zero. A ``VideoFeatureSequence`` holds them packed: ``environment``
is (T, d_e), ``actors`` (R_a, d_a) and ``objects`` (R_o, d_o) hold every
snippet's rows one after another, and ``actor_counts`` and
``object_counts`` give each snippet's number of rows. ``snippets`` shows
the same data as one ``SnippetBundle`` of read-only views per snippet, and
``from_snippets`` packs a hand-built list of bundles.

A feature file, ``<video_id>.feat``, holds those fields in order, one block
each, little-endian: magic b"TAPGFEA2"; u32 T, d_e, d_a, d_o and
snippet_stride; the (T, 2) u32 (M, K) counts; the environment, actor and
object float32 blocks, row-major; and a u32 ``zlib.crc32`` of every byte
before it. The reader checks the structure first (a short block, trailing
bytes or a zero width name the file), then the checksum, so a flipped
payload bit fails instead of loading. A version-1 file
(b"TAPGFEA1", the streams interleaved snippet by snippet) raises
``FileFormatError`` saying to regenerate it. The writer uses
``Path.write_bytes``, not ``files.write_atomic``: ``synth`` can always write
a corpus again, and an fsync per video would add to every run's set-up.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tapgkit.errors import FileFormatError, ShapeError
from tapgkit.files import ByteCursor

MAGIC = b"TAPGFEA2"
FILE_SUFFIX = ".feat"


@dataclass(frozen=True)
class SnippetBundle:
    environment: np.ndarray   # (d_e,)
    actors: np.ndarray        # (M, d_a), M >= 0
    objects: np.ndarray       # (K, d_o), K >= 0

    def validate(self, context: str = "snippet") -> None:
        if self.environment.ndim != 1:
            raise ShapeError(f"{context}: environment must be a vector")
        if self.actors.ndim != 2 or self.objects.ndim != 2:
            raise ShapeError(f"{context}: actors and objects must be matrices")


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass
class VideoFeatureSequence:
    video_id: str
    snippet_stride: int
    environment: np.ndarray     # (T, d_e), one row per snippet
    actors: np.ndarray          # (R_a, d_a), the snippets' rows in order
    objects: np.ndarray         # (R_o, d_o), likewise
    actor_counts: np.ndarray    # (T,) int, each snippet's rows of ``actors``
    object_counts: np.ndarray   # (T,) int, each snippet's rows of ``objects``

    @classmethod
    def from_snippets(cls, video_id: str, snippet_stride: int,
                      snippets) -> VideoFeatureSequence:
        """Pack one bundle per snippet; every bundle must have snippet 0's widths."""
        if not snippets:
            raise ShapeError(f"{video_id}: feature sequence has no snippets")
        for i, s in enumerate(snippets):
            s.validate(f"{video_id} snippet {i}")
            if s.environment.shape[0] != snippets[0].environment.shape[0] \
                    or s.actors.shape[1] != snippets[0].actors.shape[1] \
                    or s.objects.shape[1] != snippets[0].objects.shape[1]:
                raise ShapeError(f"{video_id} snippet {i}: stream widths differ "
                                 f"from snippet 0")
        return cls(video_id, snippet_stride,
                   np.stack([s.environment for s in snippets]),
                   np.concatenate([s.actors for s in snippets]),
                   np.concatenate([s.objects for s in snippets]),
                   np.array([len(s.actors) for s in snippets], dtype=np.int64),
                   np.array([len(s.objects) for s in snippets], dtype=np.int64))

    @property
    def num_snippets(self) -> int:
        return len(self.environment)

    @property
    def snippets(self) -> tuple[SnippetBundle, ...]:
        """Each snippet's streams, as read-only views into the packed arrays."""
        actors = np.split(_read_only(self.actors), np.cumsum(self.actor_counts)[:-1])
        objects = np.split(_read_only(self.objects), np.cumsum(self.object_counts)[:-1])
        return tuple(map(SnippetBundle, _read_only(self.environment), actors, objects))

    def dims(self) -> tuple[int, int, int]:
        return (self.environment.shape[1], self.actors.shape[1], self.objects.shape[1])

    def validate(self) -> None:
        if self.environment.ndim != 2 or self.actors.ndim != 2 or self.objects.ndim != 2:
            raise ShapeError(f"{self.video_id}: environment, actors and objects must be "
                             f"matrices")
        if not self.num_snippets:
            raise ShapeError(f"{self.video_id}: feature sequence has no snippets")
        if self.snippet_stride <= 0:
            raise ShapeError(f"{self.video_id}: snippet_stride must be positive")
        d_e, d_a, d_o = self.dims()
        if 0 in (d_e, d_a, d_o):
            raise ShapeError(f"{self.video_id}: a stream has width 0 "
                             f"(d_e={d_e}, d_a={d_a}, d_o={d_o})")
        for name, rows, counts in (("actor", self.actors, self.actor_counts),
                                   ("object", self.objects, self.object_counts)):
            if counts.shape != (self.num_snippets,) or counts.min() < 0 \
                    or counts.sum() != len(rows):
                raise ShapeError(f"{self.video_id}: {name} counts must be "
                                 f"{self.num_snippets} non-negative numbers summing to "
                                 f"the {len(rows)} {name} rows")


def save_features(path, seq: VideoFeatureSequence) -> None:
    seq.validate()
    counts = np.column_stack([seq.actor_counts, seq.object_counts]).astype("<u4")
    blob = b"".join([MAGIC, struct.pack("<5I", seq.num_snippets, *seq.dims(),
                                        seq.snippet_stride), counts.tobytes(),
                     *(np.ascontiguousarray(a, dtype="<f4").tobytes()
                       for a in (seq.environment, seq.actors, seq.objects))])
    Path(path).write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


def load_features(path, video_id: str | None = None) -> VideoFeatureSequence:
    cursor = ByteCursor(path, MAGIC[:-1], "feature file")
    version = bytes(cursor.take(1))
    if version == b"1":
        raise FileFormatError(f"{cursor.path}: feature file version 1 is no longer read; "
                              f"regenerate the corpus with `tapgkit synth`")
    if version != MAGIC[-1:]:
        raise FileFormatError(f"{cursor.path}: not a feature file (bad magic)")
    num_snippets, d_e, d_a, d_o, stride = cursor.unpack("<5I")
    if num_snippets == 0 or stride == 0:
        raise FileFormatError(f"{cursor.path}: header declares zero snippets or zero stride")
    if 0 in (d_e, d_a, d_o):
        raise FileFormatError(f"{cursor.path}: header declares a stream of width 0 "
                              f"(d_e={d_e}, d_a={d_a}, d_o={d_o})")
    counts = np.frombuffer(cursor.take(8 * num_snippets), "<u4").reshape(-1, 2).astype(np.int64)
    # Python ints, so a corrupt count times a width cannot wrap: take() calls it a truncation
    rows = [num_snippets, *(int(n) for n in counts.sum(axis=0))]
    streams = [np.frombuffer(cursor.take(4 * n * d), dtype="<f4").reshape(n, d).copy()
               for n, d in zip(rows, (d_e, d_a, d_o))]
    end = cursor.pos
    (stored,) = cursor.unpack("<I")
    cursor.finish()
    if stored != zlib.crc32(cursor.view[:end]):
        raise FileFormatError(f"{cursor.path}: checksum at byte {end} does not match "
                              f"the feature file")
    return VideoFeatureSequence(video_id or cursor.path.stem, stride, *streams,
                                counts[:, 0], counts[:, 1])


def feature_path(directory, video_id: str) -> Path:
    return Path(directory) / f"{video_id}{FILE_SUFFIX}"
