"""Per-snippet multi-stream features and their binary file format.

Each video is summarized by T snippets sampled every ``snippet_stride``
frames. A snippet carries three streams: one environment vector (global
context, width d_e), a variable-size stack of actor vectors (M x d_a), and a
variable-size stack of object vectors (K x d_o). M and K may be zero.

A ``VideoFeatureSequence`` holds a video's streams packed, built once where
the video enters the program: ``environment`` is (T, d_e), ``actors`` is
(R_a, d_a) with every snippet's rows one after another, ``objects`` is
(R_o, d_o) likewise, and ``actor_counts`` and ``object_counts`` give each
snippet's number of rows. ``snippets`` shows the same data as one
``SnippetBundle`` of read-only views per snippet, and ``from_snippets``
packs a hand-built list of bundles.

File layout (magic b"TAPGFEA1", integers little-endian u32, values
little-endian float32):

    magic    8 bytes
    header   u32 T, d_e, d_a, d_o, snippet_stride
    snippet* u32 M, u32 K,
             d_e floats (environment),
             M * d_a floats (actors, row-major),
             K * d_o floats (objects, row-major)

Every field is four bytes wide, so the body after the header is a run of
words. The reader walks the T (M, K) pairs to find each snippet's extent,
labels every word of the body with the part it belongs to, and takes each
stream in one gather.

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
    d_e, d_a, d_o = seq.dims()
    streams = [np.ascontiguousarray(a, dtype="<f4")
               for a in (seq.environment, seq.actors, seq.objects)]
    chunks = [MAGIC, struct.pack("<5I", seq.num_snippets, d_e, d_a, d_o, seq.snippet_stride)]
    a = o = 0
    for env, m, k in zip(streams[0], seq.actor_counts.tolist(), seq.object_counts.tolist()):
        chunks.append(struct.pack("<2I", m, k))
        chunks.append(env.tobytes())
        chunks.append(streams[1][a:a + m].tobytes())
        chunks.append(streams[2][o:o + k].tobytes())
        a, o = a + m, o + k
    Path(path).write_bytes(b"".join(chunks))


def load_features(path, video_id: str | None = None) -> VideoFeatureSequence:
    cursor = ByteCursor(path, MAGIC, "feature file")
    num_snippets, d_e, d_a, d_o, stride = cursor.unpack("<5I")
    if num_snippets == 0 or stride == 0:
        raise FileFormatError(f"{cursor.path}: header declares zero snippets or zero stride")
    if 0 in (d_e, d_a, d_o):
        raise FileFormatError(f"{cursor.path}: header declares a stream of width 0 "
                              f"(d_e={d_e}, d_a={d_a}, d_o={d_o})")
    body = cursor.pos
    counts = []
    for _ in range(num_snippets):
        m, k = cursor.unpack("<2I")
        cursor.take(4 * (d_e + m * d_a + k * d_o))
        counts += m, k
    cursor.finish()
    # label each word of the body: 0 for an (M, K) pair, 1 for the environment,
    # 2 for an actor and 3 for an object value; each count times its width
    # fits in int64, since the walk found that many floats in the file
    pairs = np.array(counts, dtype=np.int64).reshape(num_snippets, 2)
    sizes = np.empty((num_snippets, 4), dtype=np.int64)
    sizes[:, 0], sizes[:, 1], sizes[:, 2:] = 2, d_e, pairs * (d_a, d_o)
    part = np.repeat(np.tile(np.arange(4, dtype=np.int8), num_snippets), sizes.ravel())
    words = np.frombuffer(cursor.view, dtype="<f4", offset=body)
    return VideoFeatureSequence(
        video_id or cursor.path.stem, stride,
        words[part == 1].reshape(num_snippets, d_e),
        words[part == 2].reshape(-1, d_a),
        words[part == 3].reshape(-1, d_o),
        pairs[:, 0], pairs[:, 1])


def feature_path(directory, video_id: str) -> Path:
    return Path(directory) / f"{video_id}{FILE_SUFFIX}"
