"""Object stream source: pick the vocabulary entries closest to a snippet's frames.

A vocabulary is a fixed set of named embedding vectors, one per object
concept. ``EmbeddedVocabulary.select`` takes the frame embeddings of a batch
of snippets as one (snippets, frames, dim) array, scores every entry by its
mean cosine similarity over each snippet's frames and returns each snippet's
top-k entry indices, best first; the vectors at those indices become the
snippet's object rows.

Ties are broken by vocabulary order (lower index wins), so selection is
deterministic for identical scores.
"""

from __future__ import annotations

import json

import numpy as np

from tapgkit.errors import DegenerateInputError, EmptyInputError, ShapeError
from tapgkit.files import write_atomic


class EmbeddedVocabulary:
    def __init__(self, names: list[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ShapeError("vocabulary vectors must form a (entries, dim) matrix")
        if len(names) != vectors.shape[0]:
            raise ShapeError(f"{len(names)} names for {vectors.shape[0]} vectors")
        if vectors.shape[0] == 0:
            raise EmptyInputError("vocabulary has no entries")
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms == 0.0):
            bad = [names[i] for i in np.flatnonzero(norms == 0.0)]
            raise DegenerateInputError(f"zero-norm vocabulary vectors: {bad}")
        self.names = list(names)
        self.vectors = vectors
        self._norms = norms

    def select(self, frames: np.ndarray, k: int) -> np.ndarray:
        """(snippets, k) entry indices: the top-k by mean cosine over frames.

        ``frames`` is (snippets, frames, dim). Fewer than k indices come back
        only when the vocabulary itself is smaller than k.
        """
        if k <= 0:
            raise ShapeError(f"k must be positive, got {k}")
        frames = np.asarray(frames, dtype=np.float64)
        dim = self.vectors.shape[1]
        if frames.ndim != 3 or frames.shape[2] != dim:
            raise ShapeError(f"frames shape {frames.shape} != (snippets, frames, {dim})")
        if frames.shape[1] == 0:
            raise EmptyInputError("snippet has no embedded frames")
        frame_norms = np.linalg.norm(frames, axis=2)
        if np.any(frame_norms == 0.0):
            raise DegenerateInputError("zero-norm frame embedding")
        cosines = (frames @ self.vectors.T) / (self._norms * frame_norms[..., None])
        order = np.argsort(-cosines.mean(axis=1), axis=1, kind="stable")
        return order[:, :k]


def save_vocabulary(path, vocab: EmbeddedVocabulary) -> None:
    payload = {
        "dim": vocab.vectors.shape[1],
        "entries": [
            {"name": name, "vector": vec.tolist()}
            for name, vec in zip(vocab.names, vocab.vectors)
        ],
    }
    write_atomic(path, json.dumps(payload, indent=2))
