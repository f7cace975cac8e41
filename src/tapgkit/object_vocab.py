"""Object stream source: pick vocabulary entries most similar to frame embeddings.

A vocabulary is a fixed set of named embedding vectors (one per object
concept). Given the embeddings of the frames inside a snippet, the selector
scores every vocabulary entry by mean cosine similarity over those frames and
returns the top-k entries; their vectors become the snippet's object rows.

Ties are broken by vocabulary order (lower index wins), so selection is
deterministic for identical scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from tapgkit.errors import DegenerateInputError, EmptyInputError, ShapeError
from tapgkit.files import write_atomic


@dataclass
class EmbeddedFrame:
    frame_index: int
    embedding: np.ndarray  # (d,)


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

    def __len__(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def cosine_scores(self, query: np.ndarray) -> np.ndarray:
        """Cosine similarity of one query vector against every entry."""
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ShapeError(f"query shape {query.shape} != ({self.dim},)")
        qn = np.linalg.norm(query)
        if qn == 0.0:
            raise DegenerateInputError("zero-norm query embedding")
        return (self.vectors @ query) / (self._norms * qn)

    def top_k(self, scores: np.ndarray, k: int) -> np.ndarray:
        """Indices of the k best scores, descending, ties by lower index."""
        if k <= 0:
            raise ShapeError(f"k must be positive, got {k}")
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(self),):
            raise ShapeError(f"scores shape {scores.shape} != ({len(self)},)")
        order = np.argsort(-scores, kind="stable")
        return order[: min(k, len(self))]

    def select_objects(self, frames: list[EmbeddedFrame], k: int) -> tuple[np.ndarray, list[str]]:
        """Object rows for one snippet: top-k entries by mean cosine over frames.

        Returns the selected vectors (k, dim) and their names. Fewer than k
        entries come back only when the vocabulary itself is smaller than k.
        """
        if not frames:
            raise EmptyInputError("snippet has no embedded frames")
        mean_scores = np.mean([self.cosine_scores(f.embedding) for f in frames], axis=0)
        idx = self.top_k(mean_scores, k)
        return self.vectors[idx].copy(), [self.names[i] for i in idx]


def save_vocabulary(path, vocab: EmbeddedVocabulary) -> None:
    payload = {
        "dim": vocab.dim,
        "entries": [
            {"name": name, "vector": vec.tolist()}
            for name, vec in zip(vocab.names, vocab.vectors)
        ],
    }
    write_atomic(path, json.dumps(payload, indent=2))
