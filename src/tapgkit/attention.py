"""Context-adaptive selection and fusion of candidate feature rows.

Given a snippet context vector and M candidate rows (actors or objects), the
module scores each candidate against the context, keeps the rows whose
normalized score clears an adaptive threshold of 1/M, and fuses the kept
original rows with a small self-attention encoder followed by mean pooling.

Scoring: candidate rows and the context are embedded by two shallow MLPs, the
relevance of row i is the Euclidean norm of the concatenated embeddings, and
the norms are softmax-normalized across rows. Because softmax scores over M
rows sum to one, the maximum is always >= 1/M, so at least one row survives
selection whenever M >= 1.

Two reference baselines share the scoring path: ``soft`` skips selection and
returns the score-weighted sum of all rows, ``hard`` returns the single best
row. Only the tensors a loss can reach in the chosen mode are parameters;
the module draws every tensor in every mode, so checkpoint names and init
draws do not depend on the mode, and keeps the rest as fixed state:

- ``adaptive``: the keep/drop threshold is a step function, so no gradient
  reaches the scoring MLPs; they are fixed, and gradients flow into the
  selected rows through the fusion encoder, which trains;
- ``soft``: the scores weight the output, so the scoring MLPs train; the
  encoder is never called and is fixed;
- ``hard``: the argmax is a step function and the encoder is never called,
  so both are fixed.

With fixed scorer weights and constant inputs, scoring records nothing on
the tape. A caller that feeds a constant zero context freezes
``context_embed`` too (see ``representation``).

With M == 0 the module returns a learned default vector instead; it trains
in every mode.

One call handles the T snippets of a whole video at once. The rows of all
snippets arrive packed as one (R, d) tensor, snippet after snippet, with
``counts`` giving each snippet's M (summing to R) and one context row per
snippet. Index arrays pad the rows of the non-empty snippets to a
(T', M_max) grid; padding is masked out of the score softmax and out of the
fusion encoder by an additive bias, so every snippet is scored, selected and
fused exactly as if it were alone. A single set, ``attention(rows,
context)``, is the T = 1 case of the same code.

The returned ``SelectionInfo`` covers the whole call: scores and thresholds
per packed row, the kept packed-row indices, the per-snippet row counts, and
``used_default``, which is set only when no snippet of the call had a row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.layers import MASKED_LOGIT, MLP, Module, SelfAttentionEncoder
from tapgkit.autodiff.tensor import Tensor
from tapgkit.errors import ConfigError, ShapeError

MODES = ("adaptive", "soft", "hard")


@dataclass
class SelectionInfo:
    """What the selector decided for one call over T snippets and R packed rows.

    Row-indexed arrays follow the packed row order; split them per snippet
    with ``np.split(a, np.cumsum(counts)[:-1])``.
    """
    scores: np.ndarray        # (R,) normalized scores; each snippet's sum to one
    threshold: np.ndarray     # (R,) the keep threshold 1/M of each row's snippet
    selected: np.ndarray      # (K,) kept packed-row indices, ascending
    used_default: bool        # True when no snippet had a row (R == 0)
    counts: np.ndarray        # (T,) rows per snippet; 0 means the default was used


def _pad(rows: np.ndarray, owner: np.ndarray, sets: int) -> tuple[np.ndarray, np.ndarray]:
    """Lay out packed row indices, grouped by ascending ``owner``, as a grid.

    Returns the (sets, width) index grid, padded with row 0, and its boolean
    mask of real entries; ``width`` is the largest group.
    """
    sizes = np.bincount(owner, minlength=sets)
    width = int(sizes.max(initial=0))
    real = np.arange(width) < sizes[:, None]
    grid = np.zeros((sets, width), dtype=np.int64)
    grid[real] = rows
    return grid, real


class AdaptiveAttention(Module):
    def __init__(self, rng: np.random.Generator, candidate_dim: int, context_dim: int,
                 hidden_dim: int = 64, mode: str = "adaptive"):
        if mode not in MODES:
            raise ConfigError(f"attention mode must be one of {MODES}, got {mode!r}")
        self.candidate_embed = MLP(rng, [candidate_dim, hidden_dim, hidden_dim])
        self.context_embed = MLP(rng, [context_dim, hidden_dim, hidden_dim])
        self.encoder = SelfAttentionEncoder(rng, candidate_dim)
        self.default_output = T.parameter(np.zeros(candidate_dim))
        self.mode = mode
        trained = {"adaptive": (self.encoder,),
                   "soft": (self.candidate_embed, self.context_embed),
                   "hard": ()}[mode]
        for part in (self.candidate_embed, self.context_embed, self.encoder):
            if part not in trained:
                part.freeze()
        self._candidate_dim = candidate_dim
        self._context_dim = context_dim

    def _scores(self, candidates: Tensor, contexts: Tensor, owner: np.ndarray,
                grid: np.ndarray, real: np.ndarray) -> Tensor:
        """Normalized relevance on the padded (T', M_max) grid; padding scores 0."""
        embedded = self.candidate_embed(candidates)                          # (R, h)
        ctx_rows = T.gather_rows(self.context_embed(contexts), owner)        # (R, h)
        relevance = T.l2_norm(T.concat([embedded, ctx_rows], axis=1), axis=1)
        padded = T.reshape(T.gather_rows(relevance, grid.ravel()), grid.shape)
        bias = T.constant(np.where(real, 0.0, MASKED_LOGIT))
        return T.softmax(T.add(padded, bias), axis=1)

    def _fuse(self, candidates: Tensor, scores: Tensor, grid: np.ndarray,
              real: np.ndarray, threshold: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """One fused row per non-empty snippet, and the kept packed rows."""
        sets, width = grid.shape
        dim = self._candidate_dim
        best = np.argmax(scores.data, axis=1)
        if self.mode == "soft":
            rows = T.reshape(T.gather_rows(candidates, grid.ravel()), (sets, width, dim))
            fused = T.matmul(T.reshape(scores, (sets, 1, width)), rows)
            return T.reshape(fused, (sets, dim)), grid[real]
        if self.mode == "hard":
            picked = grid[np.arange(sets), best]
            return T.gather_rows(candidates, picked), picked

        keep = real & (scores.data >= threshold[:, None])
        # mathematically every snippet keeps a row (softmax max >= 1/M), but
        # guard the invariant against float rounding on near-uniform scores
        keep[np.arange(sets), best] |= ~keep.any(axis=1)
        kept_sets, _ = np.nonzero(keep)
        kept, kept_real = _pad(grid[keep], kept_sets, sets)
        rows = T.reshape(T.gather_rows(candidates, kept.ravel()), kept.shape + (dim,))
        encoded = self.encoder(rows, kept_real)
        pool = kept_real / kept_real.sum(axis=1, keepdims=True)
        fused = T.matmul(T.constant(pool[:, None, :]), encoded)
        return T.reshape(fused, (sets, dim)), grid[keep]

    def __call__(self, candidates: Tensor, context: Tensor,
                 counts=None) -> tuple[Tensor, SelectionInfo]:
        """Fuse one candidate set, or the packed sets of T snippets.

        Without ``counts``: ``candidates`` is (M, d), ``context`` is (d_c,)
        and the result is (d,). With ``counts`` (length T, summing to R):
        ``candidates`` is (R, d), ``context`` is (T, d_c) and the result is
        (T, d), one fused row per snippet.
        """
        single = counts is None
        rows_shape = candidates.data.shape
        if candidates.data.ndim != 2 or rows_shape[1] != self._candidate_dim:
            raise ShapeError(f"candidates must be (M, {self._candidate_dim}), got {rows_shape}")
        if single:
            if context.data.shape != (self._context_dim,):
                raise ShapeError(
                    f"context must be ({self._context_dim},), got {context.data.shape}")
            counts = [rows_shape[0]]
            context = T.reshape(context, (1, -1))
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or counts.min(initial=0) < 0 or counts.sum() != rows_shape[0]:
            raise ShapeError(f"counts must be non-negative and sum to the {rows_shape[0]} rows")
        if context.data.shape != (counts.size, self._context_dim):
            raise ShapeError(f"context must be ({counts.size}, {self._context_dim}), "
                             f"got {context.data.shape}")

        live = np.flatnonzero(counts)
        owner = np.repeat(np.arange(live.size), counts[live])
        dtype = candidates.data.dtype
        if live.size:
            grid, real = _pad(np.arange(rows_shape[0]), owner, live.size)
            scores = self._scores(candidates, T.gather_rows(context, live), owner, grid, real)
            threshold = (1.0 / counts[live]).astype(dtype)
            fused, selected = self._fuse(candidates, scores, grid, real, threshold)
            row_scores, row_threshold = scores.data[real], threshold[owner]
        else:
            selected = np.zeros(0, dtype=np.int64)
            row_scores = row_threshold = np.zeros(0, dtype=dtype)
        if live.size < counts.size:
            # snippets without rows take the learned default, one table row past the fused ones
            default = T.reshape(self.default_output, (1, -1))
            table = T.concat([fused, default], axis=0) if live.size else default
            slot = np.full(counts.size, live.size)
            slot[live] = np.arange(live.size)
            fused = T.gather_rows(table, slot)
        info = SelectionInfo(row_scores, row_threshold, selected, live.size == 0, counts)
        return (T.reshape(fused, (-1,)) if single else fused), info
