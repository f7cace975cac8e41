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

A call is two steps, ``fuse(select(candidates, context, counts))``:

- ``select`` checks the shapes and lays the rows out on the grid. With fixed
  scorers (``adaptive``, ``hard``) it also scores them and makes the whole
  decision: the keep mask and the gathered kept rows (``hard``: the picked
  rows), the pooling weights, the encoder mask, the default-slot table and
  the ``SelectionInfo``. All of it is a function of the inputs and the fixed
  state alone.
- ``fuse`` runs only what can train: the encoder and the pooled product in
  ``adaptive`` mode, the scoring MLPs and the weighted sum in ``soft`` mode,
  and the learned default in every mode.

So a caller with constant inputs may select once and fuse at every training
step, for as long as nothing replaces the fixed state; an optimizer steps
only parameters (see ``training.train``).
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


@dataclass
class Selection:
    """One call's rows laid out by ``select`` for ``fuse``.

    Every field is a function of the call's inputs and the module's fixed
    state alone. With fixed scorers it holds the decision itself, so one
    selection can be fused at every training step for as long as the fixed
    state stays; ``soft`` mode scores at every ``fuse``, since its scorers
    train. ``owner`` to ``pool`` are set only when some snippet has a row.
    """
    candidates: Tensor             # (R, d) the packed rows
    counts: np.ndarray             # (T,) rows per snippet
    slot: np.ndarray | None        # (T,) each snippet's row of the fused table, the learned
                                   # default one past the last; None if no snippet is empty
    single: bool                   # one set: ``fuse`` returns (d,), not (1, d)
    owner: np.ndarray | None = None       # (R,) each row's snippet among the non-empty T'
    grid: np.ndarray | None = None        # (T', M_max) packed-row indices, padded with row 0
    real: np.ndarray | None = None        # (T', M_max) True on real entries
    contexts: Tensor | None = None        # (T', d_c) the non-empty snippets' contexts
    threshold: np.ndarray | None = None   # (T',) each non-empty snippet's keep threshold 1/M
    rows: Tensor | None = None     # soft: every row on the grid (T', M_max, d); adaptive:
                                   # the kept rows (T', K_max, d); hard: the picked rows (T', d)
    mask: np.ndarray | None = None        # adaptive: (T', K_max) True on kept rows
    pool: Tensor | None = None            # adaptive: (T', 1, K_max) mean-pooling weights
    info: SelectionInfo | None = None     # set here unless soft mode scores at ``fuse``


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

    def select(self, candidates: Tensor, context: Tensor, counts=None) -> Selection:
        """Check and lay out one candidate set, or the packed sets of T snippets.

        Without ``counts``: ``candidates`` is (M, d) and ``context`` is
        (d_c,). With ``counts`` (length T, summing to R): ``candidates`` is
        (R, d) and ``context`` is (T, d_c). With fixed scorers (``adaptive``,
        ``hard``) the rows are also scored and the kept rows gathered here.
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
        slot = None
        if live.size < counts.size:
            # snippets without rows take the learned default, one table row past the fused ones
            slot = np.full(counts.size, live.size)
            slot[live] = np.arange(live.size)
        selection = Selection(candidates, counts, slot, single)
        if not live.size:
            empty = np.zeros(0, dtype=candidates.data.dtype)
            selection.info = SelectionInfo(empty, empty, np.zeros(0, dtype=np.int64), True,
                                           counts)
            return selection
        selection.owner = owner = np.repeat(np.arange(live.size), counts[live])
        selection.grid, selection.real = grid, real = _pad(
            np.arange(rows_shape[0]), owner, live.size)
        selection.contexts = T.gather_rows(context, live)
        selection.threshold = threshold = (1.0 / counts[live]).astype(candidates.data.dtype)
        sets, width = grid.shape
        dim = self._candidate_dim
        if self.mode == "soft":
            selection.rows = T.reshape(T.gather_rows(candidates, grid.ravel()),
                                       (sets, width, dim))
            return selection

        scores = self._scores(candidates, selection.contexts, owner, grid, real).data
        best = np.argmax(scores, axis=1)
        if self.mode == "hard":
            picked = grid[np.arange(sets), best]
            selection.rows = T.gather_rows(candidates, picked)
            selection.info = self._info(selection, scores, picked)
            return selection
        keep = real & (scores >= threshold[:, None])
        # mathematically every snippet keeps a row (softmax max >= 1/M), but
        # guard the invariant against float rounding on near-uniform scores
        keep[np.arange(sets), best] |= ~keep.any(axis=1)
        kept_sets, _ = np.nonzero(keep)
        kept, selection.mask = _pad(grid[keep], kept_sets, sets)
        selection.rows = T.reshape(T.gather_rows(candidates, kept.ravel()),
                                   kept.shape + (dim,))
        pool = selection.mask / selection.mask.sum(axis=1, keepdims=True)
        selection.pool = T.constant(pool[:, None, :])
        selection.info = self._info(selection, scores, grid[keep])
        return selection

    @staticmethod
    def _info(selection: Selection, scores: np.ndarray, selected: np.ndarray) -> SelectionInfo:
        return SelectionInfo(scores[selection.real], selection.threshold[selection.owner],
                             selected, False, selection.counts)

    def fuse(self, selection: Selection) -> tuple[Tensor, SelectionInfo]:
        """The fused rows of a ``select``ed call, and what was selected.

        Runs only what can train: the fusion encoder and the pooling in
        ``adaptive`` mode, the scoring and the score-weighted sum in ``soft``
        mode, and in every mode the learned default of the empty snippets.
        The result is (d,) for one set, else (T, d), one row per snippet.
        """
        s = selection
        info, fused = s.info, None
        if s.rows is not None:
            sets = s.grid.shape[0]
            if self.mode == "soft":
                scores = self._scores(s.candidates, s.contexts, s.owner, s.grid, s.real)
                width = s.grid.shape[1]
                fused = T.matmul(T.reshape(scores, (sets, 1, width)), s.rows)
                fused = T.reshape(fused, (sets, self._candidate_dim))
                info = self._info(s, scores.data, s.grid[s.real])
            elif self.mode == "hard":
                fused = s.rows
            else:
                encoded = self.encoder(s.rows, s.mask)
                fused = T.reshape(T.matmul(s.pool, encoded), (sets, self._candidate_dim))
        if s.slot is not None:
            default = T.reshape(self.default_output, (1, -1))
            table = T.concat([fused, default], axis=0) if fused is not None else default
            fused = T.gather_rows(table, s.slot)
        return (T.reshape(fused, (-1,)) if s.single else fused), info

    def __call__(self, candidates: Tensor, context: Tensor,
                 counts=None) -> tuple[Tensor, SelectionInfo]:
        """Fuse one candidate set, or the packed sets of T snippets:
        ``fuse(select(candidates, context, counts))``."""
        return self.fuse(self.select(candidates, context, counts))
