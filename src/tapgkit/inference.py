"""Decode boundary and grid probabilities into de-overlapped proposals.

Candidate boundaries are local maxima of the start and end probability
sequences (sequence endpoints only compare against their single neighbour,
plateaus count because comparisons are non-strict) together with every point
reaching half the sequence maximum. Every start/end pair (s < e) within the
grid's duration range becomes a candidate interval, scored by the product

    start_prob[s] * end_prob[e] * grid_prob[e - s - 1, s].

Redundant candidates are thinned either by classic suppression (drop
everything overlapping a kept proposal beyond a threshold) or by score decay:
a proposal overlapping the last kept one enough has its score multiplied by
exp(-IoU / sigma). "Enough" is IoU >= overlap_offset + distance_weight *
(centre distance in kept durations), so far-apart intervals can be left
alone even at moderate IoU. Decayed proposals whose score falls under a
floor are dropped.

Preset parameter sets are provided for the usual benchmark configurations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tapgkit.boundary_net import BoundaryNetOutput
from tapgkit.errors import ConfigError, EmptyInputError, FileFormatError
from tapgkit.evaluation import Detection, interval_iou
from tapgkit.files import write_atomic

SCORE_FLOOR = 1e-4


@dataclass
class Proposal:
    start: float
    end: float
    score: float


def local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of non-strict local maxima; endpoints use one-sided tests."""
    values = np.asarray(values, dtype=np.float64)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] &= values[1:] >= values[:-1]
    keep[:-1] &= values[:-1] >= values[1:]
    return np.flatnonzero(keep).astype(np.int64)


def boundary_candidates(values: np.ndarray, ratio: float = 0.5) -> np.ndarray:
    """Candidate boundary points: local maxima plus high-probability points.

    A trained boundary head often puts a near-flat plateau of top
    probabilities around the true boundary; float noise then makes the
    plateau's argmax land one snippet off. Points reaching ``ratio`` times
    the sequence maximum are therefore candidates too, not just the maxima.
    """
    values = np.asarray(values, dtype=np.float64)
    maxima = local_maxima(values)
    if values.size == 0:
        return maxima
    high = np.flatnonzero(values >= ratio * values.max())
    return np.union1d(maxima, high).astype(np.int64)


def pair_candidates(output: BoundaryNetOutput) -> np.ndarray:
    """(n, 3) float64 rows [start_index, end_index, score], start-major."""
    p_start = np.asarray(output.start.data, dtype=np.float64)
    p_end = np.asarray(output.end.data, dtype=np.float64)
    p_grid = np.asarray(output.actionness.data, dtype=np.float64)
    s, e = np.meshgrid(boundary_candidates(p_start), boundary_candidates(p_end),
                       indexing="ij")
    d = e - s
    ok = (d >= 1) & (d <= p_grid.shape[0])
    ok[ok] = output.valid[d[ok] - 1, s[ok]]
    s, e = s[ok], e[ok]
    score = p_start[s] * p_end[e] * p_grid[e - s - 1, s]
    return np.column_stack([s, e, score])


# ---------------------------------------------------------------------------
# suppression
# ---------------------------------------------------------------------------

@dataclass
class SoftSuppressionConfig:
    sigma: float
    overlap_offset: float = 0.0        # IoU needed before any decay applies
    distance_weight: float = 0.0       # extra IoU required per unit of distance
    score_floor: float = SCORE_FLOOR
    max_keep: int = 100

    def validate(self) -> None:
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.max_keep < 1:
            raise ConfigError("max_keep must be at least 1")


@dataclass
class HardSuppressionConfig:
    threshold: float
    max_keep: int = 100

    def validate(self) -> None:
        if not (0.0 < self.threshold <= 1.0):
            raise ConfigError("suppression threshold must lie in (0, 1]")
        if self.max_keep < 1:
            raise ConfigError("max_keep must be at least 1")


PRESETS: dict[str, SoftSuppressionConfig | HardSuppressionConfig] = {
    "anet-tapg-snms": SoftSuppressionConfig(sigma=0.4, overlap_offset=0.5,
                                            distance_weight=0.4),
    "thumos-tapg-snms": SoftSuppressionConfig(sigma=0.3, overlap_offset=0.65,
                                              distance_weight=0.0),
    "anet-tad-snms": SoftSuppressionConfig(sigma=0.4),
    "thumos-tad-nms": HardSuppressionConfig(threshold=0.45),
}


def suppression_preset(name: str) -> SoftSuppressionConfig | HardSuppressionConfig:
    try:
        return replace(PRESETS[name])
    except KeyError:
        raise ConfigError(f"unknown suppression preset {name!r}; "
                          f"known: {sorted(PRESETS)}") from None


def _greedy_suppress(proposals: list[Proposal], max_keep: int,
                     rescore) -> list[Proposal]:
    """Keep the best remaining row, rescore the rest against it, repeat.

    The best row has the highest score; ties go to the earlier start, then
    to input order. ``rescore(top, rows, iou)`` returns the rows that stay
    in the pool, with their new scores.
    """
    rows = np.array([[p.start, p.end, p.score] for p in proposals],
                    dtype=np.float64).reshape(-1, 3)
    kept = []
    while len(rows) and len(kept) < max_keep:
        best = np.lexsort((rows[:, 0], -rows[:, 2]))[0]
        top = rows[best]
        kept.append(top)
        rows = np.delete(rows, best, axis=0)
        rows = rescore(top, rows, interval_iou(top[:2], rows[:, :2]))
    return [Proposal(*row) for row in np.array(kept).reshape(-1, 3).tolist()]


def soft_nms(proposals: list[Proposal], cfg: SoftSuppressionConfig) -> list[Proposal]:
    """Score-decay suppression; returns kept proposals in descending score."""
    cfg.validate()

    def decay(top, rows, iou):
        duration = top[1] - top[0]
        gap = np.abs((top[0] + top[1]) - (rows[:, 0] + rows[:, 1])) / 2.0
        distance = gap / duration if duration > 0 else math.inf
        hit = iou >= cfg.overlap_offset + cfg.distance_weight * distance
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        rows[hit, 2] *= [math.exp(x) for x in (-iou[hit] / cfg.sigma).tolist()]
        return rows[rows[:, 2] >= cfg.score_floor]

    return _greedy_suppress(proposals, cfg.max_keep, decay)


def nms(proposals: list[Proposal], cfg: HardSuppressionConfig) -> list[Proposal]:
    """Classic suppression: drop everything overlapping a kept proposal
    strictly beyond the threshold."""
    cfg.validate()
    return _greedy_suppress(proposals, cfg.max_keep,
                            lambda top, rows, iou: rows[iou <= cfg.threshold])


def suppress(proposals: list[Proposal],
             cfg: SoftSuppressionConfig | HardSuppressionConfig) -> list[Proposal]:
    if isinstance(cfg, SoftSuppressionConfig):
        return soft_nms(proposals, cfg)
    return nms(proposals, cfg)


# ---------------------------------------------------------------------------
# full decode
# ---------------------------------------------------------------------------

def generate_proposals(output: BoundaryNetOutput, snippet_stride: int, fps: float,
                       suppression: SoftSuppressionConfig | HardSuppressionConfig,
                       ) -> list[Proposal]:
    """Candidate pairing plus suppression, with intervals mapped to seconds.

    No annotation reaches this function, so the caller checks the time axis
    (``data.check_time_axis``); the command line does when it loads a corpus.
    """
    seconds_per_snippet = snippet_stride / fps
    rows = pair_candidates(output) * [seconds_per_snippet, seconds_per_snippet, 1.0]
    return suppress([Proposal(*row) for row in rows.tolist()], suppression)


def merge_class_scores(proposals: list[Proposal], class_scores: dict[str, float],
                       top_k: int = 2) -> list[Detection]:
    """Turn proposals into detections by fusing video-level class scores.

    Each proposal spawns one detection per top-``top_k`` class, scored by the
    product of proposal and class scores.
    """
    if not class_scores:
        raise EmptyInputError("class_scores must not be empty")
    ranked = sorted(class_scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [
        Detection(p.start, p.end, p.score * cls_score, label)
        for p in proposals
        for label, cls_score in ranked
    ]


# ---------------------------------------------------------------------------
# proposal files
# ---------------------------------------------------------------------------

def save_proposals(path, proposals_by_video: dict[str, list[Proposal]]) -> None:
    payload = {
        vid: [{"segment": [p.start, p.end], "score": p.score} for p in props]
        for vid, props in proposals_by_video.items()
    }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))


def load_proposals(path) -> dict[str, list[Proposal]]:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
        return {
            vid: [Proposal(float(r["segment"][0]), float(r["segment"][1]),
                           float(r["score"])) for r in records]
            for vid, records in raw.items()
        }
    except (json.JSONDecodeError, KeyError, TypeError, IndexError, ValueError,
            AttributeError) as err:
        raise FileFormatError(f"{path}: malformed proposal file ({err})") from err
