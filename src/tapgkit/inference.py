"""Decode boundary and grid probabilities into de-overlapped proposals.

Candidate boundaries are local maxima of the start and end probability
sequences (sequence endpoints only compare against their single neighbour,
plateaus count because comparisons are non-strict) together with every point
reaching half the sequence maximum. Every start/end pair (s < e) within the
grid's duration range becomes a candidate interval, scored by the product

    start_prob[s] * end_prob[e] * grid_prob[e - s - 1, s].

Redundant candidates are thinned by greedy suppression: keep the best live
candidate, then rescore the rest against it. Classic suppression drops
everything overlapping a kept proposal beyond a threshold; score decay
multiplies the score of a proposal overlapping the last kept one enough by
exp(-IoU / sigma). "Enough" is IoU >= overlap_offset + distance_weight *
(centre distance in kept durations), so far-apart intervals can be left
alone even at moderate IoU. After each pick, proposals whose score is under
a floor are dropped, so the first pick is kept even when it is under it.

``suppress`` works on (n, 3) float64 rows [start, end, score] and picks each
row with one argmax over a row of live scores; ``soft_nms`` and ``nms`` wrap
it for lists of ``Proposal``. Preset parameter sets are provided for the
usual benchmark configurations.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tapgkit.boundary_net import BoundaryNetOutput
from tapgkit.data.annotations import VideoAnnotation, check_corpus
from tapgkit.data.features import VideoFeatureSequence
from tapgkit.errors import (
    ConfigError,
    DegenerateInputError,
    EmptyInputError,
    FileFormatError,
)
from tapgkit.evaluation import Detection
from tapgkit.files import number, pair, write_atomic
from tapgkit.model import ProposalModel

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


def boundary_candidates(values: np.ndarray) -> np.ndarray:
    """Candidate boundary points: local maxima plus high-probability points.

    A trained boundary head often puts a near-flat plateau of top
    probabilities around the true boundary; float noise then makes the
    plateau's argmax land one snippet off. Points reaching half the sequence
    maximum are therefore candidates too, not just the maxima.
    """
    values = np.asarray(values, dtype=np.float64)
    maxima = local_maxima(values)
    if values.size == 0:
        return maxima
    high = np.flatnonzero(values >= 0.5 * values.max())
    return np.union1d(maxima, high).astype(np.int64)


def pair_candidates(output: BoundaryNetOutput) -> np.ndarray:
    """(n, 3) float64 rows [start_index, end_index, score], start-major."""
    p_start = np.asarray(output.start.data, dtype=np.float64)
    p_end = np.asarray(output.end.data, dtype=np.float64)
    p_grid = output.actionness_grid()
    s, e = np.meshgrid(boundary_candidates(p_start), boundary_candidates(p_end),
                       indexing="ij")
    d = e - s
    # e <= T - 1, so every cell (d - 1, s) left here is valid
    ok = (d >= 1) & (d <= p_grid.shape[0])
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


def suppress(rows: np.ndarray,
             cfg: SoftSuppressionConfig | HardSuppressionConfig) -> np.ndarray:
    """Greedy suppression of (n, 3) rows [start, end, score].

    Each pick keeps the live row with the highest score; ties go to the
    earlier start, then to input order. Returns the kept rows, with the
    scores they had when picked, in pick order.

    The pick loop rescores in place: every row-sized term is written into
    buffers allocated once per call, by the same float64 operations in the
    same order as the plain expressions in the comments, so the output does
    not depend on the buffering.
    """
    cfg.validate()
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(rows).all():
        raise DegenerateInputError("suppression needs finite starts, ends and scores")
    # sorted by start, so argmax's first maximum is the tie order above
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    live = rows[:, 2].copy()        # -inf once a row is kept or dropped
    soft = isinstance(cfg, SoftSuppressionConfig)
    # the pick-independent terms of interval_iou and of the centre gap,
    # combined with each pick's in the same order as those expressions
    starts, ends = rows[:, 0].copy(), rows[:, 1].copy()
    lengths, centres = ends - starts, starts + ends
    # with no length negative, inter <= the shorter length even rounded, so
    # the union with a pick of positive length is positive and needs no mask
    ordered = bool((lengths >= 0.0).all())
    n = len(rows)
    inter, union, iou, bar = (np.empty(n) for _ in range(4))
    mask, alive = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    kept, scores = [], []
    for _ in range(min(cfg.max_keep, n)):
        best = int(np.argmax(live))
        if live[best] == -math.inf:
            break
        start, end = starts[best], ends[best]
        kept.append(best)
        scores.append(live[best])
        live[best] = -math.inf
        # inter = max(0, min(end, ends) - max(start, starts))
        np.minimum(end, ends, out=inter)
        np.subtract(inter, np.maximum(start, starts, out=union), out=inter)
        np.maximum(0.0, inter, out=inter)
        # union = (length + lengths) - inter; iou = inter / union, 0 where union <= 0
        np.subtract(np.add(lengths[best], lengths, out=union), inter, out=union)
        if ordered and lengths[best] > 0.0:
            np.divide(inter, union, out=iou)
        else:
            iou.fill(0.0)
            np.divide(inter, union, out=iou, where=np.greater(union, 0.0, out=mask))
        if not soft:
            np.copyto(live, -math.inf, where=np.greater(iou, cfg.threshold, out=mask))
            continue
        duration = lengths[best]
        if duration > 0:
            # bar = offset + weight * (|centre - centres| / 2 / duration)
            np.subtract(centres[best], centres, out=bar)
            np.divide(np.abs(bar, out=bar), 2.0, out=bar)
            np.divide(bar, duration, out=bar)
            np.add(cfg.overlap_offset,
                   np.multiply(cfg.distance_weight, bar, out=bar), out=bar)
            threshold = bar
        else:
            # a scalar: in an array, 0 * inf would warn
            threshold = cfg.overlap_offset + cfg.distance_weight * math.inf
        # only live rows decay: a factor that underflows to 0 would turn -inf
        # into nan, which argmax picks first
        np.greater_equal(iou, threshold, out=mask)
        mask &= np.greater(live, -math.inf, out=alive)
        hit = mask.nonzero()[0]
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        live[hit] *= list(map(math.exp, (-iou[hit] / cfg.sigma).tolist()))
        np.copyto(live, -math.inf, where=np.less(live, cfg.score_floor, out=mask))
    out = rows[kept]
    out[:, 2] = scores
    return out


def _rows(proposals: list[Proposal]) -> np.ndarray:
    return np.array([[p.start, p.end, p.score] for p in proposals],
                    dtype=np.float64).reshape(-1, 3)


def _proposals(rows: np.ndarray) -> list[Proposal]:
    return [Proposal(*row) for row in rows.tolist()]


def soft_nms(proposals: list[Proposal], cfg: SoftSuppressionConfig) -> list[Proposal]:
    """Score-decay suppression; returns kept proposals in descending score."""
    return _proposals(suppress(_rows(proposals), cfg))


def nms(proposals: list[Proposal], cfg: HardSuppressionConfig) -> list[Proposal]:
    """Classic suppression: drop everything overlapping a kept proposal
    strictly beyond the threshold."""
    return _proposals(suppress(_rows(proposals), cfg))


# ---------------------------------------------------------------------------
# full decode
# ---------------------------------------------------------------------------

def generate_proposals(output: BoundaryNetOutput, snippet_stride: int, fps: float,
                       suppression: SoftSuppressionConfig | HardSuppressionConfig,
                       ) -> list[Proposal]:
    """Candidate pairing plus suppression, with intervals mapped to seconds.

    No annotation reaches this function, so the caller checks the time axis
    (``data.check_time_axis``); ``decode_corpus`` checks every video's.
    """
    return decode_video(output, snippet_stride, fps, suppression)[1]


def decode_video(output: BoundaryNetOutput, snippet_stride: int, fps: float,
                 suppression: SoftSuppressionConfig | HardSuppressionConfig,
                 ) -> tuple[int, list[Proposal]]:
    """``generate_proposals`` with the candidate count before suppression."""
    seconds_per_snippet = snippet_stride / fps
    rows = pair_candidates(output) * [seconds_per_snippet, seconds_per_snippet, 1.0]
    return len(rows), _proposals(suppress(rows, suppression))


def decode_corpus(model: ProposalModel, features: dict[str, VideoFeatureSequence],
                  annotations: dict[str, VideoAnnotation],
                  suppression: SoftSuppressionConfig | HardSuppressionConfig):
    """Proposals per video of a corpus that passes ``check_corpus``, and the
    decode record of the ``infer`` manifest: candidates per video before and
    after suppression, and the seconds spent pairing and suppressing (the
    forward passes are not counted)."""
    check_corpus(annotations, features)
    proposals, candidates, seconds = {}, [], 0.0
    for vid in sorted(features):
        output = model(features[vid])
        start = time.perf_counter()
        count, proposals[vid] = decode_video(
            output, features[vid].snippet_stride, annotations[vid].fps, suppression)
        seconds += time.perf_counter() - start
        candidates.append(count)
    kept = [len(p) for p in proposals.values()]
    return proposals, {
        "candidates_per_video": {"mean": float(np.mean(candidates)), "max": max(candidates)},
        "kept_per_video": {"mean": float(np.mean(kept)), "max": max(kept)},
        "seconds": seconds,
    }


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
    """Read a proposal file. Every video must map to a list of proposals, each
    with a finite segment ``0 <= start < end`` and a finite score ``>= 0``."""
    path = Path(path)
    try:
        videos = json.loads(path.read_text()).items()
    except (ValueError, AttributeError) as err:
        raise FileFormatError(f"{path}: malformed proposal file ({err})") from err
    return {vid: _read_video(f"{path}: video {vid!r}", records)
            for vid, records in videos}


def _read_video(where: str, records) -> list[Proposal]:
    if not isinstance(records, list):
        raise FileFormatError(f"{where}: proposals must be a list")
    try:
        props = [Proposal(*pair(r["segment"]), number(r["score"])) for r in records]
    except (KeyError, TypeError) as err:
        raise FileFormatError(f"{where}: malformed proposal ({err})") from err
    for p in props:
        if not (0.0 <= p.start < p.end and p.score >= 0.0):
            raise FileFormatError(f"{where}: unusable proposal segment "
                                  f"[{p.start}, {p.end}] with score {p.score}")
    return props
