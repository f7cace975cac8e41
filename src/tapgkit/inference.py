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
    check_whole,
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

def _check_max_keep(cfg) -> None:
    check_whole(cfg)
    if cfg.max_keep < 1:
        raise ConfigError(f"max_keep must be at least 1, not {cfg.max_keep!r}")


@dataclass
class SoftSuppressionConfig:
    sigma: float
    overlap_offset: float = 0.0        # IoU needed before any decay applies
    distance_weight: float = 0.0       # extra IoU required per unit of distance
    score_floor: float = SCORE_FLOOR
    max_keep: int = 100

    def validate(self) -> None:
        for name in ("sigma", "overlap_offset", "distance_weight", "score_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, not {getattr(self, name)}")
        # an IoU is at most 1, so IoU / sigma stays finite exactly when 1 / sigma does
        if not (self.sigma > 0 and math.isfinite(1.0 / self.sigma)):
            raise ConfigError(f"sigma must be positive with 1 / sigma finite, not {self.sigma}")
        _check_max_keep(self)


@dataclass
class HardSuppressionConfig:
    threshold: float
    max_keep: int = 100

    def validate(self) -> None:
        if not (0.0 < self.threshold <= 1.0):
            raise ConfigError("suppression threshold must lie in (0, 1]")
        _check_max_keep(self)


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

    A pick makes a fixed number of passes over the rows: one argmax, the
    IoU with the pick (into buffers allocated once per call) and one test
    against the least threshold any row can face. The distance threshold
    and the decay touch only the rows that pass that test, by the same
    float64 operations in the same order as the plain expressions in the
    comments, and after the first pick the score floor is checked against
    each pick alone. What is skipped cannot change a score or a pick; the
    comments say why.
    """
    cfg.validate()
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(rows).all():
        raise DegenerateInputError("suppression needs finite starts, ends and scores")
    # sorted by start, so argmax's first maximum is the tie order above
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    live = rows[:, 2].copy()        # -inf once a row is kept or suppressed
    soft = isinstance(cfg, SoftSuppressionConfig)
    floor = cfg.score_floor if soft else -math.inf
    if soft:
        # a hit needs IoU >= offset + weight * distance, which is at least the
        # offset under a weight >= 0; a hit with IoU 0 would decay by
        # exp(-0 / sigma) = 1.0 exactly, so only positive IoUs are looked at
        least = max(cfg.overlap_offset if cfg.distance_weight >= 0 else -math.inf,
                    np.finfo(np.float64).smallest_subnormal)
    starts, ends = rows[:, 0].copy(), rows[:, 1].copy()
    # a row that is kept, or under the score floor after the first pick, gets
    # a NaN length: its union and IoU with every later pick are NaN, so no
    # pick rescores it again
    with np.errstate(over="ignore"):
        lengths, centres = ends - starts, starts + ends
        # a length, an intersection and a union (the two rows' hull) are each
        # at most the span S of all starts and ends, but a union first sums
        # two lengths, up to 2 S; a hit needs a pick of positive length, and
        # its distance term is at most 2 S over the shortest such length (the
        # rows are sorted by start)
        span = max(starts[-1], ends.max()) - min(starts[0], ends.min()) if len(rows) else 0.0
        reach = 2.0 * float(span)
    if not (np.isfinite(lengths).all() and np.isfinite(centres).all()):
        raise DegenerateInputError("suppression needs every row's length and centre finite")
    if soft:    # in Python floats, which reach inf or NaN without a warning
        shortest = float(lengths[lengths > 0.0].min(initial=math.inf))
        reach += abs(cfg.overlap_offset) + abs(cfg.distance_weight) * (reach / shortest)
    if not math.isfinite(reach):
        raise DegenerateInputError("suppression rows span too wide a range for their shortest "
                                   "length: a union or a distance threshold would overflow")
    # with no length negative, inter <= the shorter length even rounded, so
    # the union with a pick of positive length is positive and needs no mask
    ordered = bool((lengths >= 0.0).all())
    n = len(rows)
    inter, union, iou = (np.empty(n) for _ in range(3))
    mask = np.empty(n, dtype=bool)
    kept, scores = [], []
    for pick in range(min(cfg.max_keep, n)):
        best = int(live.argmax())
        # Soft-NMS drops every row under the floor after each pick. A decay (a
        # factor in [0, 1]) moves a score toward 0, so it takes a row under a
        # floor > 0 for good and never under a floor <= 0; and no pick decays
        # a row that was under it at the first pick. So from the second pick
        # on, a best score under the floor means that every live score is
        if live[best] == -math.inf or (pick and live[best] < floor):
            break
        start, end, length = starts[best], ends[best], lengths[best]
        kept.append(best)
        scores.append(live[best])
        live[best], lengths[best] = -math.inf, np.nan
        # inter = min(end, ends) - max(start, starts), not clamped at 0: a
        # negative one gives a negative IoU, which no threshold below reaches
        np.subtract(np.minimum(end, ends, out=inter), np.maximum(start, starts, out=union),
                    out=inter)
        # union = (length + lengths) - inter; iou = inter / union, 0 where union <= 0
        np.subtract(np.add(length, lengths, out=union), inter, out=union)
        if ordered and length > 0.0:
            np.divide(inter, union, out=iou)
        else:
            iou.fill(0.0)
            np.divide(inter, union, out=iou, where=np.greater(union, 0.0, out=mask))
        if not soft:
            np.putmask(live, np.greater(iou, cfg.threshold, out=mask), -math.inf)
            continue
        near = np.greater_equal(iou, least, out=mask).nonzero()[0]
        near_iou = iou[near]
        # threshold = offset + weight * (|centre - centres| / 2 / length)
        threshold = cfg.overlap_offset + cfg.distance_weight * (
            np.abs(centres[best] - centres[near]) / 2.0 / length)
        hit = near_iou >= threshold
        # one np.exp for every hit; its last bit may differ from math.exp's
        live[near[hit]] *= np.exp(-near_iou[hit] / cfg.sigma)
        if pick == 0:
            np.putmask(lengths, np.less(live, floor, out=mask), np.nan)
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

def _usable(p: Proposal) -> bool:
    """Whether a proposal file can hold ``p``: a finite segment ``0 <= start
    < end`` and a finite score ``>= 0``."""
    # under a finite end, only a finite start passes both comparisons
    return math.isfinite(p.end) and math.isfinite(p.score) and 0.0 <= p.start < p.end \
        and p.score >= 0.0


def save_proposals(path, proposals_by_video: dict[str, list[Proposal]]) -> None:
    """Write a proposal file; a proposal that ``load_proposals`` would refuse
    raises ``DegenerateInputError`` first, and nothing is written."""
    for vid, props in proposals_by_video.items():
        for p in props:
            if not _usable(p):
                raise DegenerateInputError(f"video {vid!r}: cannot save proposal segment "
                                           f"[{p.start}, {p.end}] with score {p.score}")
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
        if not _usable(p):
            raise FileFormatError(f"{where}: unusable proposal segment "
                                  f"[{p.start}, {p.end}] with score {p.score}")
    return props
