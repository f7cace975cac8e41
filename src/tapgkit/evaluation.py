"""Proposal and detection quality metrics.

Recall is pooled over the corpus: at a given proposal budget and overlap
threshold, it is (matched ground-truth actions) / (all ground-truth actions).
Matching is one-to-one and greedy by descending overlap, and an overlap equal
to the threshold is a match. Videos without any ground truth cannot
contribute and are skipped with a warning, once per curve.

The recall-vs-budget curve runs over budgets 1..max_budget, one recall pass
per budget; its area is normalized to a 0..100 scale, and the average recall
at a report budget b is read off it as point b. Detection quality uses the
usual per-class average precision with the interpolated (monotone envelope)
precision curve; a class without detections scores 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from tapgkit.errors import DegenerateInputError, EmptyInputError, ShapeError, check_whole

log = logging.getLogger("tapgkit.evaluation")

DEFAULT_TIOUS = tuple(np.arange(0.5, 1.0, 0.05).round(2))


def interval_iou(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """IoU between two (n, 2) / broadcastable stacks of [start, end] intervals."""
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    s1, e1 = first[..., 0], first[..., 1]
    s2, e2 = second[..., 0], second[..., 1]
    inter = np.maximum(0.0, np.minimum(e1, e2) - np.maximum(s1, s2))
    union = (e1 - s1) + (e2 - s2) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def iou_matrix(proposals: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(num_proposals, num_targets) IoU table."""
    if proposals.ndim != 2 or targets.ndim != 2:
        raise ShapeError("iou_matrix expects (n, 2) interval stacks")
    return interval_iou(proposals[:, None, :], targets[None, :, :])


def _greedy_match_count(iou: np.ndarray, threshold: float) -> int:
    """One-to-one matches with IoU >= threshold, best pairs first."""
    matched = 0
    iou = iou.copy()
    while iou.size:
        flat = int(np.argmax(iou))
        p, g = np.unravel_index(flat, iou.shape)
        if iou[p, g] < threshold:
            break
        matched += 1
        iou = np.delete(np.delete(iou, p, axis=0), g, axis=1)
    return matched


def _check_tious(tious) -> None:
    if not tious or any(not (0.0 < t <= 1.0) for t in tious):
        raise ShapeError("overlap thresholds must lie in (0, 1]")


@dataclass
class EvalConfig:
    tious: tuple[float, ...] = DEFAULT_TIOUS
    max_budget: int = 100
    report_budgets: tuple[int, ...] = (1, 5, 10, 100)

    def validate_curve(self) -> None:
        check_whole(self)
        _check_tious(self.tious)
        if self.max_budget < 2:
            raise ShapeError("max_budget must be at least 2: a curve area needs two budgets")

    def validate(self) -> None:
        self.validate_curve()
        if any(not (1 <= b <= self.max_budget) for b in self.report_budgets):
            raise ShapeError(f"report_budgets must each lie in 1..max_budget = {self.max_budget}")


def _sorted_proposals(proposals: list) -> np.ndarray:
    """(n, 3) array [start, end, score], descending score, stable."""
    if not proposals:
        return np.zeros((0, 3))
    arr = np.array([[p.start, p.end, p.score] for p in proposals], dtype=np.float64)
    order = np.argsort(-arr[:, 2], kind="stable")
    return arr[order]


def ground_truth(annotations: dict) -> dict[str, np.ndarray]:
    """Each annotated video's (n, 2) action spans [start, end] in seconds."""
    return {
        vid: np.array([[a.start, a.end] for a in ann.annotations],
                      dtype=np.float64).reshape(-1, 2)
        for vid, ann in annotations.items()
    }


def _annotated(gt_by_video: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The (n, 2) spans of the videos with ground truth; the others are warned about."""
    spans = {vid: np.asarray(gt, dtype=np.float64).reshape(-1, 2)
             for vid, gt in gt_by_video.items()}
    for video_id in [vid for vid, gt in spans.items() if gt.shape[0] == 0]:
        log.warning("video %s has no ground truth, excluded from recall", video_id)
        del spans[video_id]
    return spans


def recall_at_budget(proposals_by_video: dict[str, list], gt_by_video: dict[str, np.ndarray],
                     budget: int, tious) -> np.ndarray:
    """Pooled recall per overlap threshold with top-``budget`` proposals per
    video; videos without ground truth are skipped with a warning, and a
    non-finite proposal of a scored video raises ``DegenerateInputError``."""
    tious = np.asarray(tious, dtype=np.float64)
    matched = np.zeros(len(tious))
    total = 0
    for video_id, gt in _annotated(gt_by_video).items():
        total += gt.shape[0]
        props = _sorted_proposals(proposals_by_video.get(video_id, []))
        if not np.isfinite(props).all():
            raise DegenerateInputError(f"video {video_id}: recall needs finite proposal "
                                       f"starts, ends and scores")
        props = props[:budget]
        if props.shape[0] == 0:
            continue
        iou = iou_matrix(props[:, :2], gt)
        for k, thr in enumerate(tious):
            matched[k] += _greedy_match_count(iou, float(thr))
    if total == 0:
        raise EmptyInputError("no ground-truth actions in any video")
    return matched / total


def average_recall(proposals_by_video: dict[str, list], gt_by_video: dict[str, np.ndarray],
                   budget: int, tious=DEFAULT_TIOUS) -> float:
    """Recall averaged over the overlap thresholds at one proposal budget."""
    return float(recall_at_budget(proposals_by_video, gt_by_video, budget, tious).mean())


def recall_curve(proposals_by_video: dict[str, list], gt_by_video: dict[str, np.ndarray],
                 cfg: EvalConfig) -> np.ndarray:
    """Average recall at budgets 1..max_budget; videos without ground truth are
    dropped once, and a non-finite proposal of a scored video raises
    ``DegenerateInputError``."""
    cfg.validate_curve()
    annotated = _annotated(gt_by_video)
    return np.array([
        recall_at_budget(proposals_by_video, annotated, b, cfg.tious).mean()
        for b in range(1, cfg.max_budget + 1)
    ])


def curve_area(recalls: np.ndarray) -> float:
    """Area under the recall-vs-budget curve, scaled to 0..100.

    The curve is trapezoid-integrated over budgets 1..len(recalls) and divided
    by the budget span, so a constant curve at r yields 100 * r.
    """
    recalls = np.asarray(recalls, dtype=np.float64)
    if recalls.size < 2:
        raise EmptyInputError("curve area needs at least two budgets")
    span = recalls.size - 1
    area = ((recalls[1:] + recalls[:-1]) / 2.0).sum()
    return float(area / span * 100.0)


@dataclass
class Detection:
    start: float
    end: float
    score: float
    label: str


def _average_precision(tp: np.ndarray, fp: np.ndarray, num_gt: int) -> float:
    """Interpolated AP from per-detection outcomes already in score order."""
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(fp)
    recall = tp_cum / num_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    changed = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[changed] - mrec[changed - 1]) * mpre[changed]))


def detection_map(detections_by_video: dict[str, list[Detection]],
                  gt_by_video: dict[str, list], tiou: float) -> float:
    """Mean average precision over the classes present in the ground truth.

    ``gt_by_video`` maps video id to a list of (start, end, label) triples.
    For each class, detections are ranked by score across the corpus and
    matched greedily: a detection is correct when its best-overlap unmatched
    same-class action in the same video reaches the threshold, which must
    lie in (0, 1]. A non-finite detection raises ``DegenerateInputError``.
    """
    _check_tious((tiou,))
    if not all(math.isfinite(x) for ds in detections_by_video.values() for d in ds
               for x in (d.start, d.end, d.score)):
        raise DegenerateInputError("detection_map needs finite detection starts, ends "
                                   "and scores")
    labels = sorted({g[2] for gts in gt_by_video.values() for g in gts})
    if not labels:
        raise EmptyInputError("no ground-truth actions to score against")
    aps = []
    for label in labels:
        gt_index = {vid: np.array([[g[0], g[1]] for g in gts if g[2] == label],
                                  dtype=np.float64).reshape(-1, 2)
                    for vid, gts in gt_by_video.items()}
        num_gt = sum(spans.shape[0] for spans in gt_index.values())
        dets = [
            (d.score, video_id, d.start, d.end)
            for video_id, ds in detections_by_video.items()
            for d in ds if d.label == label
        ]
        dets.sort(key=lambda r: -r[0])
        used = {vid: np.zeros(spans.shape[0], dtype=bool) for vid, spans in gt_index.items()}
        tp = np.zeros(len(dets))
        fp = np.zeros(len(dets))
        for i, (_score, video_id, start, end) in enumerate(dets):
            spans = gt_index.get(video_id)
            if spans is None or spans.shape[0] == 0:
                fp[i] = 1.0
                continue
            iou = interval_iou(np.array([start, end]), spans)
            iou = np.where(used[video_id], -1.0, iou)
            best = int(np.argmax(iou))
            if iou[best] >= tiou:
                tp[i] = 1.0
                used[video_id][best] = True
            else:
                fp[i] = 1.0
        aps.append(_average_precision(tp, fp, num_gt))
    return float(np.mean(aps))
