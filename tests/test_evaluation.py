"""Recall, curve-area and detection metrics."""

import logging

import numpy as np
import pytest

from tapgkit.errors import EmptyInputError, ShapeError
from tapgkit.evaluation import (
    DEFAULT_TIOUS,
    Detection,
    EvalConfig,
    _greedy_match_count,
    average_recall,
    curve_area,
    detection_map,
    ground_truth,
    interval_iou,
    iou_matrix,
    recall_at_budget,
    recall_curve,
)
from tapgkit.data.annotations import ActionInstance, VideoAnnotation
from tapgkit.inference import Proposal


def _iou_scalar(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


def _greedy_oracle(iou, threshold):
    """Sweep all pairs in descending overlap order, keep disjoint ones."""
    pairs = sorted(((iou[p, g], p, g)
                    for p in range(iou.shape[0])
                    for g in range(iou.shape[1])), reverse=True)
    taken_p, taken_g, count = set(), set(), 0
    for value, p, g in pairs:
        if value < threshold:
            break
        if p in taken_p or g in taken_g:
            continue
        taken_p.add(p)
        taken_g.add(g)
        count += 1
    return count


class TestIntervalIou:
    def test_hand_cases(self):
        np.testing.assert_allclose(
            interval_iou(np.array([0.0, 2.0]), np.array([1.0, 3.0])), 1.0 / 3.0)
        np.testing.assert_allclose(
            interval_iou(np.array([0.0, 2.0]), np.array([0.0, 2.0])), 1.0)
        np.testing.assert_allclose(
            interval_iou(np.array([0.0, 1.0]), np.array([2.0, 3.0])), 0.0)

    def test_empty_union_is_zero(self):
        got = interval_iou(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert got == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_against_scalar_formula(self, seed):
        rng = np.random.default_rng(seed)
        a = np.sort(rng.uniform(0, 10, (20, 2)), axis=1)
        b = np.sort(rng.uniform(0, 10, (20, 2)), axis=1)
        got = interval_iou(a, b)
        want = [_iou_scalar(a[i], b[i]) for i in range(20)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_bit_identical_to_scalar_formula_on_edge_intervals(self):
        rng = np.random.default_rng(11)
        a = np.sort(rng.uniform(0, 10, (40, 2)), axis=1)
        b = np.sort(rng.uniform(0, 10, (40, 2)), axis=1)
        a[:8, 1] = a[:8, 0]                 # zero-length
        b[:4] = a[:4]                       # both zero-length: empty union
        b[8:16] = a[8:16]                   # identical
        b[16:24] = a[16:24] + 20.0          # disjoint
        b[24:28] = a[24:28, :1]             # zero-length at the other's start
        got = interval_iou(a, b)
        assert got.tolist() == [_iou_scalar(x, y) for x, y in zip(a, b)]
        for x, y in zip(a, b):
            one = interval_iou(x, y)         # the 0-d case detection_map uses
            assert isinstance(one, np.ndarray) and one.shape == ()
            assert float(one) == _iou_scalar(x, y)

    def test_matrix_shape_and_values(self):
        rng = np.random.default_rng(3)
        props = np.sort(rng.uniform(0, 10, (4, 2)), axis=1)
        gts = np.sort(rng.uniform(0, 10, (3, 2)), axis=1)
        table = iou_matrix(props, gts)
        assert table.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                np.testing.assert_allclose(table[i, j],
                                           _iou_scalar(props[i], gts[j]))

    def test_matrix_rejects_flat_input(self):
        with pytest.raises(ShapeError):
            iou_matrix(np.zeros(4), np.zeros((2, 2)))


class TestGreedyMatching:
    def test_one_to_one(self):
        # one proposal overlapping both actions can only claim one of them
        iou = np.array([[0.9, 0.8]])
        assert _greedy_match_count(iou, 0.5) == 1

    def test_best_pair_claims_first(self):
        # greedy takes the 0.9 pair even though an optimal assignment could
        # match both rows via 0.6 and 0.7
        iou = np.array([[0.9, 0.6], [0.7, 0.0]])
        assert _greedy_match_count(iou, 0.5) == 1
        assert _greedy_match_count(np.array([[0.9, 0.6], [0.7, 0.55]]), 0.5) == 2

    def test_threshold_cuts(self):
        iou = np.array([[0.49]])
        assert _greedy_match_count(iou, 0.5) == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_randomized_against_pair_sweep(self, seed):
        rng = np.random.default_rng(seed)
        iou = rng.uniform(0, 1, (int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        threshold = float(rng.uniform(0.2, 0.8))
        assert _greedy_match_count(iou, threshold) == _greedy_oracle(iou, threshold)


def _proposals(spans_scores):
    return [Proposal(s, e, v) for s, e, v in spans_scores]


class TestRecall:
    def test_pooled_over_videos(self):
        proposals = {
            "a": _proposals([(0.0, 4.0, 0.9), (10.0, 14.0, 0.8)]),
            "b": _proposals([(50.0, 51.0, 0.9)]),
        }
        gt = {
            "a": np.array([[0.0, 4.0], [10.0, 14.0]]),
            "b": np.array([[0.0, 4.0]]),
        }
        got = recall_at_budget(proposals, gt, budget=10, tious=[0.5])
        np.testing.assert_allclose(got, [2.0 / 3.0])

    def test_budget_keeps_top_scores(self):
        # the well-placed proposal is ranked second, so budget 1 misses it
        proposals = {"a": _proposals([(20.0, 30.0, 0.9), (0.0, 4.0, 0.5)])}
        gt = {"a": np.array([[0.0, 4.0]])}
        low = recall_at_budget(proposals, gt, budget=1, tious=[0.5])
        high = recall_at_budget(proposals, gt, budget=2, tious=[0.5])
        np.testing.assert_allclose(low, [0.0])
        np.testing.assert_allclose(high, [1.0])

    def test_video_without_ground_truth_is_skipped(self, caplog):
        proposals = {"a": _proposals([(0.0, 4.0, 0.9)]), "b": []}
        gt = {"a": np.array([[0.0, 4.0]]), "b": np.zeros((0, 2))}
        with caplog.at_level(logging.WARNING, logger="tapgkit.evaluation"):
            got = recall_at_budget(proposals, gt, budget=5, tious=[0.5])
        np.testing.assert_allclose(got, [1.0])
        assert any("no ground truth" in r.message for r in caplog.records)

    def test_overlap_equal_to_the_threshold_is_a_match(self):
        # [0, 2] against [0, 1]: IoU 1/2, exactly 0.5 in binary
        proposals = {"a": _proposals([(0.0, 2.0, 0.9)])}
        gt = {"a": np.array([[0.0, 1.0]])}
        np.testing.assert_array_equal(
            recall_at_budget(proposals, gt, budget=1, tious=[0.5, np.nextafter(0.5, 1.0)]),
            [1.0, 0.0])

    def test_no_ground_truth_anywhere(self):
        with pytest.raises(EmptyInputError):
            recall_at_budget({"a": []}, {"a": np.zeros((0, 2))}, 5, [0.5])

    def test_missing_proposal_entry_counts_as_zero(self):
        gt = {"a": np.array([[0.0, 4.0]]), "b": np.array([[0.0, 4.0]])}
        proposals = {"a": _proposals([(0.0, 4.0, 0.9)])}
        got = recall_at_budget(proposals, gt, budget=5, tious=[0.5])
        np.testing.assert_allclose(got, [0.5])

    def test_tighter_thresholds_never_raise_recall(self):
        rng = np.random.default_rng(7)
        proposals, gt = {}, {}
        for v in range(4):
            vid = f"v{v}"
            spans = np.sort(rng.uniform(0, 30, (5, 2)), axis=1)
            gt[vid] = spans
            noise = rng.normal(0, 1.0, spans.shape)
            scores = rng.uniform(0.1, 1.0, 5)
            proposals[vid] = _proposals([
                (s + n0, max(s + n0 + 0.5, e + n1), sc)
                for (s, e), (n0, n1), sc in zip(spans, noise, scores)])
        values = recall_at_budget(proposals, gt, 5, DEFAULT_TIOUS)
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))

    def test_average_recall_is_threshold_mean(self):
        proposals = {"a": _proposals([(0.0, 4.0, 0.9)])}
        gt = {"a": np.array([[0.0, 4.2]])}
        per = recall_at_budget(proposals, gt, 5, DEFAULT_TIOUS)
        got = average_recall(proposals, gt, 5, DEFAULT_TIOUS)
        np.testing.assert_allclose(got, per.mean())


class TestRecallCurve:
    def _fixture(self, seed=11):
        rng = np.random.default_rng(seed)
        proposals, gt = {}, {}
        for v in range(3):
            vid = f"v{v}"
            spans = np.sort(rng.uniform(0, 40, (4, 2)), axis=1)
            gt[vid] = spans
            rows = []
            for _ in range(12):
                s = float(rng.uniform(0, 35))
                rows.append((s, s + float(rng.uniform(1, 8)),
                             float(rng.uniform(0, 1))))
            proposals[vid] = _proposals(rows)
        return proposals, gt

    def test_monotone_in_budget(self):
        proposals, gt = self._fixture()
        curve = recall_curve(proposals, gt, EvalConfig(max_budget=12))
        assert all(curve[i] <= curve[i + 1] + 1e-12 for i in range(len(curve) - 1))

    def test_curve_matches_pointwise_calls(self):
        proposals, gt = self._fixture(seed=12)
        cfg = EvalConfig(max_budget=6)
        curve = recall_curve(proposals, gt, cfg)
        for b in (1, 3, 6):
            np.testing.assert_allclose(
                curve[b - 1],
                recall_at_budget(proposals, gt, b, cfg.tious).mean())

    def test_one_warning_per_video_without_ground_truth(self, caplog):
        proposals, gt = self._fixture()
        gt = {**gt, "bare": np.zeros((0, 2)), "empty": np.zeros((0, 2))}
        with caplog.at_level(logging.WARNING, logger="tapgkit.evaluation"):
            recall_curve(proposals, gt, EvalConfig(max_budget=12))
        assert sorted(r.getMessage() for r in caplog.records) == [
            f"video {vid} has no ground truth, excluded from recall"
            for vid in ("bare", "empty")]

    def test_config_validation(self):
        with pytest.raises(ShapeError):
            EvalConfig(tious=()).validate()
        with pytest.raises(ShapeError):
            EvalConfig(tious=(0.5, 1.5)).validate()
        with pytest.raises(ShapeError):
            EvalConfig(tious=(0.0, 0.5)).validate()
        with pytest.raises(ShapeError):
            EvalConfig(max_budget=0).validate()
        # the curve's area needs two budgets
        with pytest.raises(ShapeError, match="max_budget"):
            EvalConfig(max_budget=1).validate()
        EvalConfig(max_budget=2).validate()
        for budgets in ((0,), (-1, 5)):
            with pytest.raises(ShapeError):
                EvalConfig(report_budgets=budgets).validate()


class TestCurveArea:
    def test_constant_half_is_exactly_fifty(self):
        assert curve_area(np.full(100, 0.5)) == 50.0

    def test_linear_ramp(self):
        # trapezoid area of a straight line is its mean of endpoints
        curve = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(curve_area(curve), 50.0)

    def test_two_point_curve(self):
        np.testing.assert_allclose(curve_area(np.array([0.2, 0.6])), 40.0)

    def test_single_point_rejected(self):
        with pytest.raises(EmptyInputError):
            curve_area(np.array([0.5]))


def _map_oracle(dets_by_video, gt_by_video, tiou):
    """Scalar-loop restatement of class-wise interpolated average precision."""
    labels = sorted({g[2] for gts in gt_by_video.values() for g in gts})
    aps = []
    for label in labels:
        gt_pool = {vid: [list(g[:2]) + [False] for g in gts if g[2] == label]
                   for vid, gts in gt_by_video.items()}
        num_gt = sum(len(v) for v in gt_pool.values())
        if num_gt == 0:
            continue
        dets = sorted(((d.score, vid, d.start, d.end)
                       for vid, ds in dets_by_video.items()
                       for d in ds if d.label == label), reverse=True)
        if not dets:
            aps.append(0.0)
            continue
        outcomes = []
        for _score, vid, s, e in dets:
            pool = gt_pool.get(vid, [])
            best, best_iou = None, -1.0
            for entry in pool:
                if entry[2]:
                    continue
                value = _iou_scalar((s, e), entry[:2])
                if value > best_iou:
                    best, best_iou = entry, value
            if best is not None and best_iou >= tiou:
                best[2] = True
                outcomes.append(1)
            else:
                outcomes.append(0)
        precision = []
        hits = 0
        for i, o in enumerate(outcomes):
            hits += o
            precision.append(hits / (i + 1))
        ap = 0.0
        for i, o in enumerate(outcomes):
            if o:
                ap += max(precision[i:]) / num_gt
        aps.append(ap)
    return float(np.mean(aps))


class TestDetectionMap:
    def test_perfect_detections(self):
        dets = {"a": [Detection(0.0, 4.0, 0.9, "swing")]}
        gt = {"a": [(0.0, 4.0, "swing")]}
        assert detection_map(dets, gt, 0.5) == 1.0

    def test_hand_worked_ranked_case(self):
        # rank order tp, fp, tp with two actions: envelope precisions are
        # 1 and 2/3, so the average precision is (1 + 2/3) / 2
        dets = {"a": [Detection(0.0, 4.0, 0.9, "swing"),
                      Detection(50.0, 54.0, 0.8, "swing"),
                      Detection(10.0, 14.0, 0.7, "swing")]}
        gt = {"a": [(0.0, 4.0, "swing"), (10.0, 14.0, "swing")]}
        np.testing.assert_allclose(detection_map(dets, gt, 0.5),
                                   (1.0 + 2.0 / 3.0) / 2.0)

    def test_double_counting_forbidden(self):
        # two detections on the same action: only the higher-ranked one is tp
        dets = {"a": [Detection(0.0, 4.0, 0.9, "swing"),
                      Detection(0.1, 4.1, 0.8, "swing")]}
        gt = {"a": [(0.0, 4.0, "swing")]}
        got = detection_map(dets, gt, 0.5)
        np.testing.assert_allclose(got, 1.0)

    def test_unknown_label_detections_ignored(self):
        dets = {"a": [Detection(0.0, 4.0, 0.9, "swing"),
                      Detection(0.0, 4.0, 0.95, "made-up")]}
        gt = {"a": [(0.0, 4.0, "swing")]}
        assert detection_map(dets, gt, 0.5) == 1.0

    def test_class_without_detections_scores_zero(self):
        dets = {"a": [Detection(0.0, 4.0, 0.9, "swing")]}
        gt = {"a": [(0.0, 4.0, "swing"), (10.0, 14.0, "lift")]}
        np.testing.assert_allclose(detection_map(dets, gt, 0.5), 0.5)

    def test_overlap_equal_to_the_threshold_is_a_match(self):
        # [0, 2] against [0, 1]: IoU 1/2, exactly 0.5 in binary
        dets = {"a": [Detection(0.0, 2.0, 0.9, "x")]}
        gt = {"a": [(0.0, 1.0, "x")]}
        assert detection_map(dets, gt, 0.5) == 1.0
        assert detection_map(dets, gt, np.nextafter(0.5, 1.0)) == 0.0

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(EmptyInputError):
            detection_map({"a": []}, {"a": []}, 0.5)

    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        labels = ["swing", "lift", "kick"][:int(rng.integers(1, 4))]
        dets_by_video, gt_by_video = {}, {}
        for v in range(int(rng.integers(1, 4))):
            vid = f"v{v}"
            gts = []
            for _ in range(int(rng.integers(1, 5))):
                s = float(rng.uniform(0, 30))
                gts.append((s, s + float(rng.uniform(1, 6)),
                            str(rng.choice(labels))))
            gt_by_video[vid] = gts
            dets = []
            for _ in range(int(rng.integers(0, 8))):
                s = float(rng.uniform(0, 30))
                dets.append(Detection(s, s + float(rng.uniform(1, 6)),
                                      float(rng.uniform(0, 1)),
                                      str(rng.choice(labels))))
            dets_by_video[vid] = dets
        tiou = float(rng.uniform(0.3, 0.7))
        got = detection_map(dets_by_video, gt_by_video, tiou)
        want = _map_oracle(dets_by_video, gt_by_video, tiou)
        np.testing.assert_allclose(got, want, rtol=1e-9)


class TestGroundTruth:
    def test_spans_per_video_in_seconds(self):
        annotations = {
            "a": VideoAnnotation("a", 10.0, 1.0, 10, [ActionInstance(1.0, 2.5, "x"),
                                                      ActionInstance(4.0, 9.0, "y")]),
            "b": VideoAnnotation("b", 10.0, 1.0, 10),
        }
        gt = ground_truth(annotations)
        np.testing.assert_array_equal(gt["a"], [[1.0, 2.5], [4.0, 9.0]])
        assert gt["b"].shape == (0, 2) and gt["a"].dtype == np.float64
