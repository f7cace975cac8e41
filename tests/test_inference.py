"""Decoding, suppression and proposal files."""

import dataclasses
import json
import math
import sys
import time

import numpy as np
import pytest

from tapgkit.autodiff import tensor as T
from tapgkit.boundary_net import BoundaryNetOutput, valid_cells
from tapgkit.config import RunConfig, build_model
from tapgkit.data.synthetic import generate_corpus
from tapgkit.errors import (
    ConfigError,
    DegenerateInputError,
    EmptyInputError,
    FileFormatError,
    ShapeError,
)
from tapgkit.inference import (
    HardSuppressionConfig,
    Proposal,
    SoftSuppressionConfig,
    boundary_candidates,
    decode_corpus,
    generate_proposals,
    load_proposals,
    local_maxima,
    merge_class_scores,
    nms,
    pair_candidates,
    save_proposals,
    soft_nms,
    suppress,
    suppression_preset,
)
from tapgkit.evaluation import interval_iou


def _iou(a, b):
    inter = max(0.0, min(a.end, b.end) - max(a.start, b.start))
    union = (a.end - a.start) + (b.end - b.start) - inter
    return inter / union if union > 0 else 0.0


def _soft_nms_oracle(proposals, cfg):
    """Plain-list restatement of the decayed suppression loop. Each pick's
    decay factors come from one ``np.exp`` over its hit rows' exponents."""
    live = [[p.start, p.end, p.score, i] for i, p in enumerate(proposals)]
    kept = []
    while live and len(kept) < cfg.max_keep:
        live.sort(key=lambda r: (-r[2], r[0], r[3]))
        top = live.pop(0)
        kept.append(Proposal(top[0], top[1], top[2]))
        hits, exponents = [], []
        for row in live:
            a = Proposal(top[0], top[1], top[2])
            b = Proposal(row[0], row[1], row[2])
            centre_gap = abs(((row[0] + row[1]) / 2) - ((top[0] + top[1]) / 2))
            gap = centre_gap / (top[1] - top[0])
            if _iou(a, b) >= cfg.overlap_offset + cfg.distance_weight * gap:
                hits.append(row)
                exponents.append(-_iou(a, b) / cfg.sigma)
        for row, factor in zip(hits, np.exp(np.array(exponents)).tolist()):
            row[2] *= factor
        live = [row for row in live if row[2] >= cfg.score_floor]
    return kept


def _nms_oracle(proposals, cfg):
    live = sorted(([p.start, p.end, p.score, i] for i, p in enumerate(proposals)),
                  key=lambda r: (-r[2], r[0], r[3]))
    kept = []
    for row in live:
        if len(kept) >= cfg.max_keep:
            break
        candidate = Proposal(row[0], row[1], row[2])
        if all(_iou(candidate, k) <= cfg.threshold for k in kept):
            kept.append(candidate)
    return kept


class TestLocalMaxima:
    def test_interior_peak(self):
        got = local_maxima(np.array([0.1, 0.9, 0.2, 0.3, 0.1]))
        np.testing.assert_array_equal(got, [1, 3])

    def test_plateau_counts_every_point(self):
        # non-strict comparison keeps both ends of a flat top
        got = local_maxima(np.array([0.1, 0.5, 0.5, 0.1]))
        np.testing.assert_array_equal(got, [1, 2])

    def test_endpoints_compare_one_sided(self):
        got = local_maxima(np.array([0.9, 0.1, 0.8]))
        np.testing.assert_array_equal(got, [0, 2])

    def test_single_point(self):
        for values, expected in (([0.4], [0]), ([], [])):
            got = local_maxima(np.array(values))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)

    def test_monotone_ramp(self):
        got = local_maxima(np.array([0.1, 0.2, 0.3, 0.4]))
        np.testing.assert_array_equal(got, [3])


class TestBoundaryCandidates:
    def test_includes_high_points_off_the_peak(self):
        # 0.55 is not a local max but clears half the sequence maximum
        values = np.array([0.1, 0.9, 0.55, 0.05, 0.2, 0.1])
        np.testing.assert_array_equal(boundary_candidates(values), [1, 2, 4])

    def test_near_flat_plateau_keeps_every_member(self):
        # float noise on a learned plateau must not hide the true boundary
        values = np.array([1e-6, 0.9999993, 0.9999992, 0.9997, 1e-4])
        np.testing.assert_array_equal(boundary_candidates(values), [1, 2, 3])

    def test_reduces_to_maxima_when_rest_is_low(self):
        values = np.array([0.01, 0.9, 0.01, 0.02, 0.01])
        np.testing.assert_array_equal(boundary_candidates(values), [1, 3])
        # 0.3 is below half the maximum and is not a local max
        np.testing.assert_array_equal(boundary_candidates(np.array([0.3, 1.0, 0.05])),
                                      [1])

    def test_empty_sequence_has_no_candidates(self):
        got = boundary_candidates(np.zeros(0))
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_exactly_half_the_maximum_is_a_candidate(self):
        # 0.5 is not a local max; 0.25 is below half
        np.testing.assert_array_equal(boundary_candidates(np.array([1.0, 0.5, 0.25])),
                                      [0, 1])


def _toy_output(seed=0, num_snippets=8, max_duration=8):
    rng = np.random.default_rng(seed)
    valid = valid_cells(num_snippets, max_duration)
    return BoundaryNetOutput(
        start=T.constant(rng.uniform(0.05, 0.95, num_snippets)),
        end=T.constant(rng.uniform(0.05, 0.95, num_snippets)),
        actionness=T.constant(rng.uniform(0.05, 0.95, (max_duration, num_snippets))[valid]),
        valid=valid,
    )


class TestPairing:
    def test_scores_are_triple_products(self):
        out = _toy_output(seed=1)
        p_start, p_end = out.start.data, out.end.data
        p_grid = out.actionness_grid()
        expected = []
        for s in boundary_candidates(p_start):
            for e in boundary_candidates(p_end):
                d = int(e) - int(s)
                if d < 1 or d > p_grid.shape[0] or not out.valid[d - 1, s]:
                    continue
                expected.append([s, e, float(p_start[s]) * float(p_end[e])
                                 * float(p_grid[d - 1, s])])
        got = pair_candidates(out)
        assert got.dtype == np.float64 and got.shape == (len(expected), 3)
        assert got.tolist() == expected

    def test_zero_length_pairs_excluded(self):
        out = _toy_output(seed=2)
        assert all(e > s for s, e, _ in pair_candidates(out))

    def test_duration_cap_respected(self):
        out = _toy_output(seed=3, num_snippets=12, max_duration=3)
        assert all(e - s <= 3 for s, e, _ in pair_candidates(out))

    def test_pair_at_the_duration_cap_is_kept(self):
        # start candidates {0, 1}, end candidates {3}: durations 3 (the cap) and 2
        valid = valid_cells(6, 3)
        out = BoundaryNetOutput(
            start=T.constant(np.array([0.9, 0.5, 0.3, 0.2, 0.1, 0.05])),
            end=T.constant(np.array([0.05, 0.1, 0.2, 0.9, 0.3, 0.1])),
            actionness=T.constant(np.full(int(valid.sum()), 0.5)), valid=valid)
        np.testing.assert_array_equal(pair_candidates(out)[:, :2], [[0, 3], [1, 3]])

    def test_single_snippet_has_no_candidates(self):
        out = _toy_output(seed=4, num_snippets=1, max_duration=1)
        assert pair_candidates(out).shape == (0, 3)
        assert generate_proposals(out, 16, 8.0, SoftSuppressionConfig(sigma=0.4)) == []


def _decoded_candidates(seed):
    """Every candidate pair of a random toy output: a few hundred rows."""
    rows = pair_candidates(_toy_output(seed, num_snippets=48, max_duration=48))
    return [Proposal(*row) for row in rows.tolist()]


def _triples(proposals):
    return [(p.start, p.end, p.score) for p in proposals]


class TestSoftSuppression:
    def test_hand_worked_decay(self):
        # the runner-up overlaps the winner at iou 0.8, so with sigma 0.4 its
        # score shrinks by exp(-2)
        cfg = SoftSuppressionConfig(sigma=0.4, overlap_offset=0.5,
                                    distance_weight=0.0)
        kept = soft_nms([Proposal(0.0, 10.0, 0.9),
                         Proposal(0.0, 12.5, 0.5)], cfg)
        np.testing.assert_allclose(kept[1].score, 0.5 * math.exp(-2.0),
                                   atol=1e-6)

    def test_distance_term_raises_the_bar(self):
        # same geometry, but the centre-distance term lifts the threshold
        # above the observed iou, so no decay happens
        cfg = SoftSuppressionConfig(sigma=0.4, overlap_offset=0.78,
                                    distance_weight=0.4)
        kept = soft_nms([Proposal(0.0, 10.0, 0.9),
                         Proposal(0.0, 12.5, 0.5)], cfg)
        np.testing.assert_allclose(kept[1].score, 0.5, atol=1e-9)

    def test_score_floor_drops_proposals(self):
        cfg = SoftSuppressionConfig(sigma=0.01, overlap_offset=0.0,
                                    score_floor=1e-4)
        kept = soft_nms([Proposal(0.0, 10.0, 0.9),
                         Proposal(0.0, 10.0, 0.8)], cfg)
        assert len(kept) == 1

    def test_max_keep(self):
        cfg = SoftSuppressionConfig(sigma=0.4, max_keep=2)
        proposals = [Proposal(float(i), float(i) + 1.0, 0.5) for i in range(6)]
        assert len(soft_nms(proposals, cfg)) == 2

    def test_equal_scores_prefer_earlier_start(self):
        cfg = SoftSuppressionConfig(sigma=0.4, overlap_offset=2.0)
        kept = soft_nms([Proposal(5.0, 6.0, 0.7), Proposal(1.0, 2.0, 0.7)], cfg)
        assert kept[0].start == 1.0

    def test_empty_input(self):
        assert soft_nms([], SoftSuppressionConfig(sigma=0.4)) == []

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        proposals = []
        for _ in range(int(rng.integers(1, 13))):
            s = float(rng.uniform(0, 20))
            proposals.append(Proposal(s, s + float(rng.uniform(0.5, 10)),
                                      float(rng.uniform(0.1, 1.0))))
        cfg = SoftSuppressionConfig(
            sigma=float(rng.uniform(0.2, 0.8)),
            overlap_offset=float(rng.choice([0.0, 0.3, 0.5, 0.65])),
            distance_weight=float(rng.choice([0.0, 0.4])),
            max_keep=int(rng.integers(3, 15)))
        got = soft_nms(list(proposals), cfg)
        want = _soft_nms_oracle(proposals, cfg)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_allclose([g.start, g.end, g.score],
                                       [w.start, w.end, w.score], rtol=1e-9)

    @pytest.mark.parametrize("preset", ["anet-tapg-snms", "thumos-tapg-snms",
                                        "anet-tad-snms"])
    @pytest.mark.parametrize("seed", range(3))
    def test_full_candidate_sets_match_oracle_exactly(self, preset, seed):
        proposals = _decoded_candidates(seed)
        assert len(proposals) >= 200
        cfg = suppression_preset(preset)
        assert _triples(soft_nms(proposals, cfg)) == \
               _triples(_soft_nms_oracle(proposals, cfg))


class TestHardSuppression:
    def test_keeps_non_overlapping(self):
        cfg = HardSuppressionConfig(threshold=0.45)
        kept = nms([Proposal(0.0, 4.0, 0.9), Proposal(10.0, 14.0, 0.8),
                    Proposal(0.5, 4.5, 0.7)], cfg)
        assert [(k.start, k.end) for k in kept] == [(0.0, 4.0), (10.0, 14.0)]

    def test_iou_exactly_at_threshold_survives(self):
        # suppression fires only above the threshold, not at it
        cfg = HardSuppressionConfig(threshold=0.5)
        kept = nms([Proposal(0.0, 2.0, 0.9), Proposal(1.0, 3.0, 0.8)], cfg)
        assert len(kept) == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_against_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        proposals = []
        for _ in range(int(rng.integers(1, 13))):
            s = float(rng.uniform(0, 20))
            proposals.append(Proposal(s, s + float(rng.uniform(0.5, 10)),
                                      float(rng.uniform(0.1, 1.0))))
        cfg = HardSuppressionConfig(threshold=float(rng.uniform(0.2, 0.7)),
                                    max_keep=int(rng.integers(3, 15)))
        got = nms(list(proposals), cfg)
        want = _nms_oracle(proposals, cfg)
        assert [(k.start, k.end, k.score) for k in got] == \
               [(k.start, k.end, k.score) for k in want]

    @pytest.mark.parametrize("seed", range(3))
    def test_full_candidate_sets_match_oracle_exactly(self, seed):
        proposals = _decoded_candidates(seed)
        assert len(proposals) >= 200
        cfg = suppression_preset("thumos-tad-nms")
        assert _triples(nms(proposals, cfg)) == _triples(_nms_oracle(proposals, cfg))


class TestSuppressionBounds:
    def test_zero_sigma_rejected(self):
        with pytest.raises(ConfigError, match="sigma"):
            SoftSuppressionConfig(sigma=0.0).validate()

    @pytest.mark.parametrize("preset", ["anet-tapg-snms", "thumos-tapg-snms",
                                        "anet-tad-snms"])
    def test_subnormal_sigma_rejected(self, preset):
        # sigma = 1e-320 validated, then IoU / sigma overflowed inside suppress;
        # 1 / sys.float_info.max is subnormal too, and 1 over it is inf
        rows = np.array([[0.0, 2.0, 0.9], [0.5, 2.5, 0.5]])
        for bad in (1e-320, 5e-324, 1 / sys.float_info.max):
            cfg = dataclasses.replace(suppression_preset(preset), sigma=bad)
            with pytest.raises(ConfigError, match="sigma"):
                cfg.validate()
            with pytest.raises(ConfigError, match="sigma"):
                suppress(rows, cfg)
        # the smallest sigma with a finite 1 / sigma decays an overlap to 0
        cfg = dataclasses.replace(suppression_preset(preset),
                                  sigma=float(np.nextafter(1 / sys.float_info.max, 1)))
        cfg.validate()
        assert suppress([[0.0, 2.0, 0.9], [0.1, 2.1, 0.5]], cfg)[:, 2].tolist() == [0.9]

    def test_zero_hard_threshold_rejected(self):
        with pytest.raises(ConfigError, match="threshold"):
            HardSuppressionConfig(threshold=0.0).validate()
        HardSuppressionConfig(threshold=1.0).validate()

    @pytest.mark.parametrize("field", ["sigma", "overlap_offset", "distance_weight",
                                       "score_floor"])
    def test_non_finite_soft_parameter_rejected(self, field):
        # nan sigma scored a proposal nan, nan offset turned suppression off and
        # an infinite distance weight warned inside the pick loop
        rows = np.array([[0.0, 2.0, 0.9], [0.5, 2.5, 0.8], [5.0, 6.0, 0.4]])
        for bad in (math.nan, math.inf, -math.inf):
            cfg = dataclasses.replace(SoftSuppressionConfig(sigma=0.4), **{field: bad})
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                cfg.validate()
            with pytest.raises(ConfigError, match=field):
                suppress(rows, cfg)

    @pytest.mark.parametrize("base", [SoftSuppressionConfig(sigma=0.4),
                                      HardSuppressionConfig(threshold=0.45)])
    def test_max_keep_must_be_at_least_one(self, base):
        with pytest.raises(ConfigError, match="max_keep must be at least 1"):
            dataclasses.replace(base, max_keep=0).validate()
        dataclasses.replace(base, max_keep=1).validate()

    @pytest.mark.parametrize("base", [SoftSuppressionConfig(sigma=0.4),
                                      HardSuppressionConfig(threshold=0.5)])
    def test_max_keep_must_be_a_whole_number(self, base):
        # a hard config with max_keep=1.5 raised TypeError inside suppress, and a
        # soft one with 2.5 ran
        rows = np.array([[0.0, 2.0, 0.9], [5.0, 6.0, 0.4], [8.0, 9.0, 0.2]])
        for bad in (1.5, 2.5, 2.0, True, "2", np.float64(2.0)):
            cfg = dataclasses.replace(base, max_keep=bad)
            with pytest.raises(ConfigError, match="whole number"):
                cfg.validate()
            with pytest.raises(ConfigError, match="max_keep"):
                suppress(rows, cfg)
        assert len(suppress(rows, dataclasses.replace(base, max_keep=np.int64(2)))) == 2


class TestPresets:
    def test_named_parameter_sets(self):
        a = suppression_preset("anet-tapg-snms")
        assert (a.sigma, a.overlap_offset, a.distance_weight) == (0.4, 0.5, 0.4)
        t = suppression_preset("thumos-tapg-snms")
        assert (t.sigma, t.overlap_offset, t.distance_weight) == (0.3, 0.65, 0.0)
        d = suppression_preset("anet-tad-snms")
        assert (d.sigma, d.overlap_offset, d.distance_weight) == (0.4, 0.0, 0.0)
        h = suppression_preset("thumos-tad-nms")
        assert isinstance(h, HardSuppressionConfig) and h.threshold == 0.45
        # AR@100 reads the top 100 proposals of a video
        assert [p.max_keep for p in (a, t, d, h)] == [100] * 4

    def test_presets_return_copies(self):
        one = suppression_preset("anet-tapg-snms")
        one.sigma = 99.0
        assert suppression_preset("anet-tapg-snms").sigma == 0.4

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            suppression_preset("imaginary")

    def test_dispatcher_accepts_both_kinds(self):
        rows = np.array([[0.0, 2.0, 0.9], [0.1, 2.1, 0.8]])
        soft = suppress(rows, suppression_preset("anet-tapg-snms"))
        hard = suppress(rows, suppression_preset("thumos-tad-nms"))
        assert soft.shape == (2, 3) and hard.shape == (1, 3)


PRESET_NAMES = ["anet-tapg-snms", "thumos-tapg-snms", "anet-tad-snms",
                "thumos-tad-nms"]


def _oracle(proposals, cfg):
    if isinstance(cfg, SoftSuppressionConfig):
        return _soft_nms_oracle(proposals, cfg)
    return _nms_oracle(proposals, cfg)


def _tied_rows(rng):
    """Rows drawn from small grids, so scores and starts tie often, with a
    few scores under the default floor."""
    n = int(rng.integers(1, 40))
    starts = rng.choice(np.arange(0.0, 12.0, 0.5), n)
    ends = starts + rng.choice([0.5, 1.0, 2.0, 3.5, 6.0], n)
    scores = rng.choice([0.9, 0.6, 0.6, 0.3, 5e-5, 2e-4], n)
    return np.column_stack([starts, ends, scores])


class TestSuppressRows:
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_against_oracle(self, preset, seed):
        rng = np.random.default_rng(500 + seed)
        rows = _tied_rows(rng)
        cfg = suppression_preset(preset)
        cfg.max_keep = int(rng.integers(1, 2 * len(rows) + 2))   # often above n
        got = suppress(rows, cfg)
        assert got.dtype == np.float64 and got.shape[1] == 3
        want = _oracle([Proposal(*r) for r in rows.tolist()], cfg)
        assert [tuple(r) for r in got.tolist()] == _triples(want)

    @pytest.mark.parametrize("preset", PRESET_NAMES[:3])
    def test_all_scores_under_the_floor_keep_one(self, preset):
        # the floor applies after each pick, so the first pick always stays
        rows = np.array([[4.0, 6.0, 2e-5], [0.0, 1.0, 5e-5], [8.0, 9.0, 5e-5]])
        got = suppress(rows, suppression_preset(preset))
        assert got.tolist() == [[0.0, 1.0, 5e-5]]

    @pytest.mark.parametrize("preset", PRESET_NAMES[:3])
    def test_a_score_exactly_at_the_floor_is_kept(self, preset):
        cfg = suppression_preset(preset)
        rows = np.array([[0.0, 1.0, 0.9], [5.0, 6.0, cfg.score_floor]])
        assert suppress(rows, cfg).tolist() == rows.tolist()

    def test_a_row_under_the_floor_stays_dropped(self):
        # under a floor <= 0 the second pick's decay lifts [4.2, 5.2]'s negative
        # score toward 0 and over the floor, but the row was dropped after the
        # first pick, which it does not overlap
        cfg = SoftSuppressionConfig(sigma=0.4, score_floor=-0.5)
        rows = np.array([[0.0, 1.0, 0.9], [4.0, 5.0, 0.5], [4.2, 5.2, -0.8]])
        assert suppress(rows, cfg).tolist() == [[0.0, 1.0, 0.9], [4.0, 5.0, 0.5]]

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, preset, bad):
        rows = np.array([[0.0, 2.0, 0.9], [0.5, 2.5, bad], [5.0, 6.0, 0.4]])
        with pytest.raises(DegenerateInputError):
            suppress(rows, suppression_preset(preset))

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("rows", [
        [[-1e308, 1e308, 0.9], [-1e308, 1e308, 0.5]],       # length overflows
        [[1e308, 1.5e308, 0.9], [0.0, 1.0, 0.5]],           # centre overflows
        [[-1.5e308, -1e308, 0.9]],
    ])
    def test_row_with_overflowing_length_or_centre_rejected(self, preset, rows):
        # the length once overflowed with a RuntimeWarning inside suppress
        with pytest.raises(DegenerateInputError, match="length and centre"):
            suppress(np.array(rows), suppression_preset(preset))

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_huge_rows_with_finite_lengths_and_centres_are_suppressed(self, preset):
        rows = np.array([[-4e307, 4e307, 0.9], [-1e307, 4e307, 0.5], [4e307, 4.5e307, 0.1]])
        got = suppress(rows, suppression_preset(preset))
        assert got[0].tolist() == [-4e307, 4e307, 0.9] and np.isfinite(got).all()

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_rows_whose_union_overflows_rejected(self, preset):
        # the rows' IoU is 0.5625, but the pick's union summed lengths of 1.6e308
        # and 0.9e308 and overflowed with a RuntimeWarning inside the pick loop
        rows = np.array([[-8e307, 8e307, 0.9], [-1e307, 8e307, 0.5]])
        with pytest.raises(DegenerateInputError, match="too wide a range"):
            suppress(rows, suppression_preset(preset))

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_pick_too_short_for_its_distance_term(self, preset):
        # a pick 1e-300 long inside a row 1e10 long: the centre gap over the
        # pick's length overflowed under anet-tad-snms
        rows = np.array([[0.0, 1e-300, 0.9], [0.0, 1e10, 0.5]])
        cfg = suppression_preset(preset)
        if isinstance(cfg, HardSuppressionConfig):
            # no distance term; an IoU of 1e-310 suppresses nothing
            assert suppress(rows, cfg).tolist() == rows.tolist()
        else:
            with pytest.raises(DegenerateInputError, match="too wide a range"):
                suppress(rows, cfg)

    def test_offset_and_distance_term_that_overflow_together_rejected(self):
        # either term alone is finite, but their sum (-1.7e308 - 2.5e307)
        # overflowed in the pick's threshold
        cfg = SoftSuppressionConfig(sigma=0.4, overlap_offset=-1.7e308, distance_weight=-1.0)
        rows = np.array([[0.0, 2e-298, 0.9], [0.0, 1e10, 0.5]])
        with pytest.raises(DegenerateInputError, match="too wide a range"):
            suppress(rows, cfg)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_huge_scores_do_not_count_in_the_span(self, preset):
        rows = np.array([[0.0, 1.0, 1.5e308], [5.0, 6.0, 1e308]])
        assert suppress(rows, suppression_preset(preset)).tolist() == rows.tolist()

    def test_extreme_rows_raise_or_suppress_without_overflow(self):
        # coordinates from 1e-320 to 1e308 in size, either sign, some rows
        # reversed, the last row starting where the first does; the suite's
        # filter fails any RuntimeWarning
        cfgs = [suppression_preset(name) for name in PRESET_NAMES] + [
            SoftSuppressionConfig(sigma=0.3, overlap_offset=-0.5, distance_weight=-2.0),
            SoftSuppressionConfig(sigma=0.3, distance_weight=3.0)]
        rejected = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6))
            coords = 10.0 ** rng.uniform(-320, 308.2, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
            if seed % 2:
                coords.sort(axis=1)
            coords[-1, 0] = coords[0, 0]
            rows = np.column_stack([coords, rng.uniform(0, 1, n)])
            for cfg in cfgs:
                try:
                    got = suppress(rows, cfg)
                except DegenerateInputError:
                    rejected += 1
                    continue
                assert got.shape[1] == 3 and len(got) <= n
        assert 0 < rejected < 300 * len(cfgs)

    def test_empty_rows(self):
        got = suppress(np.zeros((0, 3)), suppression_preset("anet-tapg-snms"))
        assert got.shape == (0, 3)

    def test_input_rows_left_unchanged(self):
        rows = pair_candidates(_toy_output(seed=6))
        before = rows.copy()
        suppress(rows, suppression_preset("anet-tad-snms"))
        np.testing.assert_array_equal(rows, before)


def _suppress_loop(rows, cfg):
    """``suppress`` as it was before it precomputed each row's length and
    centre: IoU and centre gap rebuilt from the rows at every pick."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    live = rows[:, 2].copy()
    soft = isinstance(cfg, SoftSuppressionConfig)
    kept, scores = [], []
    for _ in range(min(cfg.max_keep, len(rows))):
        best = int(np.argmax(live))
        if live[best] == -math.inf:
            break
        top = rows[best]
        kept.append(best)
        scores.append(live[best])
        live[best] = -math.inf
        iou = interval_iou(top[:2], rows[:, :2])
        if not soft:
            live[iou > cfg.threshold] = -math.inf
            continue
        duration = top[1] - top[0]
        gap = np.abs((top[0] + top[1]) - (rows[:, 0] + rows[:, 1])) / 2.0
        distance = gap / duration if duration > 0 else math.inf
        hit = (iou >= cfg.overlap_offset + cfg.distance_weight * distance) \
            & (live > -math.inf)
        live[hit] *= np.exp(-iou[hit] / cfg.sigma)
        live[live < cfg.score_floor] = -math.inf
    out = rows[kept]
    out[:, 2] = scores
    return out


def _decode_flat_rows():
    """Candidate rows, in seconds, of an untrained desk model on three
    synthetic videos: every start/end pair is a candidate."""
    run = RunConfig()
    syn = dataclasses.replace(run.synthetic, num_videos=3, min_action_len=2,
                              max_action_len=8)
    corpus = generate_corpus(syn)
    model = build_model(run, corpus.features)
    seconds = syn.snippet_stride / syn.fps
    return [pair_candidates(model(seq)) * [seconds, seconds, 1.0]
            for seq in corpus.features.values()]


def _edge_rows(rng):
    """Rows with tied starts and scores, zero-length intervals and reversed
    copies (an end before its start: a negative length, and a union of
    exactly 0 with the original), on continuous draws so that a reordered
    sum would round differently."""
    n = int(rng.integers(1, 40))
    starts = rng.uniform(0.0, 8.0, n)
    starts[rng.random(n) < 0.3] = starts[0]
    ends = starts + rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.8)
    scores = rng.uniform(0.0, 1.0, n)
    tied = rng.random(n) < 0.5
    scores[tied] = rng.choice([0.9, 0.6, 1e-3, 5e-5], int(tied.sum()))
    rows = np.column_stack([starts, ends, scores])
    return np.vstack([rows, rows[rng.random(n) < 0.3][:, [1, 0, 2]]])


def _paper_grid_rows(seed):
    """Candidate rows, in seconds, of a flat T = D = 100 output: every start
    reaches half the maximum, so every one of the 4,950 pairs is a candidate."""
    rng = np.random.default_rng(seed)
    valid = valid_cells(100, 100)
    out = BoundaryNetOutput(
        start=T.constant(rng.uniform(0.5, 1.0, 100)),
        end=T.constant(rng.uniform(0.5, 1.0, 100)),
        actionness=T.constant(rng.uniform(0.05, 0.95, int(valid.sum()))),
        valid=valid,
    )
    return pair_candidates(out) * [2.0, 2.0, 1.0]


class TestSuppressAgainstTheLoop:
    """Byte-equal output to the loop that rebuilt every term at each pick."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_paper_grid_candidates(self, preset):
        cfg = suppression_preset(preset)
        for seed in range(2):
            rows = _paper_grid_rows(seed)
            assert len(rows) == 100 * 99 // 2
            got, want = suppress(rows, cfg), _suppress_loop(rows, cfg)
            assert len(got) == cfg.max_keep
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_decode_flat_candidates(self, preset):
        cfg = suppression_preset(preset)
        for rows in _decode_flat_rows():
            assert len(rows) == 32 * 31 // 2
            got, want = suppress(rows, cfg), _suppress_loop(rows, cfg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_random_sets_with_ties_and_zero_lengths(self, preset):
        rng = np.random.default_rng(1700)
        for _ in range(1000):
            rows = _edge_rows(rng)
            cfg = suppression_preset(preset)
            cfg.max_keep = int(rng.integers(1, len(rows) + 3))
            got, want = suppress(rows, cfg), _suppress_loop(rows, cfg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("offset, weight", [(0.0, 0.5), (-0.25, 0.0), (0.3, -0.4),
                                                (0.0, -1.0), (1e-12, 0.0)])
    def test_configs_whose_least_threshold_is_near_zero(self, offset, weight):
        rng = np.random.default_rng(1800)
        for _ in range(300):
            rows = _edge_rows(rng)
            cfg = SoftSuppressionConfig(sigma=0.4, overlap_offset=offset,
                                        distance_weight=weight,
                                        max_keep=int(rng.integers(1, len(rows) + 3)))
            got, want = suppress(rows, cfg), _suppress_loop(rows, cfg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_random_floors_sigmas_and_negative_scores(self):
        """Floors at and under 0 (which a decay never takes a row under),
        negative scores, and a sigma small enough for exp to underflow to 0."""
        rng = np.random.default_rng(1900)
        for i in range(600):
            rows = _edge_rows(rng)
            if i % 2:
                rows[:, 2] -= rng.uniform(0.0, 1.2)
            cfg = SoftSuppressionConfig(
                sigma=float(rng.choice([0.4, 0.05, 1e-3])),
                overlap_offset=float(rng.choice([0.0, 0.3, -0.2, 0.65])),
                distance_weight=float(rng.choice([0.0, 0.4, -0.5])),
                score_floor=float(rng.choice([1e-4, 0.0, -0.3, 0.5, -2.0])),
                max_keep=int(rng.integers(1, len(rows) + 3)))
            got, want = suppress(rows, cfg), _suppress_loop(rows, cfg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("offset, weight", [(0.0, 0.0), (-0.5, 0.0), (0.5, -0.4)])
    def test_a_pick_decays_no_disjoint_row(self, monkeypatch, offset, weight):
        """Under a threshold that IoU 0 can clear, a row that does not overlap
        the pick would decay by exp(-0 / sigma) = 1.0: it is not decayed at all."""
        # [0, 1] and [1, 2] touch and [2, 3] touches [1, 2]: only [0.5, 1.5] overlaps
        rows = np.array([[0.0, 1.0, 0.9], [2.0, 3.0, 0.8], [1.0, 2.0, 0.7], [0.5, 1.5, 0.6]])
        cfg = SoftSuppressionConfig(sigma=0.4, overlap_offset=offset, distance_weight=weight)
        want = _suppress_loop(rows, cfg)
        exponents, exp = [], np.exp

        def spy(x):
            exponents.extend(np.asarray(x).tolist())
            return exp(x)

        monkeypatch.setattr(np, "exp", spy)
        got = suppress(rows, cfg)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes()
        # [0.5, 1.5] decays once under each of the two picks it overlaps
        assert len(exponents) == 2 and all(x < 0.0 for x in exponents)


class TestGenerateProposals:
    def test_snippets_become_seconds(self):
        out = _toy_output(seed=4)
        raw = pair_candidates(out)
        cfg = SoftSuppressionConfig(sigma=0.4, max_keep=200,
                                    overlap_offset=2.0)
        seconds = generate_proposals(out, snippet_stride=16, fps=8.0,
                                     suppression=cfg)
        factor = 16 / 8.0
        raw_spans = sorted((s * factor, e * factor) for s, e, _ in raw)
        got_spans = sorted((p.start, p.end) for p in seconds)
        np.testing.assert_allclose(got_spans, raw_spans)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_proposal_list_path(self, preset, seed):
        out = _toy_output(seed=seed, num_snippets=24, max_duration=16)
        cfg = suppression_preset(preset)
        scale = 16 / 8.0
        listed = [Proposal(s * scale, e * scale, v)
                  for s, e, v in pair_candidates(out).tolist()]
        want = soft_nms(listed, cfg) if isinstance(cfg, SoftSuppressionConfig) \
            else nms(listed, cfg)
        assert _triples(generate_proposals(out, 16, 8.0, cfg)) == _triples(want)

    def test_suppression_is_applied(self):
        out = _toy_output(seed=5)
        tight = generate_proposals(out, 16, 8.0,
                                   HardSuppressionConfig(threshold=0.1))
        loose = generate_proposals(out, 16, 8.0,
                                   HardSuppressionConfig(threshold=0.99))
        assert len(tight) <= len(loose)


class TestDecodeCorpus:
    def _corpus(self):
        run = RunConfig()
        corpus = generate_corpus(dataclasses.replace(run.synthetic, num_videos=3))
        return corpus, build_model(run, corpus.features), run.suppression

    def test_decodes_every_video_as_generate_proposals_does(self):
        corpus, model, cfg = self._corpus()
        proposals, record = decode_corpus(model, corpus.features, corpus.annotations, cfg)
        counts = []
        for vid, seq in sorted(corpus.features.items()):
            output = model(seq)
            want = generate_proposals(output, seq.snippet_stride,
                                      corpus.annotations[vid].fps, cfg)
            assert _triples(proposals[vid]) == _triples(want)
            counts.append(len(pair_candidates(output)))
        assert list(proposals) == sorted(corpus.features)
        assert record["candidates_per_video"] == {"mean": float(np.mean(counts)),
                                                  "max": max(counts)}
        assert record["kept_per_video"]["max"] == max(len(p) for p in proposals.values())
        assert record["seconds"] >= 0.0

    def test_decode_time_is_within_the_call(self):
        corpus, model, cfg = self._corpus()
        start = time.perf_counter()
        _, record = decode_corpus(model, corpus.features, corpus.annotations, cfg)
        assert 0.0 < record["seconds"] <= time.perf_counter() - start

    def test_video_off_its_time_axis_rejected(self):
        corpus, model, cfg = self._corpus()
        vid = sorted(corpus.annotations)[2]
        annotations = {**corpus.annotations,
                       vid: dataclasses.replace(corpus.annotations[vid], frame_count=640)}
        with pytest.raises(ConfigError, match=vid):
            decode_corpus(model, corpus.features, annotations, cfg)


    def test_model_of_other_stream_widths_names_the_video(self):
        corpus, model, cfg = self._corpus()
        run = RunConfig()
        narrow = generate_corpus(dataclasses.replace(run.synthetic, num_videos=3,
                                                     actor_dim=run.synthetic.actor_dim - 1))
        first = min(narrow.features)
        with pytest.raises(ShapeError, match=f"{first}: model reads actor width 16, "
                                             f"the video has 15"):
            decode_corpus(model, narrow.features, narrow.annotations, cfg)


class TestClassScoreMerge:
    def test_top_classes_multiply_scores(self):
        proposals = [Proposal(0.0, 2.0, 0.5)]
        scored = merge_class_scores(proposals,
                                    {"swing": 0.8, "lift": 0.6, "kick": 0.1},
                                    top_k=2)
        got = {(d.label, round(d.score, 6)) for d in scored}
        assert got == {("swing", 0.4), ("lift", 0.3)}

    def test_default_fuses_the_top_two_classes(self):
        scored = merge_class_scores([Proposal(0.0, 2.0, 0.5)],
                                    {"swing": 0.8, "lift": 0.6, "kick": 0.1})
        assert [d.label for d in scored] == ["swing", "lift"]

    def test_equal_class_scores_rank_by_name(self):
        scored = merge_class_scores([Proposal(0.0, 2.0, 0.5)],
                                    {"swing": 0.6, "lift": 0.6, "kick": 0.6}, top_k=2)
        assert [d.label for d in scored] == ["kick", "lift"]

    def test_empty_class_scores_rejected(self):
        with pytest.raises(EmptyInputError):
            merge_class_scores([Proposal(0.0, 1.0, 0.5)], {}, top_k=1)


class TestProposalFiles:
    def test_round_trip(self, tmp_path):
        table = {
            "vid_a": [Proposal(0.0, 2.5, 0.9), Proposal(3.0, 8.0, 0.4)],
            "vid_b": [],
        }
        path = tmp_path / "proposals.json"
        save_proposals(path, table)
        loaded = load_proposals(path)
        assert set(loaded) == {"vid_a", "vid_b"}
        for a, b in zip(table["vid_a"], loaded["vid_a"]):
            assert (a.start, a.end, a.score) == (b.start, b.end, b.score)

    def test_failed_write_keeps_previous_file(self, tmp_path, failing_writes):
        path = tmp_path / "proposals.json"
        save_proposals(path, {"vid_a": [Proposal(0.0, 2.5, 0.9)]})
        before = path.read_bytes()
        table = {f"vid_{i}": [Proposal(0.0, 1.0 + i, 0.5)] for i in range(50)}
        with failing_writes(), pytest.raises(OSError):
            save_proposals(path, table)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["proposals.json"]
        assert load_proposals(path)["vid_a"][0].end == 2.5

    @pytest.mark.parametrize("bad", [
        Proposal(0.0, 1.0, math.nan), Proposal(0.0, 1.0, math.inf),
        Proposal(0.0, math.nan, 0.5), Proposal(0.0, math.inf, 0.5),
        Proposal(math.nan, 1.0, 0.5), Proposal(-math.inf, 1.0, 0.5),
        Proposal(-0.5, 1.0, 0.5), Proposal(1.0, 1.0, 0.5), Proposal(2.0, 1.0, 0.5),
        Proposal(0.0, 1.0, -0.5),
    ])
    def test_proposal_the_reader_refuses_is_not_saved(self, tmp_path, bad):
        # a NaN score was written as the non-JSON token NaN, which load_proposals refused
        path = tmp_path / "proposals.json"
        with pytest.raises(DegenerateInputError, match="'vid_b'"):
            save_proposals(path, {"vid_a": [Proposal(0.0, 1.0, 0.5)],
                                  "vid_b": [Proposal(2.0, 3.0, 0.5), bad]})
        assert list(tmp_path.iterdir()) == []

    def test_what_save_writes_load_reads_back_equal(self, tmp_path):
        rng = np.random.default_rng(23)
        pool = [0.0, 1e-300, 0.1, 1.0 / 3.0, 2.5, 1e15, 1e300, -0.5, -1e-300,
                math.nan, math.inf, -math.inf]
        path = tmp_path / "proposals.json"
        saved = 0
        for _ in range(300):
            table = {f"v{i}": [Proposal(*(float(pool[j]) if rng.random() < 0.2 else
                                          float(rng.uniform(0.0, 50.0))
                                          for j in rng.integers(len(pool), size=3)))
                               for _ in range(int(rng.integers(0, 4)))]
                     for i in range(int(rng.integers(1, 3)))}
            path.unlink(missing_ok=True)
            try:
                save_proposals(path, table)
            except DegenerateInputError:
                assert not path.exists()
                continue
            saved += 1
            assert load_proposals(path) == table
        assert 50 < saved < 250

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FileFormatError):
            load_proposals(path)

    @pytest.mark.parametrize("records", [
        "",
        {"segment": [0.0, 1.0], "score": 0.5},
        [{"segment": [2.0, 1.0], "score": 0.5}],
        [{"segment": [1.0, 1.0], "score": 0.5}],
        [{"segment": [-0.5, 1.0], "score": 0.5}],
        [{"segment": [0.0, math.inf], "score": 0.5}],
        [{"segment": [0.0, 1.0], "score": math.nan}],
        [{"segment": [0.0, 1.0], "score": math.inf}],
        [{"segment": [0.0, 1.0], "score": -0.5}],
        [{"segment": [0.0, 1.0], "score": 0.5},
         {"segment": [math.nan, 1.0], "score": 0.5}],
        [{"segment": ["0", True], "score": "0.5"}],
        [{"segment": [0, 1, 99], "score": 0.5}],
        [{"segment": [0.0], "score": 0.5}],
        [{"segment": [0.0, 1.0], "score": True}],
        [{"segment": [0.0, 1.0], "score": "0.5"}],
        [{"segment": [0.0, 1.0], "score": None}],
        [{"segment": [0.0, 10 ** 400], "score": 0.5}],
    ])
    def test_unusable_video_entry_names_file_and_video(self, tmp_path, records):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vid_ok": [], "vid_bad": records}))
        with pytest.raises(FileFormatError, match=r"bad\.json.*'vid_bad'"):
            load_proposals(path)

    def test_zero_score_loads(self, tmp_path):
        path = tmp_path / "proposals.json"
        path.write_text(json.dumps({"v": [{"segment": [0.0, 1.0], "score": 0.0}]}))
        assert load_proposals(path)["v"] == [Proposal(0.0, 1.0, 0.0)]

    def test_missing_segment_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"v": [{"score": 0.5}]}))
        with pytest.raises(FileFormatError):
            load_proposals(path)
