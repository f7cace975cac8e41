"""Adaptive selection: threshold rule, invariants, gradient routing."""

import numpy as np
import pytest

from tapgkit.attention import MODES, AdaptiveAttention
from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.tensor import Tape
from tapgkit.errors import ConfigError, ShapeError

from gradcheck import check_gradients, scalarize


def _module(seed=0, mode="adaptive", cand=6, ctx=5, hidden=16):
    return AdaptiveAttention(np.random.default_rng(seed), cand, ctx,
                             hidden_dim=hidden, mode=mode)


def _inputs(rng, m=4, cand=6, ctx=5):
    return (T.constant(rng.standard_normal((m, cand))),
            T.constant(rng.standard_normal(ctx)))


class TestSelectionRule:
    @pytest.mark.parametrize("seed", range(25))
    def test_threshold_is_reciprocal_row_count_with_geq(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        module = _module(seed)
        cands, ctx = _inputs(rng, m=m)
        _, info = module(cands, ctx)
        assert info.threshold == pytest.approx(1.0 / m)
        expected = np.flatnonzero(info.scores >= 1.0 / m)
        if expected.size:
            np.testing.assert_array_equal(info.selected, expected)
        else:
            assert info.selected.size == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_scores_normalize_and_someone_is_selected(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(1, 9))
        module = _module(seed % 5)
        _, info = module(*_inputs(rng, m=m))
        np.testing.assert_allclose(info.scores.sum(), 1.0, rtol=1e-5)
        assert info.selected.size >= 1
        assert not info.used_default

    def test_single_row_is_always_selected(self):
        rng = np.random.default_rng(7)
        module = _module(1)
        _, info = module(*_inputs(rng, m=1))
        np.testing.assert_array_equal(info.selected, [0])
        np.testing.assert_allclose(info.scores, [1.0], rtol=1e-6)

    def test_empty_candidate_set_returns_learned_default(self):
        module = _module(2)
        cands = T.constant(np.zeros((0, 6)))
        ctx = T.constant(np.zeros(5))
        fused, info = module(cands, ctx)
        assert info.used_default
        assert info.selected.size == 0
        np.testing.assert_array_equal(fused.data, module.default_output.data)

    def test_default_vector_is_trainable(self):
        module = _module(3)
        cands = T.constant(np.zeros((0, 6)))
        ctx = T.constant(np.zeros(5))
        with Tape() as tape:
            fused, _ = module(cands, ctx)
            loss = T.sum_(T.mul(fused, fused))
            tape.backward(loss)
        # default output starts at zero; connect through a non-trivial path
        assert module.default_output.grad is not None

    def test_shape_validation(self):
        module = _module(4)
        with pytest.raises(ShapeError):
            module(T.constant(np.zeros((3, 5))), T.constant(np.zeros(5)))
        with pytest.raises(ShapeError):
            module(T.constant(np.zeros((3, 6))), T.constant(np.zeros(4)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            _module(mode="fuzzy")


class TestGradientRouting:
    def _margin_ok(self, info) -> bool:
        return np.min(np.abs(info.scores - info.threshold)) > 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_unselected_rows_get_zero_gradient(self, seed):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(seed)
            module = _module(seed)
            cands = T.parameter(rng.standard_normal((5, 6)))
            ctx = T.constant(rng.standard_normal(5))
            with Tape() as tape:
                fused, info = module(cands, ctx)
                loss = scalarize(fused)
                tape.backward(loss)
            unselected = np.setdiff1d(np.arange(5), info.selected)
            for row in unselected:
                np.testing.assert_array_equal(cands.grad[row], 0.0)
            selected_norms = np.abs(cands.grad[info.selected]).sum(axis=1)
            assert np.all(selected_norms > 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_scoring_mlps_get_zero_gradient_in_adaptive_mode(self, seed):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(50 + seed)
            module = _module(seed)
            cands = T.parameter(rng.standard_normal((4, 6)))
            ctx = T.constant(rng.standard_normal(5))
            with Tape() as tape:
                fused, _ = module(cands, ctx)
                tape.backward(scalarize(fused))
            for name, p in module.named_parameters():
                flat = np.abs(p.grad).sum()
                if name.startswith(("candidate_embed", "context_embed")):
                    assert flat == 0.0, f"{name} should sit on a dead branch"
            encoder_total = sum(
                np.abs(p.grad).sum()
                for name, p in module.named_parameters() if name.startswith("encoder")
            )
            assert encoder_total > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_selected_path_matches_finite_differences(self, seed):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(200 + seed)
            module = _module(seed)
            for _ in range(50):
                cands = T.parameter(rng.standard_normal((5, 6)))
                ctx = T.constant(rng.standard_normal(5))
                _, info = module(cands, ctx)
                if self._margin_ok(info):
                    break
            else:
                pytest.skip("no margin-safe draw found")
            check_gradients(lambda: scalarize(module(cands, ctx)[0]),
                            [cands], tol=1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_soft_mode_trains_the_scoring_path(self, seed):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(300 + seed)
            module = _module(seed, mode="soft")
            cands = T.parameter(rng.standard_normal((4, 6)))
            ctx = T.constant(rng.standard_normal(5))
            with Tape() as tape:
                fused, _ = module(cands, ctx)
                tape.backward(scalarize(fused))
            score_grad = sum(
                np.abs(p.grad).sum()
                for name, p in module.named_parameters()
                if name.startswith(("candidate_embed", "context_embed"))
            )
            assert score_grad > 0.0


class TestBaselineModes:
    @pytest.mark.parametrize("seed", range(10))
    def test_soft_output_is_score_weighted_sum(self, seed):
        rng = np.random.default_rng(seed)
        module = _module(seed, mode="soft")
        cands, ctx = _inputs(rng, m=5)
        fused, info = module(cands, ctx)
        want = info.scores @ cands.data.astype(np.float64)
        np.testing.assert_allclose(fused.data, want, rtol=1e-5, atol=1e-6)
        assert info.selected.size == 5

    @pytest.mark.parametrize("seed", range(10))
    def test_hard_output_is_argmax_row(self, seed):
        rng = np.random.default_rng(seed)
        module = _module(seed, mode="hard")
        cands, ctx = _inputs(rng, m=5)
        fused, info = module(cands, ctx)
        best = int(np.argmax(info.scores))
        np.testing.assert_array_equal(info.selected, [best])
        np.testing.assert_array_equal(fused.data, cands.data[best])

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_baselines_share_the_default_path(self, mode):
        module = _module(5, mode=mode)
        fused, info = module(T.constant(np.zeros((0, 6))), T.constant(np.zeros(5)))
        assert info.used_default
        np.testing.assert_array_equal(fused.data, module.default_output.data)


class TestPermutation:
    @pytest.mark.parametrize("seed", range(10))
    def test_selection_follows_row_permutation(self, seed):
        rng = np.random.default_rng(seed)
        module = _module(seed % 3)
        rows = rng.standard_normal((6, 6))
        ctx = np.asarray(rng.standard_normal(5), dtype=np.float32)
        perm = rng.permutation(6)
        _, info = module(T.constant(rows), T.constant(ctx))
        _, info_p = module(T.constant(rows[perm]), T.constant(ctx))
        np.testing.assert_allclose(np.sort(info_p.scores),
                                   np.sort(info.scores), rtol=2e-4)
        selected_original = np.sort(perm[info_p.selected])
        margin = np.min(np.abs(info.scores - info.threshold))
        if margin > 1e-5:
            np.testing.assert_array_equal(selected_original, info.selected)

    @pytest.mark.parametrize("seed", range(10))
    def test_fused_vector_is_permutation_invariant(self, seed):
        rng = np.random.default_rng(400 + seed)
        module = _module(seed % 3)
        rows = rng.standard_normal((6, 6))
        ctx = np.asarray(rng.standard_normal(5), dtype=np.float32)
        perm = rng.permutation(6)
        fused, info = module(T.constant(rows), T.constant(ctx))
        fused_p, _ = module(T.constant(rows[perm]), T.constant(ctx))
        margin = np.min(np.abs(info.scores - info.threshold))
        if margin > 1e-5:
            np.testing.assert_allclose(fused_p.data, fused.data,
                                       rtol=5e-4, atol=5e-5)


class TestPackedSets:
    @pytest.mark.parametrize("mode", MODES)
    def test_packed_call_matches_one_call_per_set(self, mode):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(600)
            module = _module(3, mode=mode)
            counts = [3, 0, 1, 5, 2, 0]
            rows = rng.standard_normal((sum(counts), 6))
            contexts = rng.standard_normal((len(counts), 5))
            fused, info = module(T.constant(rows), T.constant(contexts), counts)
            assert fused.data.shape == (len(counts), 6)
            assert info.used_default is False
            np.testing.assert_array_equal(info.counts, counts)
            starts = np.cumsum(counts) - counts
            selected = []
            for t, (lo, m) in enumerate(zip(starts, counts)):
                one, one_info = module(T.constant(rows[lo:lo + m]),
                                       T.constant(contexts[t]))
                np.testing.assert_allclose(fused.data[t], one.data, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(info.scores[lo:lo + m], one_info.scores,
                                           rtol=1e-12)
                np.testing.assert_array_equal(info.threshold[lo:lo + m],
                                              one_info.threshold)
                selected.append(one_info.selected + lo)
            np.testing.assert_array_equal(info.selected, np.concatenate(selected))

    def test_all_empty_batch_uses_the_default_everywhere(self):
        module = _module(4)
        fused, info = module(T.constant(np.zeros((0, 6))), T.constant(np.ones((3, 5))),
                             [0, 0, 0])
        assert info.used_default is True
        assert info.selected.size == 0 and info.scores.size == 0
        np.testing.assert_array_equal(fused.data, np.tile(module.default_output.data, (3, 1)))

    def test_counts_must_cover_the_rows(self):
        module = _module(5)
        with pytest.raises(ShapeError):
            module(T.constant(np.zeros((4, 6))), T.constant(np.zeros((2, 5))), [1, 2])
        with pytest.raises(ShapeError):
            module(T.constant(np.zeros((3, 6))), T.constant(np.zeros((3, 5))), [1, 2])
