"""Labels, losses and the epoch loop."""

import dataclasses
import io
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.checkpoint import load_checkpoint, save_checkpoint
from tapgkit.autodiff.optim import Adam
from tapgkit.autodiff.tensor import Tape
from tapgkit.boundary_net import BoundaryNetOutput, valid_cells
from tapgkit.config import RunConfig, build_model
from tapgkit.data.annotations import ActionInstance, VideoAnnotation
from tapgkit.data.synthetic import SyntheticConfig, generate_corpus
from tapgkit.errors import (
    ConfigError,
    DegenerateInputError,
    EmptyInputError,
    FileFormatError,
    ShapeError,
)
from tapgkit.representation import RepresentationConfig
from tapgkit.training import (
    PROBABILITY_FLOOR,
    TrainConfig,
    boundary_labels,
    grid_labels,
    load_training_state,
    proposal_grid_loss,
    save_training_state,
    total_loss,
    train,
    video_labels,
    weighted_binary_loss,
)

from gradcheck import check_gradients


# -- independent reference implementations ----------------------------------

def _overlap(a_lo, a_hi, b_lo, b_hi):
    return max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))


def _boundary_oracle(points, num_snippets):
    labels = np.zeros(num_snippets)
    for t in range(num_snippets):
        fraction = sum(_overlap(t - 1.0, t + 1.0, p - 1.5, p + 1.5) / 3.0
                       for p in points)
        labels[t] = 1.0 if fraction >= 0.5 else 0.0
    return labels


def _iou_scalar(a_lo, a_hi, b_lo, b_hi):
    inter = _overlap(a_lo, a_hi, b_lo, b_hi)
    union = (a_hi - a_lo) + (b_hi - b_lo) - inter
    return inter / union if union > 0 else 0.0


def _grid_oracle(segments, num_snippets, max_duration):
    labels = np.zeros((max_duration, num_snippets))
    for s, e in segments:
        best = -1.0
        table = np.full((max_duration, num_snippets), -1.0)
        for r in range(max_duration):
            for t in range(num_snippets):
                if t + r + 1 > num_snippets:
                    continue
                table[r, t] = _iou_scalar(t, t + r + 1, s, e)
                best = max(best, table[r, t])
        labels[table >= best - 1e-9] = 1.0
    return labels


class TestBoundaryLabels:
    def test_worked_example_start_positives(self):
        # action from second 3 to second 7 in a 10-second, 10-snippet video:
        # the start region [1.5, 4.5] marks snippets 2, 3 and 4
        ann = VideoAnnotation("v", 10.0, 1.0, 10,
                              [ActionInstance(3.0, 7.0, "swing")])
        labels = video_labels(ann, num_snippets=10, max_duration=10)
        np.testing.assert_array_equal(np.flatnonzero(labels.start), [2, 3, 4])
        np.testing.assert_array_equal(np.flatnonzero(labels.end), [6, 7, 8])

    def test_no_actions_means_no_positives(self):
        np.testing.assert_array_equal(boundary_labels([], 8), np.zeros(8))

    def test_regions_are_not_clipped_at_the_edges(self):
        # a start at 0 keeps its full region [-1.5, 1.5]; snippet 0 window
        # [-1, 1] captures 2.0 / 3.0 of it
        labels = boundary_labels([0.0], 8)
        assert labels[0] == 1.0 and labels[1] == 1.0 and labels[2] == 0.0

    def test_overlapping_regions_sum(self):
        # two starts half a unit apart push a mid snippet over the threshold
        # where either alone would not
        single = boundary_labels([4.0], 16)
        double = boundary_labels([3.0, 5.5], 16)
        assert single.sum() <= double.sum()

    @pytest.mark.parametrize("seed", range(30))
    def test_randomized_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        num_snippets = int(rng.integers(4, 33))
        points = list(rng.uniform(0, num_snippets, size=rng.integers(1, 4)))
        np.testing.assert_array_equal(boundary_labels(points, num_snippets),
                                      _boundary_oracle(points, num_snippets))


class TestGridLabels:
    def test_snapped_action_gets_exactly_its_cell(self):
        labels = grid_labels([(3.0, 7.0)], 10, 10)
        assert labels[3, 3] == 1.0
        assert labels.sum() == 1.0

    def test_fractional_action_marks_best_cells(self):
        labels = grid_labels([(2.5, 6.5)], 10, 10)
        want = _grid_oracle([(2.5, 6.5)], 10, 10)
        np.testing.assert_array_equal(labels, want)
        assert labels.sum() >= 1.0

    def test_invalid_cells_never_labeled(self):
        labels = grid_labels([(6.0, 8.0)], 8, 8)
        assert not labels[~valid_cells(8, 8)].any()

    def test_empty_segment_rejected(self):
        with pytest.raises(DegenerateInputError):
            grid_labels([(4.0, 4.0)], 8, 8)

    @pytest.mark.parametrize("seed", range(30))
    def test_randomized_against_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_snippets = int(rng.integers(4, 33))
        max_duration = int(rng.integers(1, num_snippets + 1))
        segments = []
        for _ in range(int(rng.integers(1, 4))):
            s = float(rng.uniform(0, num_snippets - 0.5))
            e = float(rng.uniform(s + 0.25, num_snippets))
            segments.append((s, e))
        got = grid_labels(segments, num_snippets, max_duration)
        np.testing.assert_array_equal(
            got, _grid_oracle(segments, num_snippets, max_duration))


class TestBinaryLoss:
    def test_hand_worked_value(self):
        pred = T.constant(np.array([0.8, 0.2]))
        loss, degenerate = weighted_binary_loss(pred, np.array([1.0, 0.0]))
        assert not degenerate
        np.testing.assert_allclose(loss.item(), -2.0 * np.log(0.8), atol=1e-6)

    def test_balancing_weights_each_population(self):
        # three negatives share one unit of weight, the positive keeps one
        pred = T.constant(np.array([0.9, 0.5, 0.5, 0.5]))
        loss, _ = weighted_binary_loss(pred, np.array([1.0, 0.0, 0.0, 0.0]))
        want = -(np.log(0.9) + 3 * (1.0 / 3.0) * np.log(0.5))
        np.testing.assert_allclose(loss.item(), want, rtol=1e-5)

    def test_one_sided_labels_drop_term_and_flag(self):
        pred = T.constant(np.array([0.7, 0.6]))
        loss, degenerate = weighted_binary_loss(pred, np.array([1.0, 1.0]))
        assert degenerate
        want = -(0.5 * np.log(0.7) + 0.5 * np.log(0.6))
        np.testing.assert_allclose(loss.item(), want, rtol=1e-5)

    def test_probability_floor_keeps_loss_finite(self):
        pred = T.constant(np.array([1.0, 0.0]))
        loss, _ = weighted_binary_loss(pred, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())

    def test_empty_labels_rejected(self):
        with pytest.raises(EmptyInputError):
            weighted_binary_loss(T.constant(np.zeros(0)), np.zeros(0))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            weighted_binary_loss(T.constant(np.zeros(3)), np.zeros(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_against_finite_differences(self, seed):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(seed)
            logits = T.parameter(rng.standard_normal(8))
            labels = (rng.uniform(size=8) < 0.4).astype(np.float64)
            if labels.sum() == 0:
                labels[0] = 1.0
            check_gradients(
                lambda: weighted_binary_loss(T.sigmoid(logits), labels)[0],
                [logits], tol=1e-4)


class TestGridLoss:
    def test_hand_worked_combined_value(self):
        pred = T.constant(np.array([[0.8, 0.2]]))
        labels = np.array([[1.0, 0.0]])
        valid = np.ones((1, 2), dtype=bool)
        combined, ce, mse, degenerate = proposal_grid_loss(pred, labels, valid, 10.0)
        np.testing.assert_allclose(ce.item(), 0.44629, atol=1e-4)
        np.testing.assert_allclose(mse.item(), 0.04, atol=1e-6)
        np.testing.assert_allclose(combined.item(), 0.84629, atol=1e-4)
        assert not degenerate

    def test_only_valid_cells_enter_the_loss(self):
        # the prediction holds the valid cells alone; an invalid cell's label is never read
        pred = T.constant(np.array([0.8, 0.3, 0.2]))
        labels_a = np.array([[1.0, 0.0], [0.0, 0.0]])
        labels_b = np.array([[1.0, 0.0], [0.0, 1.0]])
        valid = np.array([[True, True], [True, False]])
        la = proposal_grid_loss(pred, labels_a, valid, 10.0)[0].item()
        lb = proposal_grid_loss(pred, labels_b, valid, 10.0)[0].item()
        assert la == lb
        with pytest.raises(ShapeError):   # a whole-grid prediction is not the valid cells
            proposal_grid_loss(T.constant(np.full((2, 2), 0.5)), labels_a, valid, 10.0)

    def test_mse_passes_no_gradient_above_the_upper_clip(self):
        # the first cell sits between 1 - floor and 1: its MSE reads the
        # clipped value and hands nothing back
        with T.default_dtype(np.float64), Tape() as tape:
            pred = T.parameter(np.array([1.0 - PROBABILITY_FLOOR / 2, 0.5]))
            mse = proposal_grid_loss(pred, np.array([[0.0, 1.0]]),
                                     np.ones((1, 2), dtype=bool), 10.0)[2]
            tape.backward(mse)
        assert mse.item() == ((1.0 - PROBABILITY_FLOOR) ** 2 + 0.25) / 2
        assert pred.grad[0] == 0.0 and pred.grad[1] == -0.5

    def test_no_valid_cells_rejected(self):
        with pytest.raises(EmptyInputError):
            proposal_grid_loss(T.constant(np.zeros((2, 2))), np.zeros((2, 2)),
                               np.zeros((2, 2), dtype=bool), 1.0)


class TestTotalLoss:
    def test_backward_hands_no_gradient_to_a_constant(self, monkeypatch):
        # the label constants enter sub and mul; their side of the product is
        # skipped, not computed and then dropped
        rng = np.random.default_rng(0)
        t, d = 8, 4
        output = BoundaryNetOutput(
            start=T.parameter(rng.uniform(0.1, 0.9, t)),
            end=T.parameter(rng.uniform(0.1, 0.9, t)),
            actionness=T.parameter(rng.uniform(0.1, 0.9, (d, t))[valid_cells(t, d)]),
            valid=valid_cells(t, d))
        annotation = VideoAnnotation("v", duration=8.0, fps=1.0, frame_count=8,
                                     annotations=[ActionInstance(2.0, 5.0, "a")])
        labels = video_labels(annotation, t, d)
        accum, untracked = T._accum, []

        def checked(tensor, g):
            if not tensor.requires_grad:
                untracked.append(g.shape)
            accum(tensor, g)

        monkeypatch.setattr(T, "_accum", checked)
        with Tape() as tape:
            loss, report = total_loss(output, labels, 10.0)
            tape.backward(loss)
        assert report.degenerate_terms == 0
        assert untracked == []
        for p in (output.start, output.end, output.actionness):
            assert np.abs(p.grad).sum() > 0


def _tiny_setup(num_videos=3, seed=0):
    syn = SyntheticConfig(num_videos=num_videos, num_snippets=16, snippet_stride=8,
                          env_dim=8, actor_dim=8, object_dim=8,
                          max_action_len=6, seed=seed)
    corpus = generate_corpus(syn)
    run = RunConfig(representation=RepresentationConfig(feature_dim=12, attention_hidden=16))
    return corpus, build_model(run, corpus.features, seed)


class TestEpochLoop:
    def test_two_identical_runs_are_bit_identical(self):
        cfg = TrainConfig(epochs=2, seed=5)
        corpus_a, model_a = _tiny_setup(seed=5)
        corpus_b, model_b = _tiny_setup(seed=5)
        ra = train(model_a, corpus_a.features, corpus_a.annotations, cfg)
        rb = train(model_b, corpus_b.features, corpus_b.annotations, cfg)
        assert [r.mean_total for r in ra] == [r.mean_total for r in rb]
        for (na, pa), (_, pb) in zip(model_a.named_parameters(),
                                     model_b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)

    def test_loss_goes_down(self):
        corpus, model = _tiny_setup(seed=1)
        reports = train(model, corpus.features, corpus.annotations,
                        TrainConfig(epochs=4, seed=1))
        assert reports[-1].mean_total < reports[0].mean_total

    def test_json_lines_stream(self):
        corpus, model = _tiny_setup(seed=2)
        stream = io.StringIO()
        train(model, corpus.features, corpus.annotations,
              TrainConfig(epochs=2, seed=2), log_stream=stream)
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert [l["epoch"] for l in lines] == [0, 1]
        assert all(np.isfinite(l["mean_total"]) for l in lines)

    def test_non_finite_loss_aborts(self):
        corpus, model = _tiny_setup(seed=3)
        # poison a parameter on the always-live trunk path; the attention
        # scoring weights would not reach the loss
        trunk = dict(model.named_parameters())["boundary_net.trunk1.weight"]
        trunk.data[...] = np.nan
        with pytest.raises(DegenerateInputError):
            train(model, corpus.features, corpus.annotations,
                  TrainConfig(epochs=1, seed=3))

    def test_missing_annotation_rejected(self):
        corpus, model = _tiny_setup(seed=4)
        annotations = dict(corpus.annotations)
        annotations.pop(sorted(annotations)[0])
        with pytest.raises(Exception):
            train(model, corpus.features, annotations, TrainConfig(epochs=1))

    def test_frame_count_off_the_snippet_axis_rejected(self):
        corpus = generate_corpus(SyntheticConfig(num_videos=3, seed=4))
        vid = sorted(corpus.annotations)[1]
        annotation = corpus.annotations[vid]
        assert annotation.frame_count == 512
        annotations = {**corpus.annotations,
                       vid: dataclasses.replace(annotation, frame_count=640)}
        model = build_model(RunConfig(), corpus.features, 0)
        with pytest.raises(ConfigError, match=vid):
            train(model, corpus.features, annotations, TrainConfig(epochs=1))

    def test_video_with_narrower_actors_rejected_before_any_step(self):
        corpus, model = _tiny_setup(seed=7)
        vid = sorted(corpus.features)[1]
        seq = corpus.features[vid]
        narrow = [dataclasses.replace(s, actors=s.actors[:, :-1]) for s in seq.snippets]
        features = {**corpus.features, vid: dataclasses.replace(seq, snippets=narrow)}
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        optimizer = Adam(model.parameters())
        with pytest.raises(ConfigError, match=f"{vid}: snippet count or stream widths"):
            train(model, features, corpus.annotations, TrainConfig(epochs=1),
                  optimizer=optimizer)
        assert optimizer.t == 0
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_on_epoch_callback_fires(self):
        corpus, model = _tiny_setup(seed=6)
        seen = []
        train(model, corpus.features, corpus.annotations,
              TrainConfig(epochs=3, seed=6),
              on_epoch=lambda m, r: seen.append(r.epoch))
        assert seen == [0, 1, 2]


def _desk_step():
    """The default (desk) configuration, T = 32 snippets, every stream on:
    (model, loss function of one video)."""
    run = RunConfig()
    syn = dataclasses.replace(run.synthetic, num_videos=1)
    corpus = generate_corpus(syn)
    seq = next(iter(corpus.features.values()))
    annotation = corpus.annotations[seq.video_id]
    model = build_model(run, corpus.features, 0)
    net = model.boundary_net.cfg
    labels = video_labels(annotation, net.num_snippets, net.resolved_max_duration())
    assert seq.num_snippets == 32
    return model, lambda: total_loss(model(seq), labels, run.training.mse_weight)[0]


class TestTapeSize:
    def test_desk_step_records_at_most_90_ops(self):
        _, loss_fn = _desk_step()
        with Tape() as tape:
            loss = loss_fn()
            tape.backward(loss)
        assert 0 < len(tape) <= 90


class TestBackwardMemory:
    def test_desk_step_frees_large_results_while_the_tape_is_open(self):
        model, loss_fn = _desk_step()
        with Tape() as tape:
            loss = loss_fn()
            large = [weakref.ref(rec.out.data) for rec in tape._records
                     if rec.out.data.nbytes > 64 << 10]
            recorded = len(tape)
            tape.backward(loss, model.parameters())
            assert len(large) >= 5
            assert [ref for ref in large if ref() is not None] == []
            assert len(tape) == recorded

    def test_desk_step_has_no_collapse_width_array_over_the_grid(self, monkeypatch):
        # every invalid cell shares one column up to grid1, so no forward
        # result or gradient spans (proposal_conv3d_out, D, T)
        model, loss_fn = _desk_step()
        cfg = model.boundary_net.cfg
        full = (cfg.proposal_conv3d_out, cfg.resolved_max_duration(), cfg.num_snippets)
        accum, grads = T._accum, []

        def seen(tensor, g):
            grads.append(np.shape(g))
            accum(tensor, g)

        monkeypatch.setattr(T, "_accum", seen)
        with Tape() as tape:
            loss = loss_fn()
            shapes = [rec.out.data.shape for rec in tape._records]
            tape.backward(loss, model.parameters())
        assert full == (128, 32, 32)
        assert len(shapes) == len(tape) and full not in shapes
        assert len(grads) >= len(shapes) and full not in grads

    def test_desk_step_records_nothing_wider_than_one_channel_over_the_grid(self):
        # the grid head keeps to the valid cells after grid1: no recorded
        # result has more than one channel over the (D, T) grid
        model, loss_fn = _desk_step()
        cfg = model.boundary_net.cfg
        grid = (cfg.resolved_max_duration(), cfg.num_snippets)
        with Tape() as tape:
            loss = loss_fn()
            shapes = [rec.out.data.shape for rec in tape._records]
            tape.backward(loss, model.parameters())

        def over_the_grid(shape):
            return (tuple(shape[-2:]) == grid and int(np.prod(shape[:-2])) > 1) or \
                (shape[-1:] == (grid[0] * grid[1],) and int(np.prod(shape[:-1])) > 1)

        assert len(shapes) == len(tape)
        assert [s for s in shapes if over_the_grid(s)] == []

    def test_desk_step_peak_traced_memory(self):
        # one forward and backward pass of a warm desk model; 2.82 MiB while
        # grid2 and grid3 ran over the whole grid
        model, loss_fn = _desk_step()
        with Tape() as tape:
            tape.backward(loss_fn(), model.parameters())
        tracemalloc.start()
        try:
            with Tape() as tape:
                tape.backward(loss_fn(), model.parameters())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.40 * 2**20

    def test_desk_step_gradients_own_their_memory(self):
        model, loss_fn = _desk_step()
        params = model.parameters()
        with Tape() as tape:
            tape.backward(loss_fn(), params)
        for i, p in enumerate(params):
            assert p.grad.shape == p.data.shape and p.grad.flags.writeable
            for q in params:
                assert not np.shares_memory(p.grad, q.data)
            for q in params[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)


class TestCheckpointResume:
    def test_state_and_epoch_round_trip(self, tmp_path):
        corpus, model = _tiny_setup(seed=7)
        train(model, corpus.features, corpus.annotations,
              TrainConfig(epochs=2, seed=7))
        path = tmp_path / "ckpt.tapg"
        save_training_state(path, model, epochs_completed=2)

        _, fresh = _tiny_setup(seed=8)
        resumed_epoch = load_training_state(path, fresh)
        assert resumed_epoch == 2
        for (name, a), (_, b) in zip(model.named_parameters(),
                                     fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_resume_continues_epoch_numbering(self, tmp_path):
        corpus, model = _tiny_setup(seed=9)
        train(model, corpus.features, corpus.annotations,
              TrainConfig(epochs=2, seed=9))
        path = tmp_path / "ckpt.tapg"
        save_training_state(path, model, 2)
        start = load_training_state(path, model)
        reports = train(model, corpus.features, corpus.annotations,
                        TrainConfig(epochs=4, seed=9), start_epoch=start)
        assert [r.epoch for r in reports] == [2, 3]

    def test_checkpoint_without_progress_resumes_at_epoch_zero(self, tmp_path):
        _, model = _tiny_setup(seed=7)
        path = tmp_path / "bare.tapg"
        save_checkpoint(path, model.state_dict())
        assert load_training_state(path, model) == 0

    def test_mismatched_optimizer_state_rejected(self, tmp_path):
        _, model = _tiny_setup(seed=7)
        opt = Adam(model.parameters())
        path = tmp_path / "ckpt.tapg"
        save_training_state(path, model, 1, opt)
        state = load_checkpoint(path)
        state["optim.m.0"] = np.zeros(3)
        save_checkpoint(path, state)
        with pytest.raises(FileFormatError, match="optimizer state"):
            load_training_state(path, model, Adam(model.parameters()))

    @pytest.mark.parametrize("entry", ["meta.epochs_completed", "optim.t"])
    @pytest.mark.parametrize("value", [np.nan, -3.0, 2.5, np.array([1.0, 2.0])],
                             ids=["nan", "negative", "fraction", "two_values"])
    def test_bad_progress_entry_rejected(self, tmp_path, entry, value):
        _, model = _tiny_setup(seed=7)
        path = tmp_path / "ckpt.tapg"
        save_training_state(path, model, 1, Adam(model.parameters()))
        state = load_checkpoint(path)
        state[entry] = np.array(value)
        save_checkpoint(path, state)
        with pytest.raises(FileFormatError) as err:
            load_training_state(path, model, Adam(model.parameters()))
        assert str(path) in str(err.value) and entry in str(err.value)

    def test_resume_from_a_checkpoint_without_optimizer_state_rejected(self, tmp_path):
        _, model = _tiny_setup(seed=7)
        path = tmp_path / "ckpt.tapg"
        save_training_state(path, model, 1)
        with pytest.raises(FileFormatError, match="optimizer state"):
            load_training_state(path, model, Adam(model.parameters()))
