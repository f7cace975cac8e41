"""Tensor library: op semantics, tape behavior, gradients vs finite differences."""

import gc
import inspect
import weakref

import numpy as np
import pytest

import tapgkit.autodiff
from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.tensor import Tape, Tensor
from tapgkit.boundary_net import sampling_columns
from tapgkit.errors import EmptyInputError, GraphError, ShapeError
from tapgkit.training import PROBABILITY_FLOOR

from gradcheck import check_gradients, scalarize

OP_TOL = 1e-4


def _param(rng, *shape):
    return T.parameter(rng.standard_normal(shape))


def _random_reads(rng, columns, offsets, cells):
    """A (offsets, cells) tap table: at each offset some cells read distinct
    own columns, and the rest read the shared last column or the padding."""
    reads = rng.choice([columns - 1, columns], size=(offsets, cells))
    for j in range(offsets):
        own = rng.permutation(columns - 1)[:int(rng.integers(1, columns))]
        reads[j, rng.permutation(cells)[:own.size]] = own
    return reads


class TestTapeSemantics:
    def test_no_tape_means_no_tracking(self):
        a = T.parameter(np.ones(3))
        out = T.relu(a)
        assert not out.requires_grad and out.grad is None

    def test_consumed_tape_rejects_second_backward(self):
        a = T.parameter(np.array([2.0]))
        with Tape() as tape:
            loss = T.sum_(T.mul(a, a))
            tape.backward(loss)
            with pytest.raises(GraphError):
                tape.backward(loss)

    def test_consumed_tape_rejects_new_records(self):
        a = T.parameter(np.array([2.0]))
        with Tape() as tape:
            loss = T.sum_(a)
            tape.backward(loss)
            with pytest.raises(GraphError):
                T.mul(a, a)

    def test_backward_requires_scalar(self):
        a = T.parameter(np.ones(4))
        with Tape() as tape:
            out = T.mul(a, a)
            with pytest.raises(ShapeError):
                tape.backward(out)

    def test_each_backward_starts_from_zero(self):
        a = T.parameter(np.array([2.0]))
        for _ in range(2):
            with Tape() as tape:
                loss = T.sum_(T.mul(a, a))
                tape.backward(loss)
        np.testing.assert_allclose(a.grad, [4.0])

    def test_shared_input_grads_accumulate_within_one_graph(self):
        a = T.parameter(np.array([3.0]))
        with Tape() as tape:
            loss = T.sum_(T.add(T.mul(a, a), a))
            tape.backward(loss)
        np.testing.assert_allclose(a.grad, [7.0])

    def test_constant_branch_gets_no_grad(self):
        a = T.parameter(np.ones(2))
        c = T.constant(np.ones(2))
        with Tape() as tape:
            loss = T.sum_(T.mul(a, c))
            tape.backward(loss)
        assert c.grad is None
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_results_get_gradient_buffers_only_when_reached(self):
        a = T.parameter(np.ones(2))
        with Tape() as tape:
            used = T.mul(a, a)
            unused = T.relu(a)
            assert used.grad is None and unused.grad is None
            tape.backward(T.sum_(used))
        np.testing.assert_allclose(used.grad, [1.0, 1.0])
        assert unused.grad is None
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_params_the_graph_misses_are_zeroed(self):
        a = T.parameter(np.array([2.0]))
        b = T.parameter(np.array([5.0]))
        with Tape() as tape:
            tape.backward(T.sum_(T.mul(a, b)))
        np.testing.assert_allclose(b.grad, [2.0])
        with Tape() as tape:
            tape.backward(T.sum_(T.mul(a, a)), [a, b])
        np.testing.assert_allclose(a.grad, [4.0])
        np.testing.assert_array_equal(b.grad, [0.0])

    def test_backward_keeps_the_recorded_op_count(self):
        a = T.parameter(np.ones(3))
        with Tape() as tape:
            loss = T.sum_(T.mul(T.relu(a), a))
            recorded = len(tape)
            tape.backward(loss)
            assert recorded == len(tape) == 3

    def test_backward_releases_each_record_once_replayed(self):
        a = T.parameter(np.ones(3))
        with Tape() as tape:
            hidden = T.relu(T.scale(a, 2.0))
            dead = weakref.ref(hidden.data)
            loss = T.sum_(hidden)
            del hidden
            tape.backward(loss)
            assert dead() is None
        np.testing.assert_allclose(a.grad, [2.0, 2.0, 2.0])

    def test_a_gradient_handed_on_as_a_view_is_not_written_through(self):
        a = T.parameter(np.array([1.0, 2.0]))
        with Tape() as tape:
            x = T.scale(a, 1.5)
            squared = T.mul(x, x)
            flat = T.reshape(x, (2, 1))   # replayed first: hands x a view of its gradient
            tape.backward(T.add(T.sum_(flat), T.sum_(squared)))
        np.testing.assert_array_equal(flat.grad, [[1.0], [1.0]])
        np.testing.assert_allclose(x.grad, 1.0 + 2.0 * x.data)
        assert not np.shares_memory(x.grad, flat.grad)

    def test_op_rejects_an_array_input(self):
        a = T.parameter(np.ones(3))
        with pytest.raises(GraphError, match="must be a Tensor"):
            T.add(a, np.ones(3))

    def test_dropped_tape_is_freed_without_the_cycle_collector(self):
        a = T.parameter(np.ones(3))
        gc.disable()
        try:
            with Tape() as tape:
                loss = T.sum_(T.mul(T.relu(a), a))
                tape.backward(loss)
            dead = weakref.ref(tape)
            del tape
            assert dead() is None
        finally:
            gc.enable()


class TestDtypeControl:
    def test_default_is_float32(self):
        assert T.get_default_dtype() == np.float32
        assert Tensor(np.arange(3.0)).data.dtype == np.float32

    def test_context_manager_switches_and_restores(self):
        with T.default_dtype(np.float64):
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ShapeError):
            T.set_default_dtype(np.int32)


class TestValueSemantics:
    def test_sigmoid_is_finite_and_saturates_correctly(self):
        x = Tensor(np.array([-1e3, -20.0, 0.0, 20.0, 1e3]))
        y = T.sigmoid(x).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y[2], 0.5)
        assert y[0] >= 0.0 and y[-1] <= 1.0
        assert y[0] < 1e-8 and y[-1] > 1 - 1e-7

    def test_softmax_handles_large_logits(self):
        x = Tensor(np.array([[1e4, 1e4 + 1.0, 0.0]]))
        y = T.softmax(x, axis=1).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y.sum(axis=1), [1.0], rtol=1e-6)

    def test_l2_norm_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 7))
        got = T.l2_norm(Tensor(x), axis=1).data
        np.testing.assert_allclose(got, np.linalg.norm(x, axis=1), rtol=1e-6)

    def test_clip_bounds_and_mask(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]))
        np.testing.assert_allclose(T.clip(x, 0.0, 1.0).data, [0.0, 0.5, 1.0])

    def test_gather_rows_selects_and_repeats(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        got = T.gather_rows(x, [2, 0, 2]).data
        np.testing.assert_allclose(got, x.data[[2, 0, 2]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_matmul_stacks_must_broadcast(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 2))))

    def test_neighbour_conv_reads_through_its_taps(self):
        rng = np.random.default_rng(4)
        reads = _random_reads(rng, columns=6, offsets=4, cells=5)
        x, w, b = (rng.standard_normal(s) for s in ((3, 6), (2, 3, 2, 2), (2,)))
        with T.default_dtype(np.float64):
            got = T.neighbour_conv(Tensor(x), Tensor(w), Tensor(b),
                                   T.neighbour_taps(reads, 6)).data
        padded = np.concatenate([x, np.zeros((3, 1))], axis=1)
        want = np.zeros((2, 5))
        for v in range(5):
            want[:, v] = b + sum(w.reshape(2, 3, 4)[:, :, j] @ padded[:, reads[j, v]]
                                 for j in range(4))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_neighbour_taps_reject_a_second_read_of_an_own_column(self):
        T.neighbour_taps([[2, 2, 0, 3]], 3)        # the shared column 2 twice is fine
        with pytest.raises(ShapeError):
            T.neighbour_taps([[1, 1, 0]], 3)
        for bad in ([[0, 4]], [[-1, 0]]):          # taps lie in [0, columns]
            with pytest.raises(ShapeError):
                T.neighbour_taps(bad, 3)
        with pytest.raises(ShapeError):
            T.neighbour_taps([0, 1], 3)

    def test_neighbour_conv_checks_extents(self):
        taps = T.neighbour_taps([[0, 1], [1, 2]], 3)
        x = Tensor(np.ones((2, 3)))
        T.neighbour_conv(x, Tensor(np.ones((4, 2, 2))), Tensor(np.ones(4)), taps)
        for bad_x, bad_w, bad_b in ((np.ones((2, 4)), np.ones((4, 2, 2)), np.ones(4)),
                                    (np.ones((2, 3)), np.ones((4, 2, 3)), np.ones(4)),
                                    (np.ones((2, 3)), np.ones((4, 3, 2)), np.ones(4)),
                                    (np.ones((2, 3)), np.ones((4, 2, 2)), np.ones(3))):
            with pytest.raises(ShapeError):
                T.neighbour_conv(Tensor(bad_x), Tensor(bad_w), Tensor(bad_b), taps)

    def test_transpose_needs_matrix(self):
        with pytest.raises(ShapeError):
            T.transpose(Tensor(np.ones(3)))

    def test_empty_reductions_rejected(self):
        with pytest.raises(ShapeError):
            T.sum_(Tensor(np.zeros((0, 2))), axis=0)
        with pytest.raises(EmptyInputError):
            T.concat([], axis=0)

    def test_linear_width_mismatch(self):
        w = T.parameter(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((4, 5))), w)


def _conv_oracle(x, w, b, stride, padding):
    """Direct-loop cross-correlation for any rank, matching the library op."""
    rank = x.ndim - 1
    stride = (stride,) * rank if isinstance(stride, int) else tuple(stride)
    padding = (padding,) * rank if isinstance(padding, int) else tuple(padding)
    xp = np.pad(x, [(0, 0)] + [(p, p) for p in padding])
    c_out, c_in = w.shape[0], w.shape[1]
    kernel = w.shape[2:]
    out_spatial = tuple(
        (xp.shape[1 + i] - kernel[i]) // stride[i] + 1 for i in range(rank)
    )
    out = np.zeros((c_out,) + out_spatial)
    for co in range(c_out):
        for pos in np.ndindex(*out_spatial):
            acc = 0.0
            for ci in range(c_in):
                for off in np.ndindex(*kernel):
                    src = tuple(pos[i] * stride[i] + off[i] for i in range(rank))
                    acc += xp[(ci,) + src] * w[(co, ci) + off]
            out[(co,) + pos] = acc + (b[co] if b is not None else 0.0)
    return out


class TestConvForward:
    @pytest.mark.parametrize("seed", range(5))
    def test_conv1d_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 9))
        w = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal(4)
        with T.default_dtype(np.float64):
            got = T.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        np.testing.assert_allclose(got, _conv_oracle(x, w, b, 1, 1), rtol=1e-10)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), ((2, 1), (0, 1))])
    def test_conv2d_matches_oracle(self, stride, padding):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 7, 6))
        w = rng.standard_normal((3, 2, 3, 2))
        b = rng.standard_normal(3)
        with T.default_dtype(np.float64):
            got = T.conv2d(Tensor(x), Tensor(w), Tensor(b),
                           stride=stride, padding=padding).data
        np.testing.assert_allclose(got, _conv_oracle(x, w, b, stride, padding),
                                   rtol=1e-10)

    def test_conv3d_with_collapsing_stride(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 8, 3, 4))
        w = rng.standard_normal((3, 2, 8, 1, 1))
        with T.default_dtype(np.float64):
            got = T.conv3d(Tensor(x), Tensor(w), None,
                           stride=(8, 1, 1)).data
        assert got.shape == (3, 1, 3, 4)
        np.testing.assert_allclose(got, _conv_oracle(x, w, None, (8, 1, 1), 0),
                                   rtol=1e-10)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((3, 5))), Tensor(np.ones((2, 4, 3))))

    @pytest.mark.parametrize("stride", [0, -1, (1, 0)])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ShapeError, match="stride must be"):
            T.conv2d(Tensor(np.ones((2, 5, 5))), Tensor(np.ones((3, 2, 3, 3))), stride=stride)

    @pytest.mark.parametrize("padding", [-1, (0, -1)])
    def test_negative_padding_rejected(self, padding):
        with pytest.raises(ShapeError, match="padding must be"):
            T.conv2d(Tensor(np.ones((2, 5, 5))), Tensor(np.ones((3, 2, 3, 3))), padding=padding)


def _im2col_conv(x, w, b, stride, padding):
    """The sliding-window im2col convolution the shifted-product core replaced.

    Returns the output and a function mapping an output gradient to the
    (x, w, b) gradients, with the per-offset scatter for x.
    """
    rank = x.ndim - 1
    stride = (stride,) * rank if isinstance(stride, int) else tuple(stride)
    padding = (padding,) * rank if isinstance(padding, int) else tuple(padding)
    c_in, c_out = x.shape[0], w.shape[0]
    kernel, spatial = w.shape[2:], x.shape[1:]
    out_spatial = [(e + 2 * p - k) // s + 1
                   for e, k, s, p in zip(spatial, kernel, stride, padding)]
    xp = np.pad(x, [(0, 0)] + [(p, p) for p in padding])
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=tuple(range(1, rank + 1)))
    windows = windows[(slice(None),) + tuple(slice(None, None, s) for s in stride)]
    cols = windows.reshape(c_in, int(np.prod(out_spatial)), int(np.prod(kernel)))
    cols = np.moveaxis(cols, 1, 0).reshape(int(np.prod(out_spatial)), -1)
    wmat = w.reshape(c_out, -1)
    out = cols @ wmat.T + (0.0 if b is None else b)
    out = np.moveaxis(out.reshape(*out_spatial, c_out), -1, 0)

    def grads(g):
        gp = np.moveaxis(g, 0, -1).reshape(-1, c_out)
        gcols = (gp @ wmat).reshape(*out_spatial, c_in, *kernel)
        gx = np.zeros_like(xp)
        for offset in np.ndindex(*kernel):
            block = np.moveaxis(gcols[(Ellipsis, slice(None)) + offset], -1, 0)
            target = tuple(slice(o, o + s * e, s) for o, s, e in zip(offset, stride, out_spatial))
            gx[(slice(None),) + target] += block
        gx = gx[(slice(None),) + tuple(slice(p, p + e) for p, e in zip(padding, spatial))]
        return gx, (gp.T @ cols).reshape(w.shape), gp.sum(axis=0)

    return out, grads


class TestConvAgainstIm2col:
    """The shifted-product core sums in another order than im2col, so it is
    held to the old formulation in float64 at a tolerance no reordering of
    these sums exceeds, and far below what finite differences can resolve."""

    CASES = [
        # (x shape, w shape, stride, padding)
        ((3, 9), (4, 3, 3), 1, 1),
        ((3, 9), (4, 3, 3), 2, 0),
        ((5, 8), (4, 5, 1), 1, 0),                  # one product, no copy
        ((2, 7, 6), (3, 2, 3, 3), 1, 1),
        ((2, 7, 6), (3, 2, 3, 2), 2, 1),
        ((2, 7, 6), (3, 2, 3, 2), (2, 1), (0, 1)),
        ((2, 7, 6), (3, 2, 3, 2), 1, 0),            # runs into the spare row
        ((6, 5, 4), (3, 6, 1, 1), 1, 0),            # one product, no copy
        ((6, 5, 4), (3, 6, 1, 1), 2, 1),
        ((2, 8, 3, 4), (3, 2, 4, 1, 1), (4, 1, 1), 0),
        ((2, 5, 4, 3), (2, 2, 3, 2, 3), 1, 1),
        ((2, 5, 4, 3), (2, 2, 3, 3, 3), 2, 0),
    ]

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("xs,ws,stride,padding", CASES)
    def test_output_and_gradients(self, xs, ws, stride, padding, bias):
        rng = np.random.default_rng(sum(xs) + sum(ws))
        x_np, w_np = rng.standard_normal(xs), rng.standard_normal(ws)
        b_np = rng.standard_normal(ws[0]) if bias else None
        op = {1: T.conv1d, 2: T.conv2d, 3: T.conv3d}[len(xs) - 1]
        ref, ref_grads = _im2col_conv(x_np, w_np, b_np, stride, padding)
        g = rng.standard_normal(ref.shape)
        with T.default_dtype(np.float64):
            x, w = T.parameter(x_np), T.parameter(w_np)
            b = T.parameter(b_np) if bias else None
            with Tape() as tape:
                out = op(x, w, b, stride=stride, padding=padding)
                tape.backward(T.sum_(T.mul(out, T.constant(g))))
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.data, ref, rtol=1e-10, atol=1e-10)
        gx, gw, gb = ref_grads(g)
        np.testing.assert_allclose(x.grad, gx, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(w.grad, gw, rtol=1e-10, atol=1e-10)
        if bias:
            np.testing.assert_allclose(b.grad, gb, rtol=1e-10, atol=1e-10)


class TestOneTensorReadTwice:
    """One intermediate tensor fed to two inputs: its first gradient must not
    alias an array the backward hands to the other input as well."""

    def run(self, seed, build):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(seed)
            a = _param(rng, 3, 4)
            check_gradients(lambda: scalarize(build(T.scale(a, 1.3))), [a], OP_TOL)

    @pytest.mark.parametrize("seed", range(2))
    def test_add_of_one_tensor(self, seed):
        self.run(seed, lambda x: T.add(x, x))

    @pytest.mark.parametrize("seed", range(2))
    def test_mul_of_one_tensor(self, seed):
        self.run(seed, lambda x: T.mul(x, x))

    @pytest.mark.parametrize("seed", range(2))
    def test_concat_of_one_tensor(self, seed):
        self.run(seed, lambda x: T.concat([x, x], axis=1))

    @pytest.mark.parametrize("seed", range(2))
    def test_one_reshape_read_by_two_ops(self, seed):
        def build(x):
            flat = T.reshape(x, (-1,))
            return T.add(T.exp(flat), T.mul(flat, flat))
        self.run(seed, build)


class TestOpGradients:
    """Every primitive against central differences, several seeds each."""

    def run(self, seed, build):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(seed)
            forward, params = build(rng)
            check_gradients(forward, params, OP_TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_arithmetic_with_broadcast(self, seed):
        def build(rng):
            a = _param(rng, 3, 4)
            b = _param(rng, 4)
            c = _param(rng, 3, 1)
            return (lambda: scalarize(T.mul(T.add(a, b), T.sub(a, c)))), [a, b, c]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_neg_scale_exp(self, seed):
        def build(rng):
            a = _param(rng, 5)
            return (lambda: scalarize(T.exp(T.scale(T.neg(a), 0.7)))), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_log_sqrt_on_positive_input(self, seed):
        def build(rng):
            a = T.parameter(rng.uniform(0.5, 2.0, size=(4, 3)))
            return (lambda: scalarize(T.log(T.sqrt(a)))), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_relu_away_from_kink(self, seed):
        def build(rng):
            vals = rng.standard_normal((4, 4))
            vals[np.abs(vals) < 0.05] = 0.1
            a = T.parameter(vals)
            return (lambda: scalarize(T.relu(a))), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_clip_away_from_bounds(self, seed):
        def build(rng):
            a = T.parameter(rng.uniform(0.2, 0.8, size=6))
            return (lambda: scalarize(T.clip(a, 0.0, 1.0))), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_sigmoid_softmax(self, seed):
        def build(rng):
            a = _param(rng, 3, 5)
            return (lambda: scalarize(T.softmax(T.sigmoid(a), axis=1))), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_softmax_axes(self, axis):
        def build(rng):
            a = _param(rng, 4, 3)
            return (lambda: scalarize(T.softmax(a, axis=axis))), [a]
        self.run(0, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_shape_plumbing(self, seed):
        def build(rng):
            a = _param(rng, 2, 6)
            b = _param(rng, 3, 4)

            def forward():
                lhs = T.reshape(a, (3, 4))
                joined = T.concat([lhs, b], axis=1)       # (3, 8)
                stacked = T.stack([joined, joined], axis=0)
                return scalarize(T.transpose(T.reshape(stacked, (6, 8))))
            return forward, [a, b]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_gather_rows_with_duplicates(self, seed):
        def build(rng):
            a = _param(rng, 5, 3)
            return (lambda: scalarize(T.gather_rows(a, [0, 2, 2, 4]))), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_reductions(self, axis, keepdims):
        def build(rng):
            a = _param(rng, 3, 4)
            return (lambda: scalarize(T.sum_(T.mul(a, a), axis=axis,
                                             keepdims=keepdims))), [a]
        self.run(1, build)

        def build_mean(rng):
            a = _param(rng, 3, 4)
            return (lambda: scalarize(T.mean(a, axis=axis, keepdims=keepdims))), [a]
        self.run(2, build_mean)

    @pytest.mark.parametrize("seed", range(4))
    def test_l2_norm(self, seed):
        def build(rng):
            a = T.parameter(rng.standard_normal((4, 3)) + 0.5)
            return (lambda: scalarize(T.l2_norm(a, axis=1))), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_matmul(self, seed):
        def build(rng):
            a = _param(rng, 3, 4)
            w = _param(rng, 4, 2)
            return (lambda: scalarize(T.matmul(T.matmul(a, w), T.transpose(w)))), [a, w]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_matmul_and_transpose(self, seed):
        def build(rng):
            a = _param(rng, 2, 3, 4)
            b = _param(rng, 2, 4, 3)
            w = _param(rng, 4, 2)          # one matrix broadcast over the stack
            c = _param(rng, 1, 3, 3)       # a size-1 stack axis broadcast too
            def forward():
                ab = T.matmul(a, b)                                  # (2, 3, 3)
                gram = T.matmul(T.transpose(ab), T.add(ab, c))      # (2, 3, 3)
                return scalarize(T.matmul(T.transpose(T.matmul(a, w)), gram))
            return forward, [a, b, w, c]
        self.run(seed, build)

    def test_stacked_matmul_matches_per_matrix_products(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((5, 2, 3)), rng.standard_normal((5, 3, 4))
        with T.default_dtype(np.float64):
            got = T.matmul(Tensor(a), Tensor(b)).data
            flipped = T.transpose(Tensor(a)).data
        for i in range(5):
            np.testing.assert_array_equal(got[i], a[i] @ b[i])
            np.testing.assert_array_equal(flipped[i], a[i].T)

    @pytest.mark.parametrize("seed", range(3))
    def test_neighbour_conv(self, seed):
        def build(rng):
            taps = T.neighbour_taps(_random_reads(rng, columns=5, offsets=4, cells=6), 5)
            x, w, b = _param(rng, 2, 5), _param(rng, 3, 2, 2, 2), _param(rng, 3)

            def forward():
                out = T.neighbour_conv(x, w, b, taps)     # (3, 6)
                return scalarize(T.mul(out, out))
            return forward, [x, w, b]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_linear_with_bias(self, seed):
        def build(rng):
            a = _param(rng, 3, 4)
            w = _param(rng, 4, 2)
            bias = _param(rng, 2)
            return (lambda: scalarize(T.linear(a, w, bias))), [a, w, bias]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(3))
    def test_conv1d_gradients(self, seed):
        def build(rng):
            x = _param(rng, 2, 7)
            w = _param(rng, 3, 2, 3)
            b = _param(rng, 3)
            return (lambda: scalarize(T.conv1d(x, w, b, padding=1))), [x, w, b]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(3))
    def test_conv2d_gradients_with_stride(self, seed):
        def build(rng):
            x = _param(rng, 2, 6, 5)
            w = _param(rng, 2, 2, 3, 3)
            b = _param(rng, 2)
            return (lambda: scalarize(T.conv2d(x, w, b, stride=2, padding=1))), [x, w, b]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(3))
    def test_conv3d_gradients_collapsing(self, seed):
        def build(rng):
            x = _param(rng, 2, 4, 3, 3)
            w = _param(rng, 2, 2, 4, 1, 1)
            return (lambda: scalarize(T.conv3d(x, w, None, stride=(4, 1, 1)))), [x, w]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(3))
    def test_mean_pool(self, seed):
        def build(rng):
            a = _param(rng, 3, 4)
            return (lambda: scalarize(T.mean_pool(a, axis=1))), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(3))
    def test_sample_collapse(self, seed):
        # a 5-snippet grid: 12 valid cells, 3 invalid ones reading the shared
        # all-zero outside column
        def build(rng):
            sampling = T.constant(sampling_columns(5, 4, 3).reshape(5, -1))
            base = _param(rng, 2, 5)
            weight = _param(rng, 4, 2, 3, 1, 1)
            bias = _param(rng, 4)
            return ((lambda: scalarize(T.sample_collapse(base, weight, bias, sampling))),
                    [base, weight, bias])
        self.run(seed, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_cross_entropy(self, seed):
        def build(rng):
            a = T.parameter(rng.uniform(0.05, 0.95, size=7))
            pos = rng.uniform(size=7) * (rng.uniform(size=7) < 0.5)
            neg = rng.uniform(size=7)
            return (lambda: T.binary_cross_entropy(a, pos, neg, 0.01, 0.99)), [a]
        self.run(seed, build)

    @pytest.mark.parametrize("side", ["pos", "neg"])
    def test_binary_cross_entropy_one_sided(self, side):
        def build(rng):
            a = T.parameter(rng.uniform(0.05, 0.95, size=(2, 3)))
            w = rng.uniform(size=6)
            pos, neg = (w, None) if side == "pos" else (None, w)
            return (lambda: T.binary_cross_entropy(a, pos, neg, 0.01, 0.99)), [a]
        self.run(5, build)

    @pytest.mark.parametrize("seed", range(4))
    def test_clipped_mse(self, seed):
        def build(rng):
            a = T.parameter(rng.uniform(0.05, 0.95, size=(3, 3)))
            target = (rng.uniform(size=9) < 0.3).astype(np.float64)
            return (lambda: T.clipped_mse(a, target, 0.01, 0.99)), [a]
        self.run(seed, build)


def test_every_exported_op_has_a_gradient_check():
    """An op exported from ``tapgkit.autodiff`` is named in TestOpGradients."""
    not_ops = {"constant", "parameter", "default_dtype", "get_default_dtype",
               "set_default_dtype", "neighbour_taps"}
    ops = {name for name in tapgkit.autodiff.__all__
           if inspect.isfunction(getattr(tapgkit.autodiff, name))
           and getattr(tapgkit.autodiff, name).__module__ == T.__name__} - not_ops
    assert {"add", "conv3d", "sample_collapse", "clipped_mse"} <= ops
    checked = inspect.getsource(TestOpGradients)
    assert sorted(name for name in ops if f"T.{name}(" not in checked) == []


def _composed_collapse(base, weight, bias, sampling):
    """The matching layer as plain ops: two products around a reshape, then the bias."""
    o, c, n = weight.shape[:3]
    sampled = T.reshape(T.matmul(base, sampling), (c * n, -1))
    return T.add(T.matmul(T.reshape(weight, (o, -1)), sampled), T.reshape(bias, (o, 1)))


def _composed_bce(pred, pos, neg, lo, hi):
    """Weighted binary cross entropy as plain ops, one record per step."""
    p = T.clip(T.reshape(pred, (-1,)), lo, hi)
    terms = []
    if pos is not None:
        terms.append(T.sum_(T.mul(T.constant(pos), T.log(p))))
    if neg is not None:
        one_minus = T.sub(T.constant(np.ones(p.shape)), p)
        terms.append(T.sum_(T.mul(T.constant(neg), T.log(one_minus))))
    return T.neg(terms[0] if len(terms) == 1 else T.add(*terms))


def _composed_mse(pred, target, lo, hi):
    diff = T.sub(T.clip(T.reshape(pred, (-1,)), lo, hi), T.constant(target))
    return T.mean(T.mul(diff, diff))


def _run(op, value, *args):
    """(output, gradient of a weighted sum) of ``op`` at ``value``."""
    x = T.parameter(value)
    with Tape() as tape:
        out = op(x, *args)
        weights = T.constant(np.linspace(0.5, 1.5, out.size).reshape(out.shape))
        tape.backward(T.sum_(T.mul(out, weights)))
    return out.data, x.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestFusedOpsAgainstCompositions:
    """The fused ops run the same forward arithmetic as the ops they replace."""

    LO, HI = PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR

    def _probabilities(self, rng, size):
        p = rng.uniform(size=size)
        p.flat[:4] = [0.0, 1.0, 1e-9, 1.0 - 1e-9]   # beyond the clip bounds
        return p

    @pytest.mark.parametrize("seed", range(3))
    def test_sample_collapse_forward(self, dtype, seed):
        rng = np.random.default_rng(seed)
        with T.default_dtype(dtype):
            sampling = T.constant(sampling_columns(12, 12, 8, dtype).reshape(12, -1))
            base = T.parameter(rng.standard_normal((6, 12)))
            weight = T.parameter(rng.standard_normal((10, 6, 8, 1, 1)))
            bias = T.parameter(rng.standard_normal(10))
            with Tape() as tape:
                fused = T.sample_collapse(base, weight, bias, sampling)
                assert len(tape) == 1
            composed = _composed_collapse(base, weight, bias, sampling)
        assert fused.data.dtype == dtype
        np.testing.assert_array_equal(fused.data, composed.data)

    @pytest.mark.parametrize("seed", range(3))
    def test_sample_collapse_gradients_up_to_rounding(self, dtype, seed):
        rng = np.random.default_rng(seed)
        with T.default_dtype(dtype):
            sampling = T.constant(sampling_columns(12, 12, 8, dtype).reshape(12, -1))
            base_np, weight_np = rng.standard_normal((6, 12)), rng.standard_normal((10, 6, 8, 1, 1))
            bias_np = rng.standard_normal(10)
            grads = []
            for op in (T.sample_collapse, _composed_collapse):
                base, weight, bias = (T.parameter(a) for a in (base_np, weight_np, bias_np))
                with Tape() as tape:
                    tape.backward(scalarize(op(base, weight, bias, sampling)))
                grads.append((base.grad, weight.grad, bias.grad))
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        for fused, composed in zip(*grads):
            np.testing.assert_allclose(fused, composed, rtol=rtol,
                                       atol=rtol * np.abs(composed).max())

    @pytest.mark.parametrize("sides", ["both", "pos", "neg"])
    def test_binary_cross_entropy_value_and_gradient(self, dtype, sides):
        rng = np.random.default_rng(len(sides))
        p = self._probabilities(rng, 40)
        labels = (rng.uniform(size=40) < 0.3).astype(np.float64)
        pos = labels / labels.sum() if sides != "neg" else None
        neg = (1.0 - labels) / (40 - labels.sum()) if sides != "pos" else None
        with T.default_dtype(dtype):
            fused = _run(T.binary_cross_entropy, p, pos, neg, self.LO, self.HI)
            composed = _run(_composed_bce, p, pos, neg, self.LO, self.HI)
        assert fused[0].dtype == dtype
        np.testing.assert_array_equal(fused[0], composed[0])
        np.testing.assert_array_equal(fused[1], composed[1])

    def test_clipped_mse_value_and_gradient(self, dtype):
        rng = np.random.default_rng(7)
        p = self._probabilities(rng, (5, 8))
        target = (rng.uniform(size=40) < 0.3).astype(np.float64)
        with T.default_dtype(dtype):
            fused = _run(T.clipped_mse, p, target, self.LO, self.HI)
            composed = _run(_composed_mse, p, target, self.LO, self.HI)
        assert fused[0].dtype == dtype
        np.testing.assert_array_equal(fused[0], composed[0])
        np.testing.assert_array_equal(fused[1], composed[1])


class TestFusedOpEdges:
    LO, HI = PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("loss", ["bce", "mse"])
    def test_entries_at_or_beyond_the_clip_bounds_get_zero_gradient(self, dtype, loss):
        with T.default_dtype(dtype):
            rng = np.random.default_rng(3)
            inner = T.parameter(rng.uniform(0.1, 0.9, size=6))
            # at exactly the bounds in this precision, and beyond them
            edge = T.parameter(np.array([self.LO, self.HI, 0.0, 1.0, -0.5, 1.5], dtype=dtype))
            labels = np.array([1.0, 0.0] * 6)

            def forward():
                p = T.concat([inner, edge])
                if loss == "mse":
                    return T.clipped_mse(p, labels, self.LO, self.HI)
                return T.binary_cross_entropy(p, labels / 6, (1.0 - labels) / 6,
                                              self.LO, self.HI)

            with Tape() as tape:
                tape.backward(forward())
            assert np.all(edge.grad == 0.0)
            assert np.all(inner.grad != 0.0)
            if dtype == np.float64:
                check_gradients(forward, [inner], OP_TOL)

    def test_binary_cross_entropy_needs_a_term(self):
        with pytest.raises(EmptyInputError):
            T.binary_cross_entropy(T.parameter(np.ones(3) / 2), None, None, 0.1, 0.9)

    @pytest.mark.parametrize("op", ["bce", "mse"])
    def test_per_entry_constants_must_match_the_prediction(self, op):
        pred = T.parameter(np.ones((2, 3)) / 2)
        with pytest.raises(ShapeError):
            if op == "mse":
                T.clipped_mse(pred, np.zeros(5), 0.1, 0.9)
            else:
                T.binary_cross_entropy(pred, np.zeros(5), None, 0.1, 0.9)

    def test_sample_collapse_rejects_a_tracked_sampling_matrix(self):
        base, weight = T.parameter(np.ones((2, 5))), T.parameter(np.ones((3, 2, 2, 1, 1)))
        with pytest.raises(GraphError):
            T.sample_collapse(base, weight, T.parameter(np.zeros(3)),
                              T.parameter(np.ones((5, 8))))

    @pytest.mark.parametrize("base,weight,sampling", [
        ((2, 5), (3, 4, 2, 1, 1), (5, 8)),     # channels differ
        ((2, 5), (3, 2, 2, 1, 1), (4, 8)),     # snippets differ
        ((2, 5), (3, 2, 3, 1, 1), (5, 8)),     # 8 columns are not whole samples
        ((2, 5), (3, 2, 2, 2, 1), (5, 8)),     # trailing filter extent above 1
        ((10,), (3, 2, 2, 1, 1), (5, 8)),
    ])
    def test_sample_collapse_rejects_disagreeing_extents(self, base, weight, sampling):
        with pytest.raises(ShapeError):
            T.sample_collapse(T.parameter(np.ones(base)), T.parameter(np.ones(weight)),
                              T.parameter(np.zeros(weight[0])), T.constant(np.ones(sampling)))

    @pytest.mark.parametrize("bias", [(2,), (3, 1)])
    def test_sample_collapse_rejects_a_bias_not_one_per_filter(self, bias):
        with pytest.raises(ShapeError):
            T.sample_collapse(T.parameter(np.ones((2, 5))), T.parameter(np.ones((3, 2, 2, 1, 1))),
                              T.parameter(np.zeros(bias)), T.constant(np.ones((5, 8))))


class TestConvGeometryCache:
    # (rank, x shape, w shape, stride, padding), interleaved so that each
    # call follows one of another shape
    CALLS = [
        (1, (3, 9), (4, 3, 3), 1, 1),
        (2, (2, 7, 6), (3, 2, 3, 3), 1, 1),
        (1, (3, 9), (4, 3, 3), 2, 0),
        (3, (2, 8, 3, 4), (3, 2, 4, 1, 1), (4, 1, 1), 0),
        (2, (2, 7, 6), (3, 2, 3, 2), (2, 1), (0, 1)),
        (1, (3, 9), (4, 3, 3), 1, 1),
        (2, (2, 7, 6), (3, 2, 3, 2), 1, 0),
        (3, (2, 5, 4, 3), (2, 2, 3, 2, 3), 1, 1),
        (2, (2, 7, 6), (3, 2, 3, 3), 1, 1),
        (1, (5, 8), (4, 5, 1), 1, 0),
        (3, (2, 8, 3, 4), (3, 2, 4, 1, 1), (4, 1, 1), 0),
        (2, (6, 5, 4), (3, 6, 1, 1), 2, 1),
        (1, (3, 9), (4, 3, 3), 2, 1),                 # stride alone differs
        (2, (2, 7, 6), (3, 2, 3, 3), 1, 0),           # padding alone differs
        (1, (3, 10), (4, 3, 3), 1, 1),                # length alone differs
    ]

    def _run_calls(self):
        results = []
        for i, (rank, xs, ws, stride, padding) in enumerate(self.CALLS * 2):
            rng = np.random.default_rng(i)
            op = {1: T.conv1d, 2: T.conv2d, 3: T.conv3d}[rank]
            x, w = _param(rng, *xs), _param(rng, *ws)
            b = _param(rng, ws[0])
            with Tape() as tape:
                out = op(x, w, b, stride=stride, padding=padding)
                tape.backward(scalarize(out))
            results.append((out.data, x.grad, w.grad, b.grad))
        return results

    def test_interleaved_calls_equal_the_uncached_computation(self, monkeypatch):
        T._conv_geometry.cache_clear()
        cached = self._run_calls()
        shapes = {(xs[1:], ws[2:], str(stride), str(padding))
                  for _, xs, ws, stride, padding in self.CALLS}
        info = T._conv_geometry.cache_info()
        assert (info.misses, info.hits) == (len(shapes), 2 * len(self.CALLS) - len(shapes))
        monkeypatch.setattr(T, "_conv_geometry", T._conv_geometry.__wrapped__)
        uncached = self._run_calls()
        for got, want in zip(cached, uncached):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_cache_is_bounded(self):
        maxsize = T._conv_geometry.cache_info().maxsize
        assert maxsize is not None and maxsize <= 256
        for length in range(1, maxsize + 20):
            T._conv_geometry((length,), (1,), (1,), (0,))
        assert T._conv_geometry.cache_info().currsize == maxsize

    def test_a_failing_shape_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ShapeError, match="output extent"):
                T.conv1d(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2, 4))))

