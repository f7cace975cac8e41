"""Proposal network: sampling-matrix oracle, shapes, validity, probabilities,
and the valid-cell matching path against the dense conv3d formulation."""

import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.layers import Module
from tapgkit.autodiff.tensor import Tape, Tensor
from tapgkit.boundary_net import (
    BoundaryNet,
    BoundaryNetConfig,
    build_sampling_weights,
    grid_taps,
    valid_cells,
)
from tapgkit.errors import ConfigError, ShapeError

from gradcheck import check_gradients, scalarize


def _interpolate_column(base: np.ndarray, position: float) -> np.ndarray:
    """Triangular-kernel read of one fractional column; zero outside the grid."""
    channels, num_snippets = base.shape
    out = np.zeros(channels)
    lo = int(np.floor(position))
    for j in (lo, lo + 1):
        if 0 <= j < num_snippets:
            weight = max(0.0, 1.0 - abs(position - j))
            out += weight * base[:, j]
    return out


def _sampled_oracle(base: np.ndarray, max_duration: int, num_samples: int) -> np.ndarray:
    """Per-proposal loop version of the matching layer, for cross-checking."""
    channels, num_snippets = base.shape
    out = np.zeros((channels, num_samples, max_duration, num_snippets))
    for r in range(max_duration):
        d = r + 1
        for t in range(num_snippets):
            if t + d > num_snippets:
                continue
            for s_idx, p in enumerate(np.linspace(t, t + d, num_samples)):
                out[:, s_idx, r, t] = _interpolate_column(base, p)
    return out


class TestSamplingWeights:
    @pytest.mark.parametrize("num_snippets,max_duration,num_samples",
                             [(8, 8, 4), (16, 16, 32), (12, 5, 8), (6, 6, 2)])
    def test_matmul_equals_per_proposal_interpolation(self, num_snippets,
                                                      max_duration, num_samples):
        rng = np.random.default_rng(num_snippets * 100 + num_samples)
        base = rng.standard_normal((3, num_snippets))
        weights = build_sampling_weights(num_snippets, max_duration, num_samples)
        got = (base @ weights.reshape(num_snippets, -1)).reshape(
            3, num_samples, max_duration, num_snippets)
        want = _sampled_oracle(base, max_duration, num_samples)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_invalid_cells_have_all_zero_weights(self):
        weights = build_sampling_weights(8, 8, 4)
        valid = valid_cells(8, 8)
        for r in range(8):
            for t in range(8):
                if not valid[r, t]:
                    np.testing.assert_array_equal(weights[:, :, r, t], 0.0)

    def test_integer_positions_read_columns_exactly(self):
        # duration 1 with 2 samples puts points on integers t and t + 1
        rng = np.random.default_rng(3)
        base = rng.standard_normal((2, 6))
        weights = build_sampling_weights(6, 6, 2)
        got = (base @ weights.reshape(6, -1)).reshape(2, 2, 6, 6)
        for t in range(5):
            np.testing.assert_allclose(got[:, 0, 0, t], base[:, t], atol=1e-12)
            np.testing.assert_allclose(got[:, 1, 0, t], base[:, t + 1], atol=1e-12)

    def test_position_at_sequence_edge_reads_zero(self):
        # the cell [t, T] ends exactly one past the last column index T-1,
        # so its final sample has no in-range neighbour and reads zero
        base = np.ones((1, 4))
        weights = build_sampling_weights(4, 4, 2)
        got = (base @ weights.reshape(4, -1)).reshape(1, 2, 4, 4)
        np.testing.assert_array_equal(got[:, 1, 0, 3], 0.0)


class TestValidity:
    def test_triangle_shape(self):
        valid = valid_cells(6, 6)
        for r in range(6):
            for t in range(6):
                assert valid[r, t] == (t + r + 1 <= 6)

    def test_full_grid_when_duration_one(self):
        assert valid_cells(5, 1).all()


class TestNetwork:
    def _cfg(self, **overrides):
        base = dict(feature_dim=6, num_snippets=8, num_samples=4,
                    trunk_hidden=10, trunk_out=7, boundary_hidden=9,
                    proposal_conv3d_out=11, proposal_conv2d_hidden=5)
        base.update(overrides)
        return BoundaryNetConfig(**base)

    def test_output_shapes_and_ranges(self):
        rng = np.random.default_rng(0)
        net = BoundaryNet(rng, self._cfg())
        out = net(Tensor(rng.standard_normal((6, 8))))
        assert out.start.data.shape == (8,)
        assert out.end.data.shape == (8,)
        assert out.valid.shape == (8, 8)
        # one probability per valid cell, laid out on the grid with zeros elsewhere
        assert out.actionness.data.shape == (int(out.valid.sum()),) == (36,)
        for arr in (out.start.data, out.end.data, out.actionness.data):
            assert np.all((arr > 0.0) & (arr < 1.0))
        grid = out.actionness_grid()
        assert grid.shape == (8, 8) and grid.dtype == np.float64
        np.testing.assert_array_equal(grid[out.valid], out.actionness.data)
        np.testing.assert_array_equal(grid[~out.valid], 0.0)

    def test_max_duration_limits_grid_rows(self):
        rng = np.random.default_rng(1)
        net = BoundaryNet(rng, self._cfg(max_duration=3))
        out = net(Tensor(rng.standard_normal((6, 8))))
        assert out.valid.shape == (3, 8)
        assert out.actionness.data.shape == (8 + 7 + 6,)

    def test_reference_widths_give_documented_parameter_shapes(self):
        cfg = BoundaryNetConfig(feature_dim=32, num_snippets=16)
        net = BoundaryNet(np.random.default_rng(2), cfg)
        shapes = {name: p.data.shape for name, p in net.named_parameters()}
        # Adam's checkpointed moments are indexed by this order
        assert list(shapes) == [
            f"{layer}.{kind}"
            for layer in ("trunk1", "trunk2", "boundary1", "boundary2",
                          "sample_collapse", "grid1", "grid2", "grid3")
            for kind in ("weight", "bias")
        ]
        assert shapes["trunk1.weight"] == (256, 32, 3)
        assert shapes["trunk2.weight"] == (128, 256, 3)
        assert shapes["boundary1.weight"] == (256, 128, 3)
        assert shapes["boundary2.weight"] == (2, 256, 3)
        assert shapes["sample_collapse.weight"] == (512, 128, 32, 1, 1)
        assert shapes["grid1.weight"] == (128, 512, 1, 1)
        assert shapes["grid2.weight"] == (128, 128, 3, 3)
        assert shapes["grid3.weight"] == (1, 128, 1, 1)
        out = net(Tensor(np.random.default_rng(3).standard_normal((32, 16))))
        assert out.actionness_grid().shape == (16, 16)

    def test_wrong_input_shape_rejected(self):
        net = BoundaryNet(np.random.default_rng(4), self._cfg())
        with pytest.raises(ShapeError):
            net(Tensor(np.zeros((6, 9))))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BoundaryNetConfig(feature_dim=4, num_snippets=8, max_duration=9).validate()
        with pytest.raises(ConfigError):
            BoundaryNetConfig(feature_dim=4, num_snippets=8, num_samples=1).validate()

    @pytest.mark.parametrize("field", ["feature_dim", "num_snippets"])
    def test_data_extents_must_be_positive(self, field):
        extents = dict(feature_dim=4, num_snippets=8)
        with pytest.raises(ConfigError, match="feature_dim and num_snippets must be positive"):
            BoundaryNetConfig(**{**extents, field: 0}).validate()
        BoundaryNetConfig(**{**extents, field: 1}).validate()

    @pytest.mark.parametrize("field", ["trunk_hidden", "trunk_out", "boundary_hidden",
                                       "proposal_conv3d_out", "proposal_conv2d_hidden"])
    def test_channel_widths_must_be_positive(self, field):
        with pytest.raises(ConfigError, match="channel widths must be positive"):
            BoundaryNetConfig(feature_dim=4, num_snippets=8, **{field: 0}).validate()
        BoundaryNetConfig(feature_dim=4, num_snippets=8, **{field: 1}).validate()

    def test_gradients_reach_the_trunk(self):
        rng = np.random.default_rng(5)
        net = BoundaryNet(rng, self._cfg())
        x = Tensor(rng.standard_normal((6, 8)))
        with Tape() as tape:
            out = net(x)
            loss = T.add(scalarize(out.actionness),
                         T.add(scalarize(out.start), scalarize(out.end)))
            tape.backward(loss)
        # the valid-cell output reaches every parameter, grid2 and grid3 included
        assert out.actionness.data.shape == (int(out.valid.sum()),)
        for name, p in net.named_parameters():
            assert np.abs(p.grad).sum() > 0.0, f"{name} received no gradient"


def _dense_forward(net: BoundaryNet, features: Tensor):
    """The matching path as a dense formulation: every grid cell sampled with
    the full ``build_sampling_weights`` constant, collapsed by ``T.conv3d``,
    and the grid convs run over the whole grid; the valid cells are read off
    at the end."""
    cfg = net.cfg
    d = cfg.resolved_max_duration()
    base = T.relu(net.trunk2(T.relu(net.trunk1(features))))
    bounds = T.sigmoid(net.boundary2(T.relu(net.boundary1(base))))
    dense = build_sampling_weights(cfg.num_snippets, d, cfg.num_samples)
    sampled = T.matmul(base, T.constant(dense.reshape(cfg.num_snippets, -1)))
    sampled = T.reshape(sampled, (cfg.trunk_out, cfg.num_samples, d, cfg.num_snippets))
    x = T.conv3d(sampled, net.sample_collapse.weight, net.sample_collapse.bias,
                 stride=(cfg.num_samples, 1, 1))
    x = T.relu(T.reshape(x, (cfg.proposal_conv3d_out, d, cfg.num_snippets)))
    x = T.relu(net.grid2(T.relu(net.grid1(x))))
    grid = T.reshape(T.sigmoid(net.grid3(x)), (-1,))
    return bounds, T.gather_rows(grid, np.flatnonzero(valid_cells(cfg.num_snippets, d)))


def _held_arrays(module):
    for value in vars(module).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, Tensor):
            yield value.data
        elif isinstance(value, Module):
            yield from _held_arrays(value)


GRIDS = [(32, 32, 16), (10, 4, 5), (7, 7, 2), (1, 1, 2)]   # (T, max_duration, samples)


class TestValidCellMatching:
    def _net(self, num_snippets, max_duration, num_samples):
        cfg = BoundaryNetConfig(feature_dim=6, num_snippets=num_snippets,
                                max_duration=max_duration, num_samples=num_samples,
                                trunk_hidden=10, trunk_out=7, boundary_hidden=9,
                                proposal_conv3d_out=11, proposal_conv2d_hidden=5)
        rng = np.random.default_rng(num_snippets * 10 + num_samples)
        net = BoundaryNet(rng, cfg)
        for name, p in net.named_parameters():
            if name.endswith("bias"):   # zero at init, which would hide a misplaced bias
                p.data = rng.standard_normal(p.data.shape).astype(p.data.dtype)
        return net

    def _loss_and_grads(self, net, forward, features):
        with Tape() as tape:
            bounds, actionness = forward(features)
            loss = T.add(scalarize(actionness), scalarize(bounds))
            tape.backward(loss, net.parameters())
        return actionness.data.copy(), {n: p.grad.copy() for n, p in net.named_parameters()}

    @pytest.mark.parametrize("grid", GRIDS)
    def test_equals_dense_conv3d_formulation(self, grid):
        with T.default_dtype(np.float64):
            net = self._net(*grid)
            features = Tensor(np.random.default_rng(7).standard_normal((6, grid[0])))

            def folded(x):
                out = net(x)
                return T.stack([out.start, out.end]), out.actionness

            got, got_grads = self._loss_and_grads(net, folded, features)
            want, want_grads = self._loss_and_grads(
                net, lambda x: _dense_forward(net, x), features)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert got_grads.keys() == want_grads.keys()
        for name, g in got_grads.items():
            np.testing.assert_allclose(g, want_grads[name], rtol=0, atol=1e-9,
                                       err_msg=name)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_holds_only_the_valid_cell_constant(self, grid):
        num_snippets, max_duration, num_samples = grid
        net = self._net(*grid)
        valid = valid_cells(num_snippets, max_duration)
        cells = int(valid.sum())
        assert net._sampling.data.shape == (num_snippets, num_samples * (cells + 1))
        assert net._sampling.data.dtype == T.get_default_dtype()
        weights = build_sampling_weights(num_snippets, max_duration, num_samples)
        columns = net._sampling.data.reshape(num_snippets, num_samples, cells + 1)
        assert np.array_equal(columns[..., :-1],
                              weights[..., valid].astype(T.get_default_dtype()))
        # each sample's outside column, which every invalid cell reads, is all zero
        assert np.array_equal(columns[..., -1], np.zeros((num_snippets, num_samples)))
        if cells < max_duration * num_snippets:   # else the two constants coincide
            dense = num_snippets * num_samples * max_duration * num_snippets
            assert all(a.size != dense for a in _held_arrays(net))

    def test_build_makes_no_dense_temporary(self):
        num_snippets, max_duration, num_samples = 64, 64, 16
        dense_bytes = 8 * num_snippets * num_samples * max_duration * num_snippets
        tracemalloc.start()
        try:
            self._net(num_snippets, max_duration, num_samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes


class TestGridTaps:
    """grid2 over the valid cells against the 3x3 conv over the laid-out grid."""

    @pytest.mark.parametrize("grid", GRIDS)
    def test_equals_conv2d_over_the_laid_out_grid(self, grid):
        num_snippets, max_duration, _ = grid
        valid = valid_cells(num_snippets, max_duration)
        cells = int(valid.sum())
        rng = np.random.default_rng(cells)
        x, w, b = (rng.standard_normal(s) for s in ((3, cells + 1), (4, 3, 3, 3), (4,)))
        laid_out = np.repeat(x[:, -1:], valid.size, axis=1).reshape(3, *valid.shape)
        laid_out[:, valid] = x[:, :-1]          # invalid cells hold the shared column
        with T.default_dtype(np.float64):
            taps = grid_taps(num_snippets, max_duration)
            got = T.neighbour_conv(Tensor(x), Tensor(w), Tensor(b), taps).data
            want = T.conv2d(Tensor(laid_out), Tensor(w), Tensor(b), padding=1).data
        assert taps.reads.shape == (9, cells) and taps.columns == cells + 1
        np.testing.assert_allclose(got, want[:, valid], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_gradients_match_finite_differences(self, grid):
        num_snippets, max_duration, _ = grid
        taps = grid_taps(num_snippets, max_duration)
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(num_snippets + max_duration)
            x = T.parameter(rng.standard_normal((2, taps.columns)))
            w = T.parameter(rng.standard_normal((2, 2, 3, 3)))
            b = T.parameter(rng.standard_normal(2))

            def forward():
                out = T.neighbour_conv(x, w, b, taps)
                return scalarize(T.mul(out, out))
            check_gradients(forward, [x, w, b], tol=1e-6)


_PASS_FAULTS = """
import resource
import numpy as np
from tapgkit.autodiff import tensor as T
from tapgkit.boundary_net import BoundaryNet, BoundaryNetConfig
cfg = BoundaryNetConfig(feature_dim=32, num_snippets=32, num_samples=16,
                        trunk_hidden=64, trunk_out=32, boundary_hidden=64,
                        proposal_conv3d_out=128, proposal_conv2d_hidden=32)
net = BoundaryNet(np.random.default_rng(0), cfg)
features = T.constant(np.random.default_rng(1).standard_normal((32, 32)))
for i in range(5):
    if i == 1:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with T.Tape() as tape:
        tape.backward(T.mean(net(features).actionness), net.parameters())
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_passes_reuse_freed_memory():
    # A desk-sized pass frees about 10 MiB of temporaries: mapped afresh for
    # every pass they cost some 1,750 page faults, reused a few dozen. A fresh
    # interpreter keeps earlier tests' frees from moving glibc's thresholds.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", _PASS_FAULTS], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert float(run.stdout) < 400
