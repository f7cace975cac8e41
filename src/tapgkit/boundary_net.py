"""Boundary and proposal confidence maps over a snippet feature matrix.

Input is the (feature_dim, T) video representation. A shared 1-D conv trunk
produces a base sequence; from it, one head predicts per-snippet start and
end boundary probabilities, and a matching layer plus conv stack scores every
candidate interval on a duration x start grid.

The matching layer is a fixed linear map: for the grid cell with start t and
duration d (row index d-1), ``num_samples`` points are placed along
[t, t + d] (endpoints included) and each point reads the base sequence by
triangular interpolation between its two neighbouring snippet columns;
columns outside [0, T-1] contribute zero. Cells that overrun the sequence
(t + d > T) are all-zero and masked invalid. Because sampling is linear in
the base sequence, it is one matmul with a precomputed constant: the V
valid cells' columns and one all-zero "outside" column for every invalid
cell, (T, num_samples * (V + 1)).

The sample collapse (``sample_collapse``) holds the weight (out, channels,
num_samples, 1, 1) and bias of a conv3d striding over the samples. Sampling
and collapse are one op, ``T.sample_collapse``: its forward multiplies the
base sequence by the constant, then the weight, flattened to (out, channels *
num_samples), by the sampled (channels * num_samples, V + 1) matrix, and adds
the bias to every column. Its backward maps the output gradient back through
the constant once, to (out, T, num_samples), and reads the weight and base
gradients from that with two small products, so a training step neither
keeps the sampled matrix nor forms its gradient. The outside column
collapses to the bias alone, the one vector every invalid cell holds, so the
bias, ``relu`` and the 1x1 ``grid1`` run once per distinct column.

No loss or decode reads an invalid cell, so the rest of the head computes
only the V valid cells. ``grid2``, a 3x3 conv with zero padding, is
``T.neighbour_conv`` over a (9, V) tap table (``grid_taps``): at each kernel
offset a valid cell reads its neighbour's own column, the shared outside
column if the neighbour is an invalid cell of the grid, or zero beyond the
grid's edge, exactly what the conv would read on the laid-out grid.
``grid3``, a 1x1 conv, and the sigmoid follow on V columns, and the output
holds the V valid cells' probabilities in row-major order;
``BoundaryNetOutput.actionness_grid`` lays them out on the grid for decoding.
Parameter names and shapes are those of the convs they stand for.

Grid cell (row r, column t) therefore covers the interval [t, t + r + 1] in
snippet coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.layers import Conv1d, Conv2d, Module, glorot_uniform
from tapgkit.autodiff.tensor import Tensor
from tapgkit.errors import ConfigError, ShapeError, check_whole


@dataclass
class BoundaryNetConfig:
    feature_dim: int
    num_snippets: int
    max_duration: int | None = None   # defaults to num_snippets
    num_samples: int = 32
    trunk_hidden: int = 256
    trunk_out: int = 128
    boundary_hidden: int = 256
    proposal_conv3d_out: int = 512
    proposal_conv2d_hidden: int = 128

    def resolved_max_duration(self) -> int:
        return self.num_snippets if self.max_duration is None else self.max_duration

    def validate(self) -> None:
        check_whole(self)
        if self.feature_dim <= 0 or self.num_snippets <= 0:
            raise ConfigError("feature_dim and num_snippets must be positive")
        if not (1 <= self.resolved_max_duration() <= self.num_snippets):
            raise ConfigError("max_duration must lie in [1, num_snippets]")
        if self.num_samples < 2:
            raise ConfigError("num_samples must be at least 2")
        if min(self.trunk_hidden, self.trunk_out, self.boundary_hidden,
               self.proposal_conv3d_out, self.proposal_conv2d_hidden) <= 0:
            raise ConfigError("all channel widths must be positive")


def valid_cells(num_snippets: int, max_duration: int) -> np.ndarray:
    """Boolean (max_duration, T) grid: cell (r, t) is real iff t + r + 1 <= T."""
    r = np.arange(max_duration)[:, None]
    t = np.arange(num_snippets)[None, :]
    return (t + r + 1) <= num_snippets


def sampling_columns(num_snippets: int, max_duration: int, num_samples: int,
                     dtype=np.float64) -> np.ndarray:
    """(T, num_samples, V + 1) weights: the V valid cells in row-major order, then all zeros."""
    r, t = np.nonzero(valid_cells(num_snippets, max_duration))
    positions = np.linspace(t, t + r + 1, num_samples, axis=-1)   # (cells, samples)
    lo = np.floor(positions).astype(np.int64)
    w = np.zeros((num_snippets, num_samples, r.size + 1), dtype=dtype)
    for j in (lo, lo + 1):
        # positions lie in [0, T], so only the upper neighbour can fall outside
        cell, sample = np.nonzero(j < num_snippets)
        col = j[cell, sample]
        w[col, sample, cell] = np.maximum(0.0, 1.0 - np.abs(positions[cell, sample] - col))
    return w


def grid_taps(num_snippets: int, max_duration: int) -> T.NeighbourTaps:
    """The column each valid cell reads at each 3x3 offset, as a (9, V) table.

    Columns are numbered as in ``sampling_columns``: a valid neighbour reads
    its own column, a neighbour inside the grid but invalid reads the shared
    column V, and one outside the grid reads V + 1, the zero padding.
    Offsets run row-major over the kernel, as in a (3, 3) conv weight.
    """
    valid = valid_cells(num_snippets, max_duration)
    cells = int(valid.sum())
    column = np.full((max_duration + 2, num_snippets + 2), cells + 1)
    column[1:-1, 1:-1] = np.where(valid, np.cumsum(valid).reshape(valid.shape) - 1, cells)
    r, t = np.nonzero(valid)
    reads = np.stack([column[r + i, t + j] for i in range(3) for j in range(3)])
    return T.neighbour_taps(reads, cells + 1)


def build_sampling_weights(num_snippets: int, max_duration: int,
                           num_samples: int) -> np.ndarray:
    """Dense float64 array (T, num_samples, max_duration, T) realizing the sampler."""
    w = np.zeros((num_snippets, num_samples, max_duration, num_snippets))
    w[..., valid_cells(num_snippets, max_duration)] = sampling_columns(
        num_snippets, max_duration, num_samples)[..., :-1]
    return w


@dataclass
class BoundaryNetOutput:
    start: Tensor        # (T,)
    end: Tensor          # (T,)
    actionness: Tensor   # (V,): the valid cells, row-major
    valid: np.ndarray    # boolean (max_duration, T)

    def actionness_grid(self) -> np.ndarray:
        """Float64 (max_duration, T) probabilities, zero at the invalid cells."""
        grid = np.zeros(self.valid.shape)
        grid[self.valid] = self.actionness.data
        return grid


class BoundaryNet(Module):
    def __init__(self, rng: np.random.Generator, cfg: BoundaryNetConfig):
        cfg.validate()
        self.cfg = cfg
        d = cfg.resolved_max_duration()
        self.trunk1 = Conv1d(rng, cfg.feature_dim, cfg.trunk_hidden, 3, padding=1)
        self.trunk2 = Conv1d(rng, cfg.trunk_hidden, cfg.trunk_out, 3, padding=1)
        self.boundary1 = Conv1d(rng, cfg.trunk_out, cfg.boundary_hidden, 3, padding=1)
        self.boundary2 = Conv1d(rng, cfg.boundary_hidden, 2, 3, padding=1)
        # a conv3d's parameters, applied as one matmul in __call__
        self.sample_collapse = Module()
        c, n, o = cfg.trunk_out, cfg.num_samples, cfg.proposal_conv3d_out
        self.sample_collapse.weight = T.parameter(
            glorot_uniform(rng, (o, c, n, 1, 1), c * n, o * n))
        self.sample_collapse.bias = T.parameter(np.zeros(o))
        self.grid1 = Conv2d(rng, cfg.proposal_conv3d_out, cfg.proposal_conv2d_hidden, 1)
        # a 3x3 conv's parameters, applied over the valid cells in __call__
        self.grid2 = Conv2d(rng, cfg.proposal_conv2d_hidden, cfg.proposal_conv2d_hidden,
                            3, padding=1)
        self.grid3 = Conv2d(rng, cfg.proposal_conv2d_hidden, 1, 1)
        self._valid = valid_cells(cfg.num_snippets, d)
        cells = sampling_columns(cfg.num_snippets, d, cfg.num_samples, T.get_default_dtype())
        self._sampling = T.constant(cells.reshape(cfg.num_snippets, -1))   # (T, n*(V+1))
        self._taps = grid_taps(cfg.num_snippets, d)

    def __call__(self, features: Tensor) -> BoundaryNetOutput:
        cfg = self.cfg
        if features.data.shape != (cfg.feature_dim, cfg.num_snippets):
            raise ShapeError(
                f"features must be ({cfg.feature_dim}, {cfg.num_snippets}), "
                f"got {features.data.shape}"
            )
        base = T.relu(self.trunk2(T.relu(self.trunk1(features))))    # (trunk_out, T)

        bounds = T.sigmoid(self.boundary2(T.relu(self.boundary1(base))))  # (2, T)
        start = T.reshape(T.gather_rows(bounds, [0]), (cfg.num_snippets,))
        end = T.reshape(T.gather_rows(bounds, [1]), (cfg.num_snippets,))

        c3d, h = cfg.proposal_conv3d_out, cfg.proposal_conv2d_hidden
        collapse = self.sample_collapse
        x = T.relu(T.sample_collapse(base, collapse.weight, collapse.bias,
                                     self._sampling))                # (c3d, V+1)
        x = T.relu(self.grid1(T.reshape(x, (c3d, 1, -1))))           # (h, 1, V+1)
        x = T.relu(T.neighbour_conv(T.reshape(x, (h, -1)), self.grid2.weight,
                                    self.grid2.bias, self._taps))     # (h, V)
        actionness = T.reshape(T.sigmoid(self.grid3(T.reshape(x, (h, 1, -1)))), (-1,))
        return BoundaryNetOutput(start, end, actionness, self._valid)
