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
num_samples), by the sampled (channels * num_samples, V + 1) matrix. Its
backward maps the output gradient back through the constant once, to
(out, T, num_samples), and reads the weight and base gradients from that
with two small products, so a training step neither keeps the sampled
matrix nor forms its gradient. The outside column collapses to the bias
alone, the one vector every invalid cell holds, so the bias, ``relu`` and
the 1x1 ``grid1`` run once per distinct column; only grid1's output is laid
out on the grid, its outside column filling every invalid cell.

Grid cell (row r, column t) therefore covers the interval [t, t + r + 1] in
snippet coordinates.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.layers import Conv1d, Conv2d, Module, glorot_uniform
from tapgkit.autodiff.tensor import Tensor
from tapgkit.errors import ConfigError, ShapeError


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


def build_sampling_weights(num_snippets: int, max_duration: int,
                           num_samples: int) -> np.ndarray:
    """Dense float64 array (T, num_samples, max_duration, T) realizing the sampler."""
    w = np.zeros((num_snippets, num_samples, max_duration, num_snippets))
    w[..., valid_cells(num_snippets, max_duration)] = sampling_columns(
        num_snippets, max_duration, num_samples)[..., :-1]
    return w


def _retain_freed_memory() -> None:
    """Have glibc keep freed array memory in its heap instead of unmapping it.

    A forward and backward pass frees megabytes of numpy temporaries. A
    fixed 32 MiB mmap threshold (glibc's maximum) and 64 MiB trim threshold
    keep them for reuse instead of mapping them afresh on the next pass.
    Paired paper-grid benchmark runs have read the step 16% slower without
    the pin in one round and no slower in another (README, Notes), so the
    pin stays until paired runs show that dropping it costs nothing. This
    is process-wide, and a no-op where libc has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


@dataclass
class BoundaryNetOutput:
    start: Tensor        # (T,)
    end: Tensor          # (T,)
    actionness: Tensor   # (max_duration, T)
    valid: np.ndarray    # boolean (max_duration, T)


class BoundaryNet(Module):
    def __init__(self, rng: np.random.Generator, cfg: BoundaryNetConfig):
        cfg.validate()
        _retain_freed_memory()
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
        self.grid2 = Conv2d(rng, cfg.proposal_conv2d_hidden, cfg.proposal_conv2d_hidden,
                            3, padding=1)
        self.grid3 = Conv2d(rng, cfg.proposal_conv2d_hidden, 1, 1)
        self._valid = valid_cells(cfg.num_snippets, d)
        cells = sampling_columns(cfg.num_snippets, d, cfg.num_samples, T.get_default_dtype())
        self._sampling = T.constant(cells.reshape(cfg.num_snippets, -1))   # (T, n*(V+1))

    def __call__(self, features: Tensor) -> BoundaryNetOutput:
        cfg = self.cfg
        d = cfg.resolved_max_duration()
        if features.data.shape != (cfg.feature_dim, cfg.num_snippets):
            raise ShapeError(
                f"features must be ({cfg.feature_dim}, {cfg.num_snippets}), "
                f"got {features.data.shape}"
            )
        base = T.relu(self.trunk2(T.relu(self.trunk1(features))))    # (trunk_out, T)

        bounds = T.sigmoid(self.boundary2(T.relu(self.boundary1(base))))  # (2, T)
        start = T.reshape(T.gather_rows(bounds, [0]), (cfg.num_snippets,))
        end = T.reshape(T.gather_rows(bounds, [1]), (cfg.num_snippets,))

        c3d = cfg.proposal_conv3d_out
        collapse = self.sample_collapse
        x = T.sample_collapse(base, collapse.weight, self._sampling)  # (c3d, V+1)
        x = T.relu(T.add(x, T.reshape(collapse.bias, (c3d, 1))))
        x = T.relu(self.grid1(T.reshape(x, (c3d, 1, -1))))           # (h, 1, V+1)
        x = T.scatter_mask(T.reshape(x, (cfg.proposal_conv2d_hidden, -1)), self._valid)
        x = T.relu(self.grid2(x))                                    # (h, d, T)
        actionness = T.reshape(T.sigmoid(self.grid3(x)), (d, cfg.num_snippets))
        return BoundaryNetOutput(start, end, actionness, self._valid)
