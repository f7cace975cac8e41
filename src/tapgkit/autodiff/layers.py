"""Parameterized building blocks on top of the tensor ops.

Modules own named tensors and compose; ``named_state`` walks the attribute
tree with dotted paths, which is also the checkpoint naming scheme.
Weights use Glorot-uniform init from an explicit ``numpy.random.Generator`` so
runs are reproducible end to end.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from tapgkit.errors import ShapeError
from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.tensor import Tensor

# Additive softmax bias that hides a padded entry: its weight underflows to
# exactly zero next to any real logit, and the sum stays finite in float32.
MASKED_LOGIT = -1e30


class Module:
    """Base class: state discovery, freezing, flat state access.

    A module's state is every public ``Tensor`` attribute, found recursively
    through sub-modules and lists of them; attributes whose name starts with
    ``_`` (caches, precomputed constants) are not state. State splits in two:
    parameters (``requires_grad``) are what a loss trains and an optimizer
    steps; fixed state is drawn and checkpointed the same way but never
    trained. ``state_dict`` and ``load_state_dict`` cover both, in one order.
    """

    def named_state(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            path = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_state(f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_state(f"{path}.{i}.")

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        return ((name, t) for name, t in self.named_state(prefix) if t.requires_grad)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def freeze(self) -> None:
        """Turn every state tensor into fixed state: kept, never trained."""
        for _, t in self.named_state():
            t.requires_grad, t.grad = False, None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_state()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_state())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise ShapeError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, t in own.items():
            arr = np.asarray(state[name], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ShapeError(f"state {name}: stored {arr.shape} != model {t.data.shape}")
            t.data = arr.copy()
            t.zero_grad()


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    def __init__(self, rng: np.random.Generator, in_features: int, out_features: int,
                 bias: bool = True):
        self.weight = T.parameter(glorot_uniform(rng, (in_features, out_features),
                                                 in_features, out_features))
        self.bias = T.parameter(np.zeros(out_features)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class MLP(Module):
    """Stack of affine layers with ReLU between them (none after the last)."""

    def __init__(self, rng: np.random.Generator, widths: list[int]):
        if len(widths) < 2:
            raise ShapeError("MLP needs at least input and output widths")
        self.layers = [Linear(rng, a, b) for a, b in zip(widths[:-1], widths[1:])]

    def __call__(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i != last:
                x = T.relu(x)
        return x


class _ConvNd(Module):
    _rank = 0
    _op = None

    def __init__(self, rng: np.random.Generator, in_channels: int, out_channels: int,
                 kernel_size, padding=0):
        k = (kernel_size,) * self._rank if isinstance(kernel_size, int) else tuple(kernel_size)
        if len(k) != self._rank:
            raise ShapeError(f"kernel_size must have {self._rank} extents")
        fan_in = in_channels * int(np.prod(k))
        fan_out = out_channels * int(np.prod(k))
        self.weight = T.parameter(glorot_uniform(rng, (out_channels, in_channels, *k),
                                                 fan_in, fan_out))
        self.bias = T.parameter(np.zeros(out_channels))
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return type(self)._op(x, self.weight, self.bias, padding=self.padding)


class Conv1d(_ConvNd):
    _rank = 1
    _op = staticmethod(T.conv1d)


class Conv2d(_ConvNd):
    _rank = 2
    _op = staticmethod(T.conv2d)


class SelfAttentionEncoder(Module):
    """Single-head scaled dot-product self-attention with a residual FFN.

    Operates on a set of feature rows (n, d), or on a stack of sets
    (..., n, d) that are encoded independently. Queries, keys and values are
    bias-free projections of the input; attention output is added back to the
    input, then a two-layer feed-forward block (hidden width d) with its own
    residual. Deliberately norm-free: inputs here are unit-scale features and
    the sets are small.

    An optional boolean ``mask`` of shape (..., n) marks the real rows of
    padded sets: padding rows are hidden from every query by an additive
    ``MASKED_LOGIT`` bias, so each real row's output equals that of the set
    without padding. Padding rows still get (meaningless) outputs; callers
    drop them.
    """

    def __init__(self, rng: np.random.Generator, dim: int):
        self.query = Linear(rng, dim, dim, bias=False)
        self.key = Linear(rng, dim, dim, bias=False)
        self.value = Linear(rng, dim, dim, bias=False)
        self.ffn_in = Linear(rng, dim, dim)
        self.ffn_out = Linear(rng, dim, dim)
        self._scale = 1.0 / math.sqrt(dim)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        if x.data.ndim < 2:
            raise ShapeError(f"attention input must be (..., rows, dim), got {x.data.shape}")
        q = self.query(x)
        k = self.key(x)
        v = self.value(x)
        logits = T.scale(T.matmul(q, T.transpose(k)), self._scale)
        if mask is not None:
            if mask.shape != x.data.shape[:-1]:
                raise ShapeError(f"mask {mask.shape} does not cover input {x.data.shape}")
            bias = np.where(mask, 0.0, MASKED_LOGIT)[..., None, :]
            logits = T.add(logits, T.constant(bias))
        weights = T.softmax(logits, axis=-1)
        attended = T.add(x, T.matmul(weights, v))
        ffn = self.ffn_out(T.relu(self.ffn_in(attended)))
        return T.add(attended, ffn)
