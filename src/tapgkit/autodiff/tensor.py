"""Dense tensors with reverse-mode automatic differentiation.

Every differentiable op records itself on the innermost active :class:`Tape`;
``Tape.backward`` replays the records strictly in reverse execution order and
accumulates gradients into ``Tensor.grad``. Without an active tape, ops run in
plain inference mode and record nothing.

All tensors share one process-wide float precision (default float32); switch
it with :func:`set_default_dtype` or the :func:`default_dtype` context manager
before building a model.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable, Sequence

import numpy as np

from tapgkit.errors import EmptyInputError, GraphError, ShapeError

_default_dtype = np.float32
_tls = threading.local()


def set_default_dtype(dtype) -> None:
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ShapeError(f"unsupported precision {dtype}; use float32 or float64")
    _default_dtype = dtype.type


def get_default_dtype():
    return _default_dtype


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily switch the process-wide tensor precision."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def _tape_stack() -> list:
    stack = getattr(_tls, "tapes", None)
    if stack is None:
        stack = []
        _tls.tapes = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense n-dimensional array, optionally tracked for gradients.

    ``data`` is a row-major numpy array in the process default precision.
    ``grad`` is a same-shape accumulator. A tensor built directly with
    ``requires_grad`` (a parameter) starts with a zero buffer, which every
    backward pass that reads it re-zeroes first. An op result starts with
    ``grad = None`` and gets a buffer only when a backward pass reaches it,
    so results on branches no gradient flows through keep ``None``. A
    result's buffer may be a read-only view that shares memory with another
    result's gradient.

    An op result holds no reference to its tape, so dropping the tape frees
    the recorded graph at once.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=get_default_dtype())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Record:
    __slots__ = ("out", "inputs", "fn")

    def __init__(self, out, inputs, fn):
        self.out = out
        self.inputs = inputs
        self.fn = fn


class Tape:
    """Ordered log of executed differentiable operations.

    Use as a context manager around a forward pass; ``backward`` replays the
    log once, in reverse; a consumed tape records nothing more. The tape owns
    its graph and no result points back at it, so dropping the tape frees the
    graph without waiting for the cyclic garbage collector. ``backward`` frees
    it sooner: it releases each record as soon as it has replayed it, so a
    forward array or an intermediate gradient lives only until the backward
    of its last consumer has run. ``len(tape)`` stays the number of recorded
    ops.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._recorded = 0
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def __len__(self):
        return self._recorded

    def record(self, out: Tensor, inputs: Sequence[Tensor], fn) -> None:
        if self._consumed:
            raise GraphError("tape already replayed; record on a new tape")
        self._records.append(_Record(out, tuple(inputs), fn))
        self._recorded += 1

    def backward(self, loss: Tensor, params: Iterable[Tensor] = ()) -> None:
        """Replay the log in reverse from the scalar ``loss``.

        Every leaf the log reads, and every tensor in ``params``, gets a fresh
        zero gradient first, so after the pass each holds this loss's gradient
        alone. Pass a model's parameters so that those the graph never reaches
        (an unused branch this time) also hold zero, not an earlier step's
        gradient.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self._consumed:
            raise GraphError("tape already replayed; record on a new tape")
        # results recorded here start without a buffer; only the leaves (the
        # tracked inputs no record here produced) carry earlier passes' gradients
        results = {id(rec.out) for rec in self._records}
        leaves = {id(t): t for t in params}
        leaves.update((id(t), t) for rec in self._records for t in rec.inputs
                      if t.requires_grad and id(t) not in results)
        for t in leaves.values():
            t.zero_grad()
        if loss.requires_grad:
            loss.grad = np.ones_like(loss.data)
        self._consumed = True
        records = self._records
        while records:
            # every consumer of this result was recorded later and has been
            # replayed and dropped; dropping this record frees what only it held
            rec = records.pop()
            if rec.out.grad is not None:
                rec.fn(rec.out.grad)


def constant(data) -> Tensor:
    """An untracked tensor (no gradient, never recorded)."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _from_op(data: np.ndarray, inputs: Sequence[Tensor], fn) -> Tensor:
    """Wrap an op result; record it when a tape is live and an input is tracked."""
    for t in inputs:
        if not isinstance(t, Tensor):
            raise GraphError(f"op input must be a Tensor, got {type(t).__name__}")
    tape = _active_tape()
    tracked = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=get_default_dtype())
    out.requires_grad = tracked
    out.grad = None
    if tracked:
        tape.record(out, inputs, fn)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``.

    A first gradient of ``t``'s dtype and shape is kept without a copy, as a
    read-only view: ``g`` may be a view of another result's gradient, or one
    array handed to two inputs. A read-only gradient is never added into in
    place; the next gradient for ``t`` makes a new array.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if isinstance(g, np.ndarray) and g.dtype == t.data.dtype and g.shape == t.data.shape:
            t.grad = g.view()
            t.grad.flags.writeable = False
        else:
            t.grad = np.empty_like(t.data)
            np.copyto(t.grad, g)
    elif t.grad.flags.writeable:
        t.grad += g
    else:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _from_op(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _from_op(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    return _from_op(-a.data, (a,), lambda g: _accum(a, -g))


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _from_op(a.data * factor, (a,), lambda g: _accum(a, g * factor))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(g):
        _accum(a, g * out)

    return _from_op(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data)

    return _from_op(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def backward(g):
        _accum(a, g / (2.0 * out))

    return _from_op(out, (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through unsaturated entries only."""
    out = np.clip(a.data, lo, hi)

    def backward(g):
        _accum(a, g * ((a.data > lo) & (a.data < hi)))

    return _from_op(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0.0))

    return _from_op(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward(g):
        _accum(a, g * out * (1.0 - out))

    return _from_op(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Axis-normalized exponential, computed with max-subtraction."""
    if a.data.shape[axis] == 0:
        raise ShapeError("softmax over an empty axis")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(a, out * (g - dot))

    return _from_op(out, (a,), backward)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    return _from_op(a.data.reshape(shape), (a,), lambda g: _accum(a, g.reshape(orig)))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a matrix or a stack of matrices."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")
    return _from_op(np.swapaxes(a.data, -1, -2), (a,),
                    lambda g: _accum(a, np.swapaxes(g, -1, -2)))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise EmptyInputError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            _accum(t, g[tuple(sl)])

    return _from_op(out, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise EmptyInputError("stack of zero tensors")
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            _accum(t, np.take(g, i, axis=axis))

    return _from_op(out, tensors, backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis 0; backward scatter-adds into them."""
    idx = np.asarray(indices, dtype=np.int64)
    out = a.data[idx]

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _accum(a, buf)

    return _from_op(out, (a,), backward)


def scatter_mask(a: Tensor, mask) -> Tensor:
    """Lay the last axis of ``a`` out over the true cells of a boolean mask.

    ``a`` has shape (..., V) with V the mask's true count; the result has
    shape (..., *mask.shape), its true cells filled in row-major order and
    zeros elsewhere. It inverts ``x[..., mask]``, which is its backward.
    """
    mask = np.asarray(mask, dtype=bool)
    cells = np.count_nonzero(mask)
    if a.data.ndim < 1 or a.data.shape[-1] != cells:
        raise ShapeError(f"shape {a.data.shape} does not end in the mask's {cells} true cells")
    out = np.zeros(a.data.shape[:-1] + mask.shape, dtype=a.data.dtype)
    out[..., mask] = a.data
    return _from_op(out, (a,), lambda g: _accum(a, g[..., mask]))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _check_axis(a: Tensor, axis):
    if axis is None:
        if a.data.size == 0:
            raise ShapeError("reduction over an empty tensor")
        return
    if a.data.shape[axis] == 0:
        raise ShapeError(f"reduction over empty axis {axis} of shape {a.data.shape}")


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    _check_axis(a, axis)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _from_op(out, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    _check_axis(a, axis)
    count = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape) / count)

    return _from_op(out, (a,), backward)


def l2_norm(a: Tensor, axis: int = -1) -> Tensor:
    """Euclidean norm along one axis."""
    _check_axis(a, axis)
    out = np.sqrt((a.data * a.data).sum(axis=axis))

    def backward(g):
        denom = np.where(out == 0.0, 1.0, out)
        gg = np.expand_dims(g / denom, axis)
        _accum(a, gg * a.data)

    return _from_op(out, (a,), backward)


# ---------------------------------------------------------------------------
# matrix product
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading axes of stacked matrices broadcast as in numpy."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul expects two matrices or stacks of matrices")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    try:
        out = a.data @ b.data
    except ValueError as err:
        raise ShapeError(
            f"matmul stacks do not broadcast: {a.data.shape} @ {b.data.shape}") from err

    def backward(g):
        # a constant side (a fixed sampling matrix, say) costs no product
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _from_op(out, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``y = x @ W + b`` over the trailing axis of ``x``."""
    if weight.data.ndim != 2:
        raise ShapeError("linear weight must be a matrix")
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(
            f"linear input width {x.data.shape[-1]} != weight fan-in {weight.data.shape[0]}"
        )
    if bias is not None and bias.data.shape != (weight.data.shape[1],):
        raise ShapeError("linear bias extent must match weight fan-out")
    lead = x.data.shape[:-1]
    flat = x.data.reshape(-1, x.data.shape[-1])
    out = flat @ weight.data
    if bias is not None:
        out = out + bias.data
    out = out.reshape(*lead, weight.data.shape[1])

    def backward(g):
        gf = g.reshape(-1, weight.data.shape[1])
        if x.requires_grad:
            _accum(x, (gf @ weight.data.T).reshape(x.data.shape))
        if weight.requires_grad:
            _accum(weight, flat.T @ gf)
        if bias is not None and bias.requires_grad:
            _accum(bias, gf.sum(axis=0))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out, inputs, backward)


# ---------------------------------------------------------------------------
# cross-correlation (1/2/3-D), machine-learning "convolution"
# ---------------------------------------------------------------------------

def _conv_nd(x: Tensor, weight: Tensor, bias: Tensor | None, stride, padding, rank: int):
    if x.data.ndim != rank + 1:
        raise ShapeError(f"conv{rank}d input must have shape (channels, {'x'.join('LHW'[3-rank:])})")
    if weight.data.ndim != rank + 2:
        raise ShapeError(f"conv{rank}d weight must have rank {rank + 2}")
    c_in = x.data.shape[0]
    c_out = weight.data.shape[0]
    if weight.data.shape[1] != c_in:
        raise ShapeError(f"conv{rank}d channel mismatch: input {c_in}, weight {weight.data.shape[1]}")
    if bias is not None and bias.data.shape != (c_out,):
        raise ShapeError("conv bias extent must equal the filter count")
    stride = _tupleize(stride, rank)
    padding = _tupleize(padding, rank)
    if min(stride) < 1:
        raise ShapeError(f"conv{rank}d stride must be >= 1, got {stride}")
    if min(padding) < 0:
        raise ShapeError(f"conv{rank}d padding must be >= 0, got {padding}")
    kernel = weight.data.shape[2:]
    spatial = x.data.shape[1:]
    padded = tuple(e + 2 * p for e, p in zip(spatial, padding))
    full = tuple(e - k + 1 for e, k in zip(padded, kernel))  # stride-1 output extents
    if min(full) <= 0:
        raise ShapeError(f"conv{rank}d output extent <= 0 for input {spatial}, kernel {kernel}")

    # Stride-1 correlation over the flat padded input: kernel offset k reads
    # output position o at o + shift(k), one matmul over a contiguous slice.
    # Output rows keep the padded row length; the junk columns are cropped and
    # the strided positions picked after. A spare zero row covers the overrun.
    steps = np.cumprod((1,) + padded[:0:-1])[::-1]
    shifts = [int(np.dot(k, steps)) for k in np.ndindex(*kernel)]
    span = full[0] * int(steps[0])
    spare = int(shifts[-1] + span > np.prod(padded))
    interior = (slice(None),) + tuple(slice(p, p + e) for p, e in zip(padding, spatial))
    if any(padding) or spare:
        xp = np.zeros((c_in, padded[0] + spare) + padded[1:], dtype=x.data.dtype)
        xp[interior] = x.data
    else:
        xp = x.data
    xf = xp.reshape(c_in, -1)
    wk = np.ascontiguousarray(np.moveaxis(weight.data.reshape(c_out, c_in, -1), -1, 0))
    of = wk[0] @ xf[:, :span]
    for w, s in zip(wk[1:], shifts[1:]):
        of += w @ xf[:, s:s + span]
    if bias is not None:
        of += bias.data[:, None]
    grid = (c_out, full[0]) + padded[1:]
    keep = (slice(None),) + tuple(slice(0, f, s) for f, s in zip(full, stride))
    out = of.reshape(grid)[keep]

    def backward(g):
        gf = g
        if out.shape != grid:  # back onto the stride-1 grid, zeros in the junk
            gf = np.zeros(grid, dtype=g.dtype)
            gf[keep] = g
        gf = gf.reshape(c_out, span)
        if weight.requires_grad:
            dw = np.stack([gf @ xf[:, s:s + span].T for s in shifts], axis=-1)
            _accum(weight, dw.reshape(weight.data.shape))
        if bias is not None:
            _accum(bias, gf.sum(axis=1))
        if x.requires_grad:
            if len(shifts) == 1:
                dx = wk[0].T @ gf
            else:
                dx = np.zeros_like(xf)
                for w, s in zip(wk, shifts):
                    dx[:, s:s + span] += w.T @ gf
            _accum(x, dx.reshape(xp.shape)[interior])

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out, inputs, backward)


def _tupleize(value, rank: int):
    if isinstance(value, int):
        return (value,) * rank
    value = tuple(value)
    if len(value) != rank:
        raise ShapeError(f"expected {rank} stride/padding entries, got {len(value)}")
    return value


def conv1d(x, weight, bias=None, stride=1, padding=0):
    return _conv_nd(x, weight, bias, stride, padding, rank=1)


def conv2d(x, weight, bias=None, stride=1, padding=0):
    return _conv_nd(x, weight, bias, stride, padding, rank=2)


def conv3d(x, weight, bias=None, stride=1, padding=0):
    return _conv_nd(x, weight, bias, stride, padding, rank=3)


def mean_pool(a: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along one axis (alias kept for pooling call sites)."""
    return mean(a, axis=axis)
