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
import functools
import threading
from typing import Iterable, NamedTuple, Sequence

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
# fused loss terms
# ---------------------------------------------------------------------------

def _per_entry(pred: Tensor, values):
    """A constant array, flat, in the tensor precision, one value per entry of ``pred``."""
    if values is None:
        return None
    values = np.asarray(values, dtype=get_default_dtype()).reshape(-1)
    if values.size != pred.data.size:
        raise ShapeError(f"{values.size} values for {pred.data.size} predictions")
    return values


def binary_cross_entropy(pred: Tensor, pos_weights, neg_weights,
                         lo: float, hi: float) -> Tensor:
    """Weighted binary cross entropy of probabilities, as one op.

    With q = clip(pred, lo, hi) flattened, the scalar is
    ``-(sum(pos_weights * log(q)) + sum(neg_weights * log(1 - q)))``; a
    weight array of None drops its term (not both). The forward runs the
    elementwise steps of that expression one by one, in that order. The
    backward passes no gradient to an entry at or beyond ``lo`` or ``hi``,
    as ``clip`` does.
    """
    if pos_weights is None and neg_weights is None:
        raise EmptyInputError("binary cross entropy without a term")
    pos, neg = _per_entry(pred, pos_weights), _per_entry(pred, neg_weights)
    raw = pred.data.reshape(-1)
    q = np.clip(raw, lo, hi)
    one_minus = None if neg is None else 1.0 - q
    terms = []
    if pos is not None:
        terms.append((pos * np.log(q)).sum())
    if neg is not None:
        terms.append((neg * np.log(one_minus)).sum())
    out = -(terms[0] + terms[1]) if len(terms) == 2 else -terms[0]

    def backward(g):
        g = -g
        dq = None if pos is None else (g * pos) / q
        if neg is not None:
            dneg = -((g * neg) / one_minus)
            dq = dneg if dq is None else dneg + dq
        _accum(pred, (dq * ((raw > lo) & (raw < hi))).reshape(pred.data.shape))

    return _from_op(out, (pred,), backward)


def clipped_mse(pred: Tensor, target, lo: float, hi: float) -> Tensor:
    """Mean of (clip(pred, lo, hi) - target)^2 over all entries, as one op.

    The backward passes no gradient to an entry at or beyond ``lo`` or
    ``hi``, as ``clip`` does.
    """
    target = _per_entry(pred, target)
    raw = pred.data.reshape(-1)
    diff = np.clip(raw, lo, hi) - target
    count = diff.size

    def backward(g):
        half = (g / count) * diff
        _accum(pred, ((half + half) * ((raw > lo) & (raw < hi))).reshape(pred.data.shape))

    return _from_op((diff * diff).mean(), (pred,), backward)


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


def sample_collapse(base: Tensor, weight: Tensor, bias: Tensor, sampling: Tensor) -> Tensor:
    """Read ``base`` through a fixed sampling matrix, then collapse the samples.

    ``base`` is (c, T); ``sampling`` is a constant (T, n * m) whose column
    ``j * m + v`` places sample j of output column v; ``weight`` is
    (o, c, n, ...) with trailing extents of 1, a conv filter striding over
    the n samples, and ``bias`` is its (o,) bias. The (o, m) result is

        out[o, v] = bias[o]
                    + sum over (i, j) of weight[o, i, j] * (base @ sampling)[i, j * m + v]

    computed as those two products, in that order, then the bias. The
    backward never forms the (c * n, m) sampled matrix or its gradient: it
    maps the output gradient back through the sampling matrix once, as dM
    (o, T, n), and takes the weight and base gradients from dM with two small
    products; the bias gradient is the output gradient's row sums.
    """
    if sampling.requires_grad:
        raise GraphError("sample_collapse reads a constant sampling matrix")
    if base.data.ndim != 2 or sampling.data.ndim != 2 or weight.data.ndim < 3:
        raise ShapeError("sample_collapse expects base (c, T), weight (o, c, n, ...) "
                         "and sampling (T, n * m)")
    (c, t), o, n = base.data.shape, weight.data.shape[0], weight.data.shape[2]
    if (weight.data.shape[1] != c or weight.data.size != o * c * n
            or sampling.data.shape[0] != t or sampling.data.shape[1] % n):
        raise ShapeError(f"sample_collapse extents disagree: base {base.data.shape}, "
                         f"weight {weight.data.shape}, sampling {sampling.data.shape}")
    if bias.data.shape != (o,):
        raise ShapeError("conv bias extent must equal the filter count")
    m = sampling.data.shape[1] // n
    w = weight.data.reshape(o, c * n)
    out = w @ (base.data @ sampling.data).reshape(c * n, m)
    out += bias.data[:, None]

    def backward(g):
        if bias.requires_grad:
            _accum(bias, g.sum(axis=1))
        dm = (g @ sampling.data.reshape(t * n, m).T).reshape(o, t, n)
        if weight.requires_grad:
            _accum(weight, np.matmul(base.data, dm).reshape(weight.data.shape))
        if base.requires_grad:
            w_by_channel = np.ascontiguousarray(w.reshape(o, c, n).transpose(1, 0, 2))
            _accum(base, w_by_channel.reshape(c, o * n) @ dm.transpose(0, 2, 1).reshape(o * n, t))

    return _from_op(out, (base, weight, bias), backward)


# ---------------------------------------------------------------------------
# cross-correlation (1/2/3-D), machine-learning "convolution"
# ---------------------------------------------------------------------------

class _ConvGeometry(NamedTuple):
    shifts: tuple     # flat input offset of each kernel offset, row-major
    span: int         # flat length of the stride-1 output on padded rows
    buffer: tuple     # padded input extents, plus the spare row if any
    copy: bool        # whether the input must be copied into such a buffer
    interior: tuple   # where the input sits in that buffer
    grid: tuple       # stride-1 output extents on padded rows
    keep: tuple       # the strided output positions on that grid


@functools.lru_cache(maxsize=64)
def _conv_geometry(spatial: tuple, kernel: tuple, stride: tuple,
                   padding: tuple) -> _ConvGeometry:
    """Layout of a shift-and-matmul correlation; depends on extents only.

    Stride-1 correlation over the flat padded input: kernel offset k reads
    output position o at o + shift(k), one matmul over a contiguous slice.
    Output rows keep the padded row length; the junk columns are cropped and
    the strided positions picked after. A spare zero row covers the overrun.
    """
    rank = len(kernel)
    padded = tuple(e + 2 * p for e, p in zip(spatial, padding))
    full = tuple(e - k + 1 for e, k in zip(padded, kernel))
    if min(full) <= 0:
        raise ShapeError(f"conv{rank}d output extent <= 0 for input {spatial}, kernel {kernel}")
    steps = np.cumprod((1,) + padded[:0:-1])[::-1]
    shifts = tuple(int(np.dot(k, steps)) for k in np.ndindex(*kernel))
    span = full[0] * int(steps[0])
    spare = int(shifts[-1] + span > np.prod(padded))
    return _ConvGeometry(
        shifts=shifts, span=span,
        buffer=(padded[0] + spare,) + padded[1:],
        copy=bool(any(padding) or spare),
        interior=(slice(None),) + tuple(slice(p, p + e) for p, e in zip(padding, spatial)),
        grid=(full[0],) + padded[1:],
        keep=(slice(None),) + tuple(slice(0, f, s) for f, s in zip(full, stride)),
    )


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
    geo = _conv_geometry(x.data.shape[1:], weight.data.shape[2:], stride, padding)
    shifts, span, interior, keep = geo.shifts, geo.span, geo.interior, geo.keep

    if geo.copy:
        xp = np.zeros((c_in,) + geo.buffer, dtype=x.data.dtype)
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
    grid = (c_out,) + geo.grid
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


class NeighbourTaps(NamedTuple):
    """Which input column each output cell reads at each kernel offset.

    Built once by :func:`neighbour_taps` for :func:`neighbour_conv`.
    """
    reads: np.ndarray     # (k, n): the column cell v reads at offset j; m is padding
    readers: np.ndarray   # (k, m - 1): the cell that reads own column c at offset j; n if none
    shared: np.ndarray    # boolean (k, n): cell v reads the shared column m - 1 at offset j
    columns: int          # m


def neighbour_taps(reads, columns: int) -> NeighbourTaps:
    """Check and index a (k, n) read table over ``columns`` input columns.

    ``reads[j, v]`` is the column output cell v reads at kernel offset j, in
    [0, columns], where ``columns`` itself stands for zero padding. The last
    column (``columns - 1``) is shared: any number of cells may read it at
    one offset. Every other column is read by at most one cell per offset.
    """
    reads = np.array(reads, dtype=np.intp)
    if reads.ndim != 2 or columns < 1:
        raise ShapeError("neighbour taps need a (k, n) table over at least one column")
    if reads.size and (reads.min() < 0 or reads.max() > columns):
        raise ShapeError(f"neighbour taps must lie in [0, {columns}]")
    k, n = reads.shape
    offset, cell = np.nonzero(reads < columns - 1)
    readers = np.full((k, columns - 1), n)
    readers[offset, reads[offset, cell]] = cell
    if np.count_nonzero(readers < n) != cell.size:
        raise ShapeError("a column other than the last is read twice at one offset")
    return NeighbourTaps(reads, readers, reads == columns - 1, columns)


def neighbour_conv(x: Tensor, weight: Tensor, bias: Tensor, taps: NeighbourTaps) -> Tensor:
    """Correlation of cells that read their neighbours through a tap table.

    ``x`` is (c_in, m), one column per distinct input, its last column the
    one many cells may share (every cell outside a grid's valid region, say);
    ``taps`` comes from :func:`neighbour_taps` over those m columns.
    ``weight`` is (c_out, c_in, *kernel) with its k offsets in row-major
    order. The (c_out, n) result is

        out[:, v] = bias + sum over j of weight[:, :, j] @ x[:, taps.reads[j, v]]

    computed one offset at a time on cell-major rows, so no temporary is
    larger than one (n, c_in) gather. The backward is the same product the
    other way round: at each offset, each own column gathers the gradient of
    the one cell that read it, and the shared column takes one sum.
    """
    reads, readers, shared, m = taps
    (k, n), c_out = reads.shape, weight.data.shape[0]
    if x.data.ndim != 2 or x.data.shape[1] != m:
        raise ShapeError(f"neighbour_conv input must be (channels, {m}), got {x.data.shape}")
    c_in = x.data.shape[0]
    if weight.data.ndim < 3 or weight.data.shape[1] != c_in \
            or weight.data.size != c_out * c_in * k:
        raise ShapeError(f"neighbour_conv weight {weight.data.shape} does not fit "
                         f"{c_in} input channels and {k} offsets")
    if bias.data.shape != (c_out,):
        raise ShapeError("conv bias extent must equal the filter count")
    rows = np.zeros((m + 1, c_in), dtype=x.data.dtype)   # the last row is the padding
    rows[:m] = x.data.T
    wk = np.ascontiguousarray(weight.data.reshape(c_out, c_in, k).transpose(2, 1, 0))
    out = rows[reads[0]] @ wk[0]                           # (n, c_out)
    for j in range(1, k):
        out += rows[reads[j]] @ wk[j]
    out += bias.data

    def backward(g):
        if weight.requires_grad:
            dw = np.empty((c_out, c_in, k), dtype=g.dtype)
            for j in range(k):
                dw[:, :, j] = g @ rows[reads[j]]
            _accum(weight, dw.reshape(weight.data.shape))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=1))
        if x.requires_grad:
            grows = np.zeros((n + 1, c_out), dtype=g.dtype)   # the last row reads nothing
            grows[:n] = g.T
            wt = np.ascontiguousarray(wk.transpose(0, 2, 1))
            dx = np.empty((m, c_in), dtype=g.dtype)
            own = dx[:-1]
            np.matmul(grows[readers[0]], wt[0], out=own)
            for j in range(1, k):
                own += grows[readers[j]] @ wt[j]
            by_offset = shared.astype(g.dtype) @ grows[:n]      # (k, c_out)
            dx[-1] = (by_offset[:, None, :] @ wt).sum(axis=0)[0]
            _accum(x, dx.T)

    return _from_op(out.T, (x, weight, bias), backward)


def mean_pool(a: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along one axis (alias kept for pooling call sites)."""
    return mean(a, axis=axis)
