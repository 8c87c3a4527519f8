"""Dense tensor core with reverse-mode automatic differentiation.

Every numeric operation of the pipeline lives here. Each op computes its
result eagerly with numpy and, when any input requires gradients, attaches
a closure that pushes the output gradient back to its parents. ``backward``
walks the resulting graph once, in reverse topological order.

Besides the generic algebra, two fused ops carry the model's hot loops:
``conv1d_same`` is one im2col matmul forward and one transposed-conv matmul
backward, and ``lstm`` runs a whole LSTM direction (every step's gates and
cell update) over sequences packed one after another, with a hand-written
backpropagation through time, fed by an input projection computed once
for all steps.

Design constraints:
  - 2-d matrices are the working currency; no broadcasting beyond the
    per-column bias of ``linear``/``add_bias``/``lstm``. Other
    mismatches raise ``DimensionError`` to catch wiring bugs early.
  - Gradients are allocated lazily: a tensor's first contribution becomes
    its gradient (copied when it is a view or a broadcast), later ones add.
  - Every op output and every leaf gradient is checked for NaN/inf, so a
    divergence surfaces as ``FloatingPointError`` at the op that made it,
    before saturating activations can hide it.
  - Default dtype is float32; ``precision(64)`` switches it for a block
    (gradient checking runs under it).
  - A graph belongs to one thread; independent graphs may run in parallel.
    The dtype is a context variable, so ``precision`` in one thread never
    changes another thread's tensors; a thread that does not inherit its
    starter's context begins with float32.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError

__all__ = [
    "Tensor",
    "zeros",
    "precision",
    "matmul",
    "linear",
    "conv1d_same",
    "sigmoid",
    "tanh",
    "relu",
    "hadamard",
    "add",
    "add_bias",
    "scale",
    "concat_rows",
    "concat_cols",
    "slice_rows",
    "slice_cols",
    "mean_cols",
    "pool_cols",
    "sum_all",
    "maxpool_steps",
    "pad_stack_time_major",
    "softmax_columns",
    "cross_entropy",
    "lstm",
    "backward",
]

_DTYPES = {32: np.float32, 64: np.float64}
_dtype: ContextVar[type] = ContextVar("emofuse_dtype", default=np.float32)


@contextmanager
def precision(bits: int):
    """Temporarily switch the default tensor dtype (32 or 64 bits) of the
    current context."""
    if bits not in _DTYPES:
        raise ValueError(f"precision must be 32 or 64, got {bits!r}")
    token = _dtype.set(_DTYPES[bits])
    try:
        yield
    finally:
        _dtype.reset(token)


def _check_finite(arr: np.ndarray, where: str) -> None:
    # cheap reduction first; a finite sum implies all entries are finite
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    if not np.isfinite(total) and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values produced by {where}")


class Tensor:
    """A dense float array plus an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn",
                 "_backward_done", "_softmax_src")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype.get())
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], None] | None = None
        self._backward_done = False
        self._softmax_src: Tensor | None = None
        _check_finite(self.data, "tensor construction")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a scalar tensor, shape is {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_dtype.get()), requires_grad=requires_grad)


def _result(data: np.ndarray, parents: tuple[Tensor, ...],
            grad_fn: Callable[[np.ndarray], None], name: str) -> Tensor:
    _check_finite(data, name)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward_done = False
    out._softmax_src = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to t. The first becomes t's gradient if it
    is a fresh array of t's dtype, else a copy (of a view, a broadcast, a
    scalar); an op passing its own gradient on hands over the view g[...]."""
    if t.grad is not None:
        t.grad += g
    elif isinstance(g, np.ndarray) and g.flags.owndata and g.dtype == t.data.dtype:
        t.grad = g
    else:
        t.grad = np.array(g, dtype=t.data.dtype)


def _grad_buffer(t: Tensor) -> np.ndarray:
    """t's gradient, zeros at first, for ops that add into part of it."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _need_2d(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise DimensionError(f"{op} expects a 2-d tensor, got shape {t.shape}")


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [r×k] and b [k×c]."""
    _need_2d(a, "matmul")
    _need_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _result(out_data, (a, b), grad_fn, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """weight [out×in] @ x [in×m] plus bias [out] broadcast per column."""
    _need_2d(x, "linear")
    _need_2d(weight, "linear")
    if weight.shape[1] != x.shape[0]:
        raise DimensionError(f"linear shapes disagree: weight {weight.shape}, x {x.shape}")
    if bias.data.ndim != 1 or bias.shape[0] != weight.shape[0]:
        raise DimensionError(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
    out_data = weight.data @ x.data + bias.data[:, None]

    def grad_fn(g: np.ndarray) -> None:
        if weight.requires_grad:
            _accumulate(weight, g @ x.data.T)
        if x.requires_grad:
            _accumulate(x, weight.data.T @ g)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=1))

    return _result(out_data, (x, weight, bias), grad_fn, "linear")


def conv1d_same(x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """1-d convolution over x [cin×n] with stride 1 and zero padding that
    preserves the sequence length (pad_left = (k−1)//2, pad_right = k//2)."""
    _need_2d(x, "conv1d_same")
    if filters.data.ndim != 3:
        raise DimensionError(f"conv1d_same filters must be [cout×cin×k], got {filters.shape}")
    cin, n = x.shape
    cout, f_cin, k = filters.shape
    if cin < 1 or n < 1 or k < 1 or cout < 1:
        raise DimensionError(f"conv1d_same dims must be positive: x {x.shape}, filters {filters.shape}")
    if f_cin != cin:
        raise DimensionError(f"conv1d_same channel mismatch: x {x.shape}, filters {filters.shape}")
    if bias.data.ndim != 1 or bias.shape[0] != cout:
        raise DimensionError(f"conv1d_same bias shape {bias.shape} does not match cout {cout}")

    pad_left = (k - 1) // 2
    xp = _pad_cols(x.data, pad_left, k - 1 - pad_left)
    w2 = filters.data.reshape(cout, cin * k)
    out_data = w2 @ _im2col(xp, k, n) + bias.data[:, None]

    def grad_fn(g: np.ndarray) -> None:
        if filters.requires_grad:
            # rebuilt here rather than kept from the forward pass: the
            # [cin·k × n] copy would otherwise live as long as the graph
            _accumulate(filters, (g @ _im2col(xp, k, n).T).reshape(cout, cin, k))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=1))
        if x.requires_grad:
            # transposed conv: dx[c, s] = Σ_o Σ_j w[o, c, k−1−j]·gp[o, s + j]
            # with g padded by the mirrored amounts
            w_flip = filters.data[:, :, ::-1].transpose(1, 0, 2).reshape(cin, cout * k)
            gp = _pad_cols(g, k - 1 - pad_left, pad_left)
            _accumulate(x, w_flip @ _im2col(gp, k, n))

    return _result(out_data, (x, filters, bias), grad_fn, "conv1d_same")


def _pad_cols(a: np.ndarray, left: int, right: int) -> np.ndarray:
    out = np.zeros((a.shape[0], left + a.shape[1] + right), dtype=a.dtype)
    out[:, left:left + a.shape[1]] = a
    return out


def _im2col(ap: np.ndarray, k: int, n: int) -> np.ndarray:
    """cols[c·k + j, t] = ap[c, t + j] for a padded ap [c × (n + k − 1)]."""
    s0, s1 = ap.strides
    windows = np.lib.stride_tricks.as_strided(ap, shape=(ap.shape[0], k, n), strides=(s0, s1, s1))
    return windows.reshape(ap.shape[0] * k, n)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function as ½·tanh(a/2) + ½: one bounded transcendental
    pass, with no exponential that can overflow."""
    y = np.tanh(0.5 * a)
    y *= 0.5
    y += 0.5
    return y


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, g * y * (1.0 - y))

    return _result(y, (x,), grad_fn, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, g * (1.0 - y * y))

    return _result(y, (x,), grad_fn, "tanh")


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0))

    return _result(y, (x,), grad_fn, "relu")


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"hadamard shapes differ: {a.shape} vs {b.shape}")
    out_data = a.data * b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _result(out_data, (a, b), grad_fn, "hadamard")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g[...])
        if b.requires_grad:
            _accumulate(b, g[...])

    return _result(out_data, (a, b), grad_fn, "add")


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add bias [d] to every column of x [d×m]."""
    _need_2d(x, "add_bias")
    if bias.data.ndim != 1 or bias.shape[0] != x.shape[0]:
        raise DimensionError(f"add_bias shapes differ: x {x.shape}, bias {bias.shape}")
    out_data = x.data + bias.data[:, None]

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g[...])
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=1))

    return _result(out_data, (x, bias), grad_fn, "add_bias")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, g * c)

    return _result(x.data * c, (x,), grad_fn, "scale")


def concat_rows(*tensors: Tensor) -> Tensor:
    """Stack tensors vertically; all must share the column count."""
    return _concat(tensors, 0, "concat_rows")


def concat_cols(*tensors: Tensor) -> Tensor:
    """Place tensors side by side; all must share the row count."""
    return _concat(tensors, 1, "concat_cols")


def _concat(tensors: tuple[Tensor, ...], axis: int, name: str) -> Tensor:
    if not tensors:
        raise ValueError(f"{name} needs at least one tensor")
    for t in tensors:
        _need_2d(t, name)
        if t.shape[1 - axis] != tensors[0].shape[1 - axis]:
            kept = "column" if axis == 0 else "row"
            raise DimensionError(f"{name} {kept} counts differ: {[t.shape for t in tensors]}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def grad_fn(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accumulate(t, g[lo:hi] if axis == 0 else g[:, lo:hi])

    return _result(out_data, tuple(tensors), grad_fn, name)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    _need_2d(x, "slice_rows")
    if not 0 <= start < stop <= x.shape[0]:
        raise ValueError(f"slice_rows [{start}:{stop}] out of range for shape {x.shape}")

    def grad_fn(g: np.ndarray) -> None:
        _grad_buffer(x)[start:stop, :] += g

    return _result(x.data[start:stop, :], (x,), grad_fn, "slice_rows")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    _need_2d(x, "slice_cols")
    if not 0 <= start < stop <= x.shape[1]:
        raise ValueError(f"slice_cols [{start}:{stop}] out of range for shape {x.shape}")

    def grad_fn(g: np.ndarray) -> None:
        _grad_buffer(x)[:, start:stop] += g

    return _result(x.data[:, start:stop], (x,), grad_fn, "slice_cols")


def mean_cols(x: Tensor, spans: Sequence[tuple[int, int]] | None = None) -> Tensor:
    """Column b of the [d × len(spans)] result is the mean of the columns
    spans[b][0] .. spans[b][1] − 1 of x [d×m]; one span covers all by default."""
    _need_2d(x, "mean_cols")
    spans = [(0, x.shape[1])] if spans is None else [(int(lo), int(hi)) for lo, hi in spans]
    if not spans or any(not 0 <= lo < hi <= x.shape[1] for lo, hi in spans):
        raise ValueError(f"mean_cols: spans {spans} do not fit shape {x.shape}")
    out_data = np.empty((x.shape[0], len(spans)), dtype=x.data.dtype)
    for b, (lo, hi) in enumerate(spans):
        out_data[:, b] = x.data[:, lo:hi].mean(axis=1)

    def grad_fn(g: np.ndarray) -> None:
        for b, (lo, hi) in enumerate(spans):
            _grad_buffer(x)[:, lo:hi] += g[:, b:b + 1] / (hi - lo)

    return _result(out_data, (x,), grad_fn, "mean_cols")


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, returned as a scalar tensor."""
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _result(out_data, (x,), grad_fn, "sum_all")


def _gather_sum(src: np.ndarray, targets: np.ndarray, sources: np.ndarray,
                weights: np.ndarray, n_out: int) -> np.ndarray:
    """[d × n_out]: column t sums weights[e]·src[:, sources[e]] over the
    entries e with targets[e] = t, in entry order. The k-th entry of every
    target is gathered at once (a zero column pads targets with fewer); the
    loop is over k."""
    order = np.argsort(targets, kind="stable")
    targets, sources, weights = targets[order], sources[order], weights[order]
    counts = np.bincount(targets, minlength=n_out)
    offset = np.arange(targets.size) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.full((int(counts.max(initial=0)), n_out), src.shape[1])
    index[offset, targets] = sources
    scale = np.zeros(index.shape, dtype=src.dtype)
    scale[offset, targets] = weights
    padded = np.concatenate([src, np.zeros((src.shape[0], 1), dtype=src.dtype)], axis=1)
    gathered = np.take(padded, index, axis=1)  # [d × depth × n_out], C order
    gathered *= scale
    out = np.zeros((src.shape[0], n_out), dtype=src.dtype)
    for k in range(index.shape[0]):
        out += gathered[:, k]
    return out


def pool_cols(x: Tensor, cols: np.ndarray, groups: np.ndarray, weights: np.ndarray,
              n_groups: int) -> Tensor:
    """Weighted column sums of x [d×N] into [d × n_groups]: entry e adds
    weights[e]·x[:, cols[e]] to column groups[e], and each column sums its
    entries in the order given, bit-identical to a loop over them. The
    backward pass pools the output gradient back from groups to cols."""
    _need_2d(x, "pool_cols")
    cols, groups = np.asarray(cols, dtype=np.int64), np.asarray(groups, dtype=np.int64)
    weights = np.asarray(weights, dtype=x.data.dtype)
    if not cols.shape == groups.shape == weights.shape == (cols.size,) or cols.size and (
            min(cols.min(), groups.min()) < 0 or cols.max() >= x.shape[1]
            or groups.max() >= n_groups):
        raise ValueError(f"pool_cols: entries do not map {x.shape} into {n_groups} columns")
    out_data = _gather_sum(x.data, groups, cols, weights, n_groups)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, _gather_sum(g, cols, groups, weights, x.shape[1]))

    return _result(out_data, (x,), grad_fn, "pool_cols")


def _packed(lengths: Sequence[int], n_cols: int, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Validated lengths of the sequences packed one after another into
    n_cols columns, and the first column of each."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != n_cols:
        raise ValueError(f"{op}: lengths {lengths} do not split {n_cols} columns into sequences")
    return lengths, np.cumsum(lengths) - lengths


def maxpool_steps(x: Tensor, lengths: Sequence[int]) -> Tensor:
    """Per-sequence max over the steps of a packed x [d × Σ lengths].

    Sequence b owns the lengths[b] columns that follow those of the
    sequences before it; column b of the [d×B] result is their rowwise max,
    ties going to the earliest step.
    """
    _need_2d(x, "maxpool_steps")
    lengths, starts = _packed(lengths, x.shape[1], "maxpool_steps")
    d, batch = x.shape[0], lengths.size
    step = np.arange(x.shape[1]) - np.repeat(starts, lengths)
    stack = np.full((lengths.max(), d, batch), -np.inf, dtype=x.data.dtype)
    stack[step, :, np.repeat(np.arange(batch), lengths)] = x.data.T
    rows = np.arange(d)[:, None]
    cols = starts + stack.argmax(axis=0)  # [d, B], first max wins ties
    out_data = x.data[rows, cols]

    def grad_fn(g: np.ndarray) -> None:
        _grad_buffer(x)[rows, cols] += g

    return _result(out_data, (x,), grad_fn, "maxpool_steps")


def pad_stack_time_major(tensors: Sequence[Tensor], t_max: int) -> Tensor:
    """Pack B matrices [d×m_b] into one [d × t_max·B] tensor, time-major.

    Column t·B + b holds tensors[b][:, t], or zeros once t ≥ m_b. The layout
    makes step t of the whole batch a contiguous column slice. The model
    packs its sequences without padding instead; ``perfbench`` still traces
    this op by name.
    """
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("pad_stack_time_major needs at least one tensor")
    d = tensors[0].shape[0]
    batch = len(tensors)
    for t in tensors:
        _need_2d(t, "pad_stack_time_major")
        if t.shape[0] != d:
            raise DimensionError(
                f"pad_stack_time_major row counts differ: {[t.shape for t in tensors]}")
        if t.shape[1] > t_max:
            raise ValueError(f"tensor has {t.shape[1]} columns, more than t_max={t_max}")
    out_data = np.zeros((d, t_max * batch), dtype=tensors[0].data.dtype)
    for b, t in enumerate(tensors):
        out_data[:, b::batch][:, :t.shape[1]] = t.data

    def grad_fn(g: np.ndarray) -> None:
        for b, t in enumerate(tensors):
            if t.requires_grad:
                _accumulate(t, g[:, b::batch][:, :t.shape[1]])

    return _result(out_data, tensors, grad_fn, "pad_stack_time_major")


def softmax_columns(x: Tensor) -> Tensor:
    """Columnwise softmax with max-subtraction for stability."""
    _need_2d(x, "softmax_columns")
    shifted = x.data - x.data.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=0, keepdims=True)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, y * (g - (y * g).sum(axis=0, keepdims=True)))

    out = _result(y, (x,), grad_fn, "softmax_columns")
    out._softmax_src = x
    return out


def cross_entropy(p: Tensor, y: np.ndarray) -> Tensor:
    """−Σ y·log(p) summed over all columns of p [K×m]; y is one-hot [K×m].

    p must come straight out of ``softmax_columns``: the gradient is routed
    to the logits as (p − y), skipping the numerically fragile −y/p step.
    """
    _need_2d(p, "cross_entropy")
    src = p._softmax_src
    if src is None:
        raise ValueError("cross_entropy expects the output of softmax_columns")
    y = np.asarray(y, dtype=p.data.dtype)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != p.shape:
        raise DimensionError(f"cross_entropy shapes differ: p {p.shape}, y {y.shape}")
    clamped = np.maximum(p.data, 1e-12)
    out_data = np.asarray(-(y * np.log(clamped)).sum(), dtype=p.data.dtype)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(src, g * (p.data - y))

    return _result(out_data, (p,), grad_fn, "cross_entropy")


def lstm(x_proj: Tensor, w_h: Tensor, bias: Tensor, lengths: Sequence[int],
         reverse: bool = False) -> Tensor:
    """One LSTM direction over B packed sequences; returns every step's h.

    x_proj [4H × Σ lengths] is W_x·x for every step of every sequence,
    sequence b owning the lengths[b] columns that follow those of the
    sequences before it. w_h [4H×H] and bias [4H] complete each step's
    pre-activation (W_x·x + W_h·h) + b, whose row blocks are the input,
    forget, candidate and output gates. The state starts at zero and walks
    each sequence from its first column, or from its last when reverse is
    set. The result [H × Σ lengths] has the input's layout. Step t computes
    only the sequences longer than t, so no column is ever padded.

    The backward pass is hand-written backpropagation through time: only
    the W_hᵀ·d_pre recurrence runs per step; the gradients of x_proj, w_h
    and bias are read off the [4H × Σ lengths] pre-activation gradient.
    """
    _need_2d(x_proj, "lstm")
    _need_2d(w_h, "lstm")
    hidden = w_h.shape[1]
    if hidden < 1 or w_h.shape[0] != 4 * hidden or x_proj.shape[0] != 4 * hidden:
        raise DimensionError(f"lstm shapes disagree: x_proj {x_proj.shape}, w_h {w_h.shape}")
    if bias.data.ndim != 1 or bias.shape[0] != 4 * hidden:
        raise DimensionError(f"lstm bias shape {bias.shape} does not match w_h {w_h.shape}")
    lengths, starts = _packed(lengths, x_proj.shape[1], "lstm")
    n_cols, dtype = x_proj.shape[1], x_proj.data.dtype

    state = np.zeros((2 * hidden, lengths.size), dtype=dtype)  # h over c per sequence
    out_data = np.empty((hidden, n_cols), dtype=dtype)
    cells = np.empty((hidden, n_cols), dtype=dtype)
    saved = []
    steps = range(lengths.max())
    for t in (reversed(steps) if reverse else steps):
        cols = np.flatnonzero(lengths > t)
        at = starts[cols] + t
        h, c = state[:hidden, cols], state[hidden:, cols]
        pre = (x_proj.data[:, at] + w_h.data @ h) + bias.data[:, None]
        gate_in = _sigmoid(pre[:hidden])
        gate_forget = _sigmoid(pre[hidden:2 * hidden])
        candidate = np.tanh(pre[2 * hidden:3 * hidden])
        gate_out = _sigmoid(pre[3 * hidden:])
        c_new = gate_in * candidate + gate_forget * c
        tanh_c = np.tanh(c_new)
        h_new = gate_out * tanh_c
        out_data[:, at] = h_new
        cells[:, at] = c_new
        state[:hidden, cols] = h_new
        state[hidden:, cols] = c_new
        saved.append((cols, at, h, c, gate_in, gate_forget, candidate, gate_out, tanh_c))
    # tanh would hide a non-finite cell state from the output's check
    _check_finite(cells, "lstm")

    def grad_fn(g: np.ndarray) -> None:
        d_pre = np.empty((4 * hidden, n_cols), dtype=dtype)
        h_prev = np.empty((hidden, n_cols), dtype=dtype)
        d_state = np.zeros((2 * hidden, lengths.size), dtype=dtype)
        for cols, at, h, c, gate_in, gate_forget, candidate, gate_out, tanh_c in reversed(saved):
            g_h = g[:, at] + d_state[:hidden, cols]
            d_c = d_state[hidden:, cols] + g_h * gate_out * (1.0 - tanh_c * tanh_c)
            d_step = np.concatenate([
                d_c * candidate * gate_in * (1.0 - gate_in),
                d_c * c * gate_forget * (1.0 - gate_forget),
                d_c * gate_in * (1.0 - candidate * candidate),
                g_h * tanh_c * gate_out * (1.0 - gate_out),
            ])
            d_pre[:, at] = d_step
            h_prev[:, at] = h
            d_state[:hidden, cols] = w_h.data.T @ d_step
            d_state[hidden:, cols] = d_c * gate_forget
        if x_proj.requires_grad:
            _accumulate(x_proj, d_pre)
        if w_h.requires_grad:
            _accumulate(w_h, d_pre @ h_prev.T)
        if bias.requires_grad:
            _accumulate(bias, d_pre.sum(axis=1))

    return _result(out_data, (x_proj, w_h, bias), grad_fn, "lstm")


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Fill ``grad`` on every tensor with requires_grad that the loss's
    gradient reaches.

    Gradients accumulate across calls on *different* graphs; calling twice
    on the same loss raises, since that would double-count.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran on this loss; rebuild the graph first")
    loss._backward_done = True
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        # a node no contribution reached (a softmax that cross_entropy
        # bypasses) has no gradient to pass on
        if node._grad_fn is not None and node.grad is not None:
            node._grad_fn(node.grad)
    for node in order:
        # leaf gradients are where every chain ends; a NaN anywhere upstream
        # lands here, so checking leaves covers the whole pass
        if node._grad_fn is None and node.grad is not None:
            _check_finite(node.grad, "backward")
