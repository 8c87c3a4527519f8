"""Dense tensor core with reverse-mode automatic differentiation.

Every numeric operation of the pipeline lives here. Each op computes its
result eagerly with numpy and, when any input requires gradients, attaches
a closure that pushes the output gradient back to its parents. ``backward``
walks the resulting graph once, in reverse topological order.

Besides the generic algebra, two fused ops carry the model's hot loops:
``conv1d_same`` is one im2col matmul forward and one transposed-conv matmul
backward, and ``lstm_cell`` is a whole LSTM step (gates, cell update and
the carry of padded columns) with a hand-written backward, fed by an input
projection computed once for all steps.

Design constraints:
  - 2-d matrices are the working currency; no broadcasting beyond the
    per-column bias of ``linear``/``add_bias``/``lstm_cell``. Other
    mismatches raise ``DimensionError`` to catch wiring bugs early.
  - Default dtype is float32; gradient checking runs under ``precision(64)``.
  - A graph belongs to one thread; independent graphs may run in parallel.
    The default dtype and the finite-check switch are context variables,
    so ``precision`` in one thread never changes another thread's tensors;
    a thread that does not inherit its starter's context begins with the
    defaults (float32, checks on).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "full",
    "set_default_dtype",
    "default_dtype",
    "precision",
    "set_finite_checks",
    "matmul",
    "linear",
    "conv1d_same",
    "elementwise",
    "sigmoid",
    "tanh",
    "relu",
    "hadamard",
    "add",
    "add_bias",
    "scale",
    "concat_rows",
    "concat_cols",
    "take_cols",
    "slice_rows",
    "slice_cols",
    "reshape",
    "mean_cols",
    "sum_all",
    "maxpool_time",
    "maxpool_steps",
    "pad_stack_time_major",
    "softmax_columns",
    "cross_entropy",
    "lstm_cell",
    "backward",
    "zero_grads",
]

_DTYPES = {32: np.float32, 64: np.float64}
_dtype: ContextVar[type] = ContextVar("emofuse_dtype", default=np.float32)
_finite_checks: ContextVar[bool] = ContextVar("emofuse_finite_checks", default=True)


def _bits_to_dtype(bits: int) -> type:
    if bits not in _DTYPES:
        raise ValueError(f"precision must be 32 or 64, got {bits!r}")
    return _DTYPES[bits]


def set_default_dtype(bits: int) -> None:
    """Set the dtype used for newly created tensors (32 or 64) in the
    current context (thread)."""
    _dtype.set(_bits_to_dtype(bits))


def default_dtype() -> np.dtype:
    return np.dtype(_dtype.get())


@contextmanager
def precision(bits: int):
    """Temporarily switch the default tensor dtype of the current context."""
    token = _dtype.set(_bits_to_dtype(bits))
    try:
        yield
    finally:
        _dtype.reset(token)


def set_finite_checks(enabled: bool) -> None:
    """Toggle the NaN/inf assertion applied to every op output in the
    current context (thread)."""
    _finite_checks.set(bool(enabled))


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not _finite_checks.get():
        return
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

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return hadamard(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_dtype.get()), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value, dtype=_dtype.get()), requires_grad=requires_grad)


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
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

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
            weight.grad += g @ x.data.T
        if x.requires_grad:
            x.grad += weight.data.T @ g
        if bias.requires_grad:
            bias.grad += g.sum(axis=1)

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
            filters.grad += (g @ _im2col(xp, k, n).T).reshape(cout, cin, k)
        if bias.requires_grad:
            bias.grad += g.sum(axis=1)
        if x.requires_grad:
            # transposed conv: dx[c, s] = Σ_o Σ_j w[o, c, k−1−j]·gp[o, s + j]
            # with g padded by the mirrored amounts
            w_flip = filters.data[:, :, ::-1].transpose(1, 0, 2).reshape(cin, cout * k)
            gp = _pad_cols(g, k - 1 - pad_left, pad_left)
            x.grad += w_flip @ _im2col(gp, k, n)

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


def elementwise(x: Tensor, kind: str) -> Tensor:
    """Pointwise sigmoid, tanh or relu."""
    if kind == "sigmoid":
        y = _sigmoid(x.data)

        def grad_fn(g: np.ndarray) -> None:
            x.grad += g * y * (1.0 - y)

    elif kind == "tanh":
        y = np.tanh(x.data)

        def grad_fn(g: np.ndarray) -> None:
            x.grad += g * (1.0 - y * y)

    elif kind == "relu":
        y = np.maximum(x.data, 0.0)

        def grad_fn(g: np.ndarray) -> None:
            x.grad += g * (x.data > 0)

    else:
        raise ValueError(f"unknown elementwise kind {kind!r}")
    return _result(y, (x,), grad_fn, kind)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function as ½·tanh(a/2) + ½: one bounded transcendental
    pass, with no exponential that can overflow."""
    y = np.tanh(0.5 * a)
    y *= 0.5
    y += 0.5
    return y


def sigmoid(x: Tensor) -> Tensor:
    return elementwise(x, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    return elementwise(x, "tanh")


def relu(x: Tensor) -> Tensor:
    return elementwise(x, "relu")


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"hadamard shapes differ: {a.shape} vs {b.shape}")
    out_data = a.data * b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a.grad += g * b.data
        if b.requires_grad:
            b.grad += g * a.data

    return _result(out_data, (a, b), grad_fn, "hadamard")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g

    return _result(out_data, (a, b), grad_fn, "add")


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add bias [d] to every column of x [d×m]."""
    _need_2d(x, "add_bias")
    if bias.data.ndim != 1 or bias.shape[0] != x.shape[0]:
        raise DimensionError(f"add_bias shapes differ: x {x.shape}, bias {bias.shape}")
    out_data = x.data + bias.data[:, None]

    def grad_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x.grad += g
        if bias.requires_grad:
            bias.grad += g.sum(axis=1)

    return _result(out_data, (x, bias), grad_fn, "add_bias")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g: np.ndarray) -> None:
        x.grad += g * c

    return _result(x.data * c, (x,), grad_fn, "scale")


def concat_rows(*tensors: Tensor) -> Tensor:
    """Stack tensors vertically; all must share the column count."""
    return _concat(tensors, 0, "concat_rows")


def concat_cols(*tensors: Tensor) -> Tensor:
    """Place tensors side by side; all must share the row count."""
    return _concat(tensors, 1, "concat_cols")


def _concat(tensors: tuple[Tensor, ...], axis: int, name: str) -> Tensor:
    if len(tensors) < 2:
        raise ValueError(f"{name} needs at least two tensors")
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
                t.grad += g[lo:hi] if axis == 0 else g[:, lo:hi]

    return _result(out_data, tuple(tensors), grad_fn, name)


def take_cols(x: Tensor, cols: Sequence[int]) -> Tensor:
    """Columns of x [d×n] in the order listed; an index of −1 yields a zero
    column. Gathers a subset of columns, or scatters a narrow matrix into a
    wider layout. Indices other than −1 must be distinct."""
    _need_2d(x, "take_cols")
    cols = np.asarray(cols, dtype=np.int64)
    if cols.ndim != 1 or cols.size == 0 or cols.min() < -1 or cols.max() >= x.shape[1]:
        raise ValueError(f"take_cols indices out of range for shape {x.shape}")
    real = cols >= 0
    src = cols[real]
    if np.unique(src).size != src.size:
        raise ValueError("take_cols indices must be distinct")
    out_data = np.zeros((x.shape[0], cols.size), dtype=x.data.dtype)
    out_data[:, real] = x.data[:, src]

    def grad_fn(g: np.ndarray) -> None:
        x.grad[:, src] += g[:, real]

    return _result(out_data, (x,), grad_fn, "take_cols")


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    _need_2d(x, "slice_rows")
    if not 0 <= start < stop <= x.shape[0]:
        raise ValueError(f"slice_rows [{start}:{stop}] out of range for shape {x.shape}")

    def grad_fn(g: np.ndarray) -> None:
        x.grad[start:stop, :] += g

    return _result(x.data[start:stop, :], (x,), grad_fn, "slice_rows")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    _need_2d(x, "slice_cols")
    if not 0 <= start < stop <= x.shape[1]:
        raise ValueError(f"slice_cols [{start}:{stop}] out of range for shape {x.shape}")

    def grad_fn(g: np.ndarray) -> None:
        x.grad[:, start:stop] += g

    return _result(x.data[:, start:stop], (x,), grad_fn, "slice_cols")


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def grad_fn(g: np.ndarray) -> None:
        x.grad += g.reshape(x.shape)

    return _result(x.data.reshape(shape), (x,), grad_fn, "reshape")


def mean_cols(x: Tensor) -> Tensor:
    """Mean over columns of x [d×m], returned as [d×1]."""
    _need_2d(x, "mean_cols")
    m = x.shape[1]
    out_data = x.data.mean(axis=1, keepdims=True)

    def grad_fn(g: np.ndarray) -> None:
        x.grad += np.broadcast_to(g / m, x.shape)

    return _result(out_data, (x,), grad_fn, "mean_cols")


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, returned as a scalar tensor."""
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def grad_fn(g: np.ndarray) -> None:
        x.grad += np.broadcast_to(g, x.shape)

    return _result(out_data, (x,), grad_fn, "sum_all")


def maxpool_time(h: Tensor, valid_len: int) -> Tensor:
    """Per-row maximum of h [d×m] over the first valid_len columns.

    Gradient routes to one argmax position per row; ties go to the lowest
    time index. Columns beyond valid_len never affect the result.
    """
    _need_2d(h, "maxpool_time")
    d, m = h.shape
    if not 1 <= valid_len <= m:
        raise ValueError(f"valid_len {valid_len} out of range for {m} columns")
    region = h.data[:, :valid_len]
    idx = region.argmax(axis=1)  # first occurrence wins ties
    out_data = region[np.arange(d), idx]

    def grad_fn(g: np.ndarray) -> None:
        np.add.at(h.grad, (np.arange(d), idx), g)

    return _result(out_data, (h,), grad_fn, "maxpool_time")


def maxpool_steps(steps: Sequence[Tensor], lengths: Sequence[int]) -> Tensor:
    """Columnwise max over a sequence of [d×B] step tensors.

    Column b pools steps[t][:, b] for t < lengths[b]; ties go to the lowest
    step index. Used to max-pool a batch of padded sequences in one op.
    """
    steps = tuple(steps)
    if not steps:
        raise ValueError("maxpool_steps needs at least one step")
    d, batch = steps[0].shape
    for t in steps:
        if t.shape != (d, batch):
            raise DimensionError(f"maxpool_steps step shapes differ: {[t.shape for t in steps]}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > len(steps):
        raise ValueError(f"lengths {lengths} invalid for {len(steps)} steps, batch {batch}")

    stack = np.stack([t.data for t in steps])  # [T, d, B]
    invalid = np.arange(len(steps))[:, None] >= lengths[None, :]  # [T, B]
    stack = np.where(invalid[:, None, :], -np.inf, stack)
    idx = stack.argmax(axis=0)  # [d, B], first max wins ties
    out_data = np.take_along_axis(stack, idx[None], axis=0)[0]

    def grad_fn(g: np.ndarray) -> None:
        for t, step in enumerate(steps):
            if step.requires_grad:
                step.grad += g * (idx == t)

    return _result(out_data, steps, grad_fn, "maxpool_steps")


def pad_stack_time_major(tensors: Sequence[Tensor], t_max: int) -> Tensor:
    """Pack B matrices [d×m_b] into one [d × t_max·B] tensor, time-major.

    Column t·B + b holds tensors[b][:, t], or zeros once t ≥ m_b. The layout
    makes step t of the whole batch a contiguous column slice.
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
                t.grad += g[:, b::batch][:, :t.shape[1]]

    return _result(out_data, tensors, grad_fn, "pad_stack_time_major")


def softmax_columns(x: Tensor) -> Tensor:
    """Columnwise softmax with max-subtraction for stability."""
    _need_2d(x, "softmax_columns")
    shifted = x.data - x.data.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=0, keepdims=True)

    def grad_fn(g: np.ndarray) -> None:
        x.grad += y * (g - (y * g).sum(axis=0, keepdims=True))

    out = _result(y, (x,), grad_fn, "softmax_columns")
    out._softmax_src = x
    return out


def cross_entropy(p: Tensor, y: np.ndarray) -> Tensor:
    """−Σ y·log(p) summed over all columns of p [K×m]; y is one-hot [K×m].

    When p came straight out of ``softmax_columns`` the gradient is routed
    to the logits as (p − y), skipping the numerically fragile −y/p step.
    """
    _need_2d(p, "cross_entropy")
    y = np.asarray(y, dtype=p.data.dtype)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != p.shape:
        raise DimensionError(f"cross_entropy shapes differ: p {p.shape}, y {y.shape}")
    col_sums = p.data.sum(axis=0)
    if np.any(np.abs(col_sums - 1.0) > 1e-4):
        raise ValueError("cross_entropy expects probability columns summing to 1")
    clamped = np.maximum(p.data, 1e-12)
    out_data = np.asarray(-(y * np.log(clamped)).sum(), dtype=p.data.dtype)

    src = p._softmax_src
    if src is not None and src.requires_grad:

        def grad_fn(g: np.ndarray) -> None:
            src.grad += g * (p.data - y)

        parents: tuple[Tensor, ...] = (p,)
    else:

        def grad_fn(g: np.ndarray) -> None:
            p.grad += g * (-y / clamped)

        parents = (p,)

    return _result(out_data, parents, grad_fn, "cross_entropy")


def lstm_cell(x_proj: Tensor, state: Tensor, w_h: Tensor, bias: Tensor,
              valid: np.ndarray) -> Tensor:
    """One LSTM step for a batch of B sequences; returns the new [h; c].

    x_proj [4H×B] is W_x·x_t, computed for all steps beforehand; state
    [2H×B] stacks the previous h over the previous c; w_h [4H×H] and bias
    [4H] complete the pre-activation (W_x·x + W_h·h) + b, whose row blocks
    are the input, forget, candidate and output gates. Only the columns
    where valid[b] holds are computed; every other column carries its state
    unchanged, which keeps padded steps invisible.
    """
    _need_2d(x_proj, "lstm_cell")
    _need_2d(state, "lstm_cell")
    _need_2d(w_h, "lstm_cell")
    hidden2, batch = state.shape
    hidden = hidden2 // 2
    if hidden < 1 or hidden2 != 2 * hidden:
        raise DimensionError(f"lstm_cell state must stack h over c, got {state.shape}")
    if x_proj.shape != (4 * hidden, batch) or w_h.shape != (4 * hidden, hidden):
        raise DimensionError(f"lstm_cell shapes disagree: x_proj {x_proj.shape}, "
                             f"state {state.shape}, w_h {w_h.shape}")
    if bias.data.ndim != 1 or bias.shape[0] != 4 * hidden:
        raise DimensionError(f"lstm_cell bias shape {bias.shape} does not match w_h {w_h.shape}")
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != (batch,):
        raise DimensionError(f"lstm_cell valid mask shape {valid.shape}, expected ({batch},)")

    cols = np.flatnonzero(valid)
    h, c = state.data[:hidden, cols], state.data[hidden:, cols]
    pre = (x_proj.data[:, cols] + w_h.data @ h) + bias.data[:, None]
    gate_in = _sigmoid(pre[:hidden])
    gate_forget = _sigmoid(pre[hidden:2 * hidden])
    candidate = np.tanh(pre[2 * hidden:3 * hidden])
    gate_out = _sigmoid(pre[3 * hidden:])
    c_new = gate_in * candidate + gate_forget * c
    tanh_c = np.tanh(c_new)
    out_data = state.data.copy()
    out_data[:hidden, cols] = gate_out * tanh_c
    out_data[hidden:, cols] = c_new

    def grad_fn(g: np.ndarray) -> None:
        g_h, g_c = g[:hidden, cols], g[hidden:, cols]
        d_c = g_c + g_h * gate_out * (1.0 - tanh_c * tanh_c)
        d_pre = np.concatenate([
            d_c * candidate * gate_in * (1.0 - gate_in),
            d_c * c * gate_forget * (1.0 - gate_forget),
            d_c * gate_in * (1.0 - candidate * candidate),
            g_h * tanh_c * gate_out * (1.0 - gate_out),
        ])
        if x_proj.requires_grad:
            x_proj.grad[:, cols] += d_pre
        if w_h.requires_grad:
            w_h.grad += d_pre @ h.T
        if bias.requires_grad:
            bias.grad += d_pre.sum(axis=1)
        if state.requires_grad:
            d_state = g.copy()                  # padded columns: carried as is
            d_state[:hidden, cols] = w_h.data.T @ d_pre
            d_state[hidden:, cols] = d_c * gate_forget
            state.grad += d_state

    return _result(out_data, (x_proj, state, w_h, bias), grad_fn, "lstm_cell")


def one_hot(label: int, n_classes: int) -> np.ndarray:
    vec = np.zeros(n_classes, dtype=_dtype.get())
    vec[label] = 1.0
    return vec


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
    """Fill ``grad`` on every tensor with requires_grad reachable from loss.

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
    for node in order:
        if node.requires_grad and node.grad is None:
            node.grad = np.zeros_like(node.data)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(order):
        if node._grad_fn is not None:
            node._grad_fn(node.grad)
    for node in order:
        # leaf gradients are where every chain ends; a NaN anywhere upstream
        # lands here, so checking leaves covers the whole pass
        if node._grad_fn is None and node.grad is not None:
            _check_finite(node.grad, "backward")


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()
