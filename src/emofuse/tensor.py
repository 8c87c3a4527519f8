"""Dense tensor core with reverse-mode automatic differentiation.

Every numeric operation of the pipeline lives here. Each op computes its
result eagerly with numpy and, when any input requires gradients, attaches
a closure that pushes the output gradient back to its parents. ``backward``
walks the resulting graph once, in reverse topological order.

Besides the generic algebra, three fused ops carry the model's hot loops:
``conv1d_same`` is im2col matmuls over blocks of ``CONV_BLOCK`` columns,
forward and (as a transposed conv) backward; ``conv_relu_stack`` runs
relu(conv) layers on them into one stacked output that it pools before
returning (by word entries as ``pool_cols`` takes them, or by spans as
``mean_cols`` does), building its gradient in the stack's own rows; and
``bilstm_max`` runs both LSTM directions over packed sequences, sorted
longest first so each step is one block of rows, max-pooling as it goes,
with one input projection per direction and a hand-written
backpropagation through time.

Design constraints:
  - 2-d matrices are the working currency; no broadcasting beyond the
    per-column bias of ``linear``/``add_bias``/``bilstm_max``. Other
    mismatches raise ``DimensionError`` to catch wiring bugs early.
  - Gradients are allocated lazily: a tensor's first contribution becomes
    its gradient (copied when it is a view or a broadcast), later ones add.
  - ``backward`` releases each node once its gradient has passed on, so what
    no caller holds dies during the pass; a graph runs backward once.
  - Every op output and every leaf gradient is checked for NaN/inf, so a
    divergence surfaces as ``FloatingPointError`` at the op that made it,
    before saturating activations can hide it.
  - Default dtype is float32; ``precision(64)``, the one dtype switch,
    changes it for a block (gradient checking runs under it). Training and
    inference run in the dtype current where they are called.
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
    "precision",
    "matmul",
    "linear",
    "conv1d_same",
    "conv_relu_stack",
    "sigmoid",
    "tanh",
    "relu",
    "hadamard",
    "add",
    "add_bias",
    "concat_rows",
    "slice_rows",
    "slice_cols",
    "mean_cols",
    "pool_cols",
    "sum_all",
    "maxpool_steps",
    "pad_stack_time_major",
    "softmax_columns",
    "cross_entropy",
    "bilstm_max",
    "backward",
]

_DTYPES = {32: np.float32, 64: np.float64}
CONV_BLOCK = 250  # im2col columns per product: small beside the graph; a 1024 stride thrashes BLAS
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


def default_dtype() -> type:
    """The dtype new tensors take in the current context."""
    return _dtype.get()


def _check_finite(arr: np.ndarray, where: str) -> None:
    if arr.size <= 1 << 16:  # one pass, with no error-state switch to pay for
        finite = np.isfinite(arr).all()
    else:  # a reduction first: a finite sum implies finite entries
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(arr.sum()) or np.all(np.isfinite(arr))
    if not finite:
        raise FloatingPointError(f"non-finite values produced by {where}")


class Tensor:
    """A dense float array plus an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_softmax_src")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype.get())
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], None] | None = None
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


def _result(data: np.ndarray, parents: tuple[Tensor, ...],
            grad_fn: Callable[[np.ndarray], None], name: str) -> Tensor:
    _check_finite(data, name)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
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


def _conv_forward(x: np.ndarray, filters: Tensor, bias: Tensor, op: str,
                  out: np.ndarray | None = None) -> np.ndarray:
    """conv1d_same(x, filters, bias), written into out [cout×n] if given."""
    cin, n = x.shape
    if (filters.data.ndim != 3 or min(cin, n, *filters.shape) < 1 or filters.shape[1] != cin
            or bias.data.ndim != 1 or bias.shape[0] != filters.shape[0]):
        raise DimensionError(f"{op}: x {x.shape}, filters {filters.shape} and bias "
                             f"{bias.shape} do not fit (all dims positive)")
    cout, cin, k = filters.shape
    if out is None:
        out = np.empty((cout, n), np.result_type(x, filters.data, bias.data))
    w2 = filters.data.reshape(cout, cin * k)
    for start, stop, cols in _im2col_blocks(x, k, (k - 1) // 2):
        out[:, start:stop] = w2 @ cols
    out += bias.data[:, None]
    return out


def _conv_param_grads(x: np.ndarray, filters: Tensor, bias: Tensor, g: np.ndarray) -> None:
    """Accumulate the filter and bias gradients of conv1d_same(x, filters,
    bias) for the output gradient g."""
    cout, cin, k = filters.shape
    if filters.requires_grad:
        # the blocks are rebuilt here rather than kept from the forward
        # pass, which would hold a [cin·k × n] copy as long as the graph
        g_w = np.zeros((cout, cin * k), dtype=g.dtype)
        for start, stop, cols in _im2col_blocks(x, k, (k - 1) // 2):
            g_w += g[:, start:stop] @ cols.T
        _accumulate(filters, g_w.reshape(cout, cin, k))
    if bias.requires_grad:
        _accumulate(bias, g.sum(axis=1))


def _conv_input_grad(filters: Tensor, g: np.ndarray, g_x: np.ndarray) -> None:
    """Add the input gradient of conv1d_same for the output gradient g into
    g_x: a transposed conv, dx[c, s] = Σ_o Σ_j w[o, c, k−1−j]·gp[o, s + j]
    with g padded by the mirrored amounts."""
    cout, cin, k = filters.shape
    w_flip = filters.data[:, :, ::-1].transpose(1, 0, 2).reshape(cin, cout * k)
    for start, stop, cols in _im2col_blocks(g, k, k // 2):
        g_x[:, start:stop] += w_flip @ cols


def conv1d_same(x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """1-d convolution over x [cin×n] with stride 1 and zero padding that
    preserves the sequence length (pad_left = (k−1)//2, pad_right = k//2).
    Every product unrolls ``CONV_BLOCK`` columns at a time (im2col), so no
    [cin·k × n] copy of the whole input is ever made."""
    _need_2d(x, "conv1d_same")
    out_data = _conv_forward(x.data, filters, bias, "conv1d_same")

    def grad_fn(g: np.ndarray) -> None:
        _conv_param_grads(x.data, filters, bias, g)
        if x.requires_grad:
            _conv_input_grad(filters, g, _grad_buffer(x))

    return _result(out_data, (x, filters, bias), grad_fn, "conv1d_same")


def conv_relu_stack(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]], keep: np.ndarray,
                    *, entries: tuple | None = None,
                    spans: Sequence[tuple[int, int]] | None = None) -> Tensor:
    """relu(conv1d_same) layers, each (filters, bias), in turn over x [cin×n],
    pooled: each layer writes its rows of one [Σ cout × n] stack and reads
    the rows of the layer before; keep, a 0/1 weight per column, zeroes the
    dropped columns of every layer but the last. Exactly one of entries
    (cols, groups, weights, n_groups) or spans is given, and the result
    pools the stack by it bit for bit as ``pool_cols`` or ``mean_cols``
    would. The stack never leaves the op: the backward builds each layer's
    gradient in the layer's own rows, top layer first, once the layer above
    has read them for its filter gradient, so no second [Σ cout × n] array
    is made."""
    _need_2d(x, "conv_relu_stack")
    if np.shape(keep) != (x.shape[1],):
        raise DimensionError(f"conv_relu_stack keep {np.shape(keep)} does not fit x {x.shape}")
    if (entries is None) == (spans is None):
        raise ValueError("conv_relu_stack pools by exactly one of entries or spans")
    weights = tuple(t for layer in layers for t in layer)
    rows = np.cumsum([0] + [bias.data.size for _, bias in layers])  # cout, once checked
    out_data = np.empty((rows[-1], x.shape[1]), np.result_type(x.data, *(t.data for t in weights)))
    if entries is not None:
        cols, groups, pool_weights, n_groups = _checked_entries(
            *entries, out_data.shape, out_data.dtype, "conv_relu_stack")
    else:
        spans = _checked_spans(spans, out_data.shape, "conv_relu_stack")
    blocks = [out_data[lo:hi] for lo, hi in zip(rows[:-1], rows[1:])]
    inputs = [x.data] + blocks
    for (filters, bias), h, src in zip(layers, blocks, inputs):
        _conv_forward(src, filters, bias, "conv_relu_stack", h)
        _check_finite(h, "conv_relu_stack")  # before relu can hide a −inf
        np.maximum(h, 0.0, out=h)
        if h is not blocks[-1]:
            h *= keep
    if entries is not None:
        result = _gather_sum(out_data, _gather_plan(groups, cols, pool_weights, n_groups,
                                                    out_data.dtype))
    else:
        result = _span_means(out_data, spans)

    def grad_fn(g: np.ndarray) -> None:
        if entries is not None:
            plan = _gather_plan(cols, groups, pool_weights, x.shape[1], g.dtype)

        def begin(i: int) -> np.ndarray:
            """Layer i's relu mask, read before its pooled gradient lands."""
            mask = blocks[i] > 0
            if entries is not None:
                _gather_sum(g[rows[i]:rows[i + 1]], plan, out=blocks[i])
            else:
                blocks[i][...] = 0.0
                _add_span_grads(g[rows[i]:rows[i + 1]], spans, blocks[i])
            return mask

        mask = begin(len(layers) - 1)
        for i in reversed(range(len(layers))):
            # whole now: the layer after has added its input gradient
            if i < len(layers) - 1:
                blocks[i] *= keep
            blocks[i] *= mask
            _conv_param_grads(inputs[i], *layers[i], blocks[i])
            if i:
                mask = begin(i - 1)
                _conv_input_grad(layers[i][0], blocks[i], blocks[i - 1])
            elif x.requires_grad:
                _conv_input_grad(layers[0][0], blocks[0], _grad_buffer(x))

    return _result(result, (x, *weights), grad_fn, "conv_relu_stack")


def _im2col_blocks(a: np.ndarray, k: int, left: int):
    """Yield (start, stop, cols) per block of CONV_BLOCK columns of a [c×n]:
    cols[c·k + j, t] = a[c, start + t + j − left], zero outside a, in one
    buffer that the next block overwrites; only the edge blocks pad."""
    c, n = a.shape
    cols = np.empty((c, k, min(n, CONV_BLOCK)), dtype=a.dtype)
    for start in range(0, n, CONV_BLOCK):
        width = min(CONV_BLOCK, n - start)
        lo, hi = start - left, start + width + k - 1 - left  # the columns of a it reads
        if lo < 0 or hi > n:
            window = np.zeros((c, hi - lo), dtype=a.dtype)
            window[:, max(0, -lo):min(hi, n) - lo] = a[:, max(0, lo):min(hi, n)]
        else:
            window = a[:, lo:hi]
        s0, s1 = window.strides
        cols[:, :, :width] = np.lib.stride_tricks.as_strided(window, (c, k, width), (s0, s1, s1))
        yield start, start + width, cols.reshape(c * k, -1)[:, :width]


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


def concat_rows(*tensors: Tensor) -> Tensor:
    """Stack tensors vertically; all must share the column count."""
    if not tensors:
        raise ValueError("concat_rows needs at least one tensor")
    for t in tensors:
        _need_2d(t, "concat_rows")
        if t.shape[1] != tensors[0].shape[1]:
            raise DimensionError(f"concat_rows column counts differ: {[t.shape for t in tensors]}")
    out_data = np.concatenate([t.data for t in tensors], axis=0)
    offsets = np.cumsum([0] + [t.shape[0] for t in tensors])

    def grad_fn(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accumulate(t, g[lo:hi])

    return _result(out_data, tuple(tensors), grad_fn, "concat_rows")


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


def _checked_spans(spans: Sequence[tuple[int, int]], shape: tuple[int, ...],
                   op: str) -> list[tuple[int, int]]:
    spans = [(int(lo), int(hi)) for lo, hi in spans]
    if not spans or any(not 0 <= lo < hi <= shape[1] for lo, hi in spans):
        raise ValueError(f"{op}: spans {spans} do not fit shape {shape}")
    return spans


def _span_means(src: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    out = np.empty((src.shape[0], len(spans)), dtype=src.dtype)
    for b, (lo, hi) in enumerate(spans):
        out[:, b] = src[:, lo:hi].mean(axis=1)
    return out


def _add_span_grads(g: np.ndarray, spans: list[tuple[int, int]], out: np.ndarray) -> None:
    """Add the gradient of ``_span_means`` for its output gradient g into out."""
    for b, (lo, hi) in enumerate(spans):
        out[:, lo:hi] += g[:, b:b + 1] / (hi - lo)


def mean_cols(x: Tensor, spans: Sequence[tuple[int, int]]) -> Tensor:
    """Column b of the [d × len(spans)] result is the mean of the columns
    spans[b][0] .. spans[b][1] − 1 of x [d×m]."""
    _need_2d(x, "mean_cols")
    spans = _checked_spans(spans, x.shape, "mean_cols")

    def grad_fn(g: np.ndarray) -> None:
        _add_span_grads(g, spans, _grad_buffer(x))

    return _result(_span_means(x.data, spans), (x,), grad_fn, "mean_cols")


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, returned as a scalar tensor."""
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _result(out_data, (x,), grad_fn, "sum_all")


def _gather_plan(targets: np.ndarray, sources: np.ndarray, weights: np.ndarray,
                 n_out: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(index, scale), both [depth × n_out]: row k holds the source column
    and weight of each target's k-th entry, in entry order; weight 0 pads
    targets with fewer entries."""
    order = np.argsort(targets, kind="stable")
    targets, sources, weights = targets[order], sources[order], weights[order]
    counts = np.bincount(targets, minlength=n_out)
    offset = np.arange(targets.size) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.zeros((int(counts.max(initial=0)), n_out), dtype=np.int64)
    index[offset, targets] = sources
    scale = np.zeros(index.shape, dtype=dtype)
    scale[offset, targets] = weights
    return index, scale


def _gather_sum(src: np.ndarray, plan: tuple[np.ndarray, np.ndarray],
                out: np.ndarray | None = None) -> np.ndarray:
    """[d × n_out], written into out if given: column t sums
    scale[k, t]·src[:, index[k, t]] over k in order. Every target's first
    entry is gathered straight into the output, the others all at once,
    and the loop over k adds them."""
    index, scale = plan
    if out is None:
        out = np.empty((src.shape[0], index.shape[1]), dtype=src.dtype)
    if not index.size:  # no entries
        out[...] = 0.0
        return out
    np.take(src, index[0], axis=1, out=out, mode="clip")  # "raise" would buffer out
    out *= scale[0]
    rest = np.take(src, index[1:], axis=1)  # [d × depth − 1 × n_out], C order
    rest *= scale[1:]
    for k in range(rest.shape[1]):
        out += rest[:, k]
    return out


def _checked_entries(cols, groups, weights, n_groups: int, shape: tuple[int, ...], dtype,
                     op: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    cols, groups = np.asarray(cols, dtype=np.int64), np.asarray(groups, dtype=np.int64)
    weights = np.asarray(weights, dtype=dtype)
    if not cols.shape == groups.shape == weights.shape == (cols.size,) or cols.size and (
            min(cols.min(), groups.min()) < 0 or cols.max() >= shape[1]
            or groups.max() >= n_groups):
        raise ValueError(f"{op}: entries do not map {shape} into {n_groups} columns")
    return cols, groups, weights, n_groups


def pool_cols(x: Tensor, cols: np.ndarray, groups: np.ndarray, weights: np.ndarray,
              n_groups: int) -> Tensor:
    """Weighted column sums of x [d×N] into [d × n_groups]: entry e adds
    weights[e]·x[:, cols[e]] to column groups[e], and each column sums its
    entries in the order given, bit-identical to a loop over them. The
    backward pass pools the output gradient back from groups to cols."""
    _need_2d(x, "pool_cols")
    cols, groups, weights, n_groups = _checked_entries(cols, groups, weights, n_groups, x.shape,
                                                       x.data.dtype, "pool_cols")
    out_data = _gather_sum(x.data, _gather_plan(groups, cols, weights, n_groups, x.data.dtype))

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, _gather_sum(g, _gather_plan(cols, groups, weights, x.shape[1], g.dtype)))

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


def bilstm_max(g: Tensor, fw: Sequence[Tensor], bw: Sequence[Tensor],
               lengths: Sequence[int]) -> Tensor:
    """BiLSTM states of B packed sequences, max-pooled over each one's steps.

    g [D × Σ lengths] holds the sequences one after another; fw and bw hold
    each direction's (W_x [4H×D], W_h [4H×H], b [4H]). A step's
    pre-activation (W_x·x + W_h·h) + b stacks the input, forget, candidate
    and output gates; the state starts at zero. Column b of the [2H × B]
    result stacks each direction's rowwise max over sequence b, ties going
    to its earliest column. Sorted longest first (stably), step s runs a
    prefix of B_s sequences at rows [off_s, off_s + B_s) of row-major
    [2 × Σ lengths × ·] buffers, reading word s forward and word L − 1 − s
    backward: no step gathers, scatters or pads. The gate buffer holds the
    activations, then the pre-activation gradient.
    """
    _need_2d(g, "bilstm_max")
    weights, hidden = (*fw, *bw), fw[1].shape[-1]
    if hidden < 1 or [t.shape for t in weights] != 2 * [
            (4 * hidden, g.shape[0]), (4 * hidden, hidden), (4 * hidden,)]:
        raise DimensionError(f"bilstm_max: g {g.shape}, weights {[t.shape for t in weights]}")
    lengths, starts = _packed(lengths, g.shape[1], "bilstm_max")
    dtype = np.result_type(g.data, *(t.data for t in weights))
    order, batch, rows = np.argsort(-lengths, kind="stable"), lengths.size, g.shape[1]
    widths = np.bincount(lengths - 1)[::-1].cumsum()[::-1]  # B_s: sequences longer than s
    offsets = np.cumsum(widths) - widths
    if widths.size > 1:
        step = np.repeat(np.arange(widths.size), widths)
        seq = order[np.arange(rows) - offsets[step]]
        cols = (starts[seq] + step, starts[seq] + lengths[seq] - 1 - step)  # g column per row
        xs = [np.take(g.data, c, axis=1) for c in cols]
    else:  # one step: the rows keep the batch order
        cols, xs = (order, order), (g.data, g.data)
    acts = np.empty((2, rows, 4 * hidden), dtype)
    for d, w_x in enumerate((fw[0], bw[0])):
        acts[d] = (w_x.data @ xs[d]).T
    _check_finite(acts, "bilstm_max")
    biases = np.array([fw[2].data, bw[2].data], dtype)[:, None]
    # σ(a) = ½·tanh(a/2) + ½ on all but the candidate's rows
    scale, shift = np.repeat(np.array([[0.5, 0.5, 1, 0.5], [0.5, 0.5, 0, 0.5]], dtype), hidden, 1)
    # a contiguous W_hᵀ speeds up a product of several rows by more than
    # its copy costs, and one of a single row by less
    w_hts = [np.ascontiguousarray(w_h.data.T) if widths[1:2].sum() > 1 else w_h.data.T
             for w_h in (fw[1], bw[1])]
    states, cells = np.empty((2, rows, hidden), dtype), np.empty((2, rows, hidden), dtype)
    pooled = states[:, :batch]  # step 0 runs every sequence
    for s, (lo, n, prev) in enumerate(zip(offsets, widths, (0, *offsets))):
        a, c, h = acts[:, lo:lo + n], cells[:, lo:lo + n], states[:, lo:lo + n]
        for d in (0, 1) if s else ():  # the state before the first step is zero
            a[d] += states[d, prev:prev + n] @ w_hts[d]
        a += biases
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        gate_in, gate_forget, candidate, gate_out = a.reshape(2, n, 4, hidden).transpose(2, 0, 1, 3)
        np.multiply(gate_in, candidate, out=c)
        if s:
            c += gate_forget * cells[:, prev:prev + n]
        np.tanh(c, out=h)
        h *= gate_out
        if s:  # a running max: ties go to the forward half's earlier step, the backward's later
            np.greater(h[0], pooled[0, :n], out=better[0, :n])
            np.greater_equal(h[1], pooled[1, :n], out=better[1, :n])
            np.copyto(pooled[:, :n], h, where=better[:, :n])
            np.copyto(argmax[:, :n], s, where=better[:, :n])
        elif widths.size > 1:
            pooled, argmax = pooled.copy(), np.zeros((2, batch, hidden), np.intp)
            better = np.empty((2, batch, hidden), bool)
    _check_finite(cells, "bilstm_max")  # tanh would hide it from the output's check
    out_data = np.empty((2 * hidden, batch), dtype)
    out_data.reshape(2, hidden, batch)[:, :, order] = pooled.transpose(0, 2, 1)

    def grad_fn(grad: np.ndarray) -> None:
        nonlocal states, cells  # each buffer goes once nothing reads it
        d_states, d_cell = np.zeros((2, rows, hidden), dtype), np.zeros((2, batch, hidden), dtype)
        d_pooled = grad.reshape(2, hidden, batch)[:, :, order].transpose(0, 2, 1)
        at = (np.arange(2)[:, None, None], offsets[argmax] + np.arange(batch)[:, None],
              np.arange(hidden)) if widths.size > 1 else slice(None)
        d_states[at] = d_pooled
        for s in reversed(range(widths.size)):
            lo, n, prev = offsets[s], widths[s], offsets[s - 1]
            a, d_c = acts[:, lo:lo + n], d_cell[:, :n]
            gate_in, gate_forget, candidate, gate_out = a.reshape(2, n, 4, hidden).transpose(
                2, 0, 1, 3)
            tanh_c = np.tanh(cells[:, lo:lo + n])
            d_c += d_states[:, lo:lo + n] * gate_out * (1.0 - tanh_c * tanh_c)
            gate_out[...] = d_states[:, lo:lo + n] * tanh_c * gate_out * (1.0 - gate_out)
            d_in = d_c * candidate * gate_in * (1.0 - gate_in)
            candidate[...] = d_c * gate_in * (1.0 - candidate * candidate)
            gate_in[...] = d_in
            d_forget = d_c * cells[:, prev:prev + n] * gate_forget * (1.0 - gate_forget) if s else 0
            d_c *= gate_forget  # the cell gradient that step s − 1 receives
            gate_forget[...] = d_forget
            for d in (0, 1) if s else ():
                d_states[d, prev:prev + n] += a[d] @ weights[3 * d + 1].data
        d_states = cells = None
        for d, w_x in enumerate((fw[0], bw[0]) if g.requires_grad else ()):
            _grad_buffer(g)[:, cols[d]] += (acts[d] @ w_x.data).T  # acts: pre-activation grads
        prev_rows = np.arange(batch, rows) - np.repeat(widths[:-1], widths[1:])  # rows of s − 1
        for d, (w_x, w_h, bias) in enumerate((fw, bw)):
            if w_h.requires_grad:
                _accumulate(w_h, acts[d, batch:].T @ states[d, prev_rows])
            if bias.requires_grad:
                _accumulate(bias, acts[d].sum(axis=0))
        states = None
        for d, w_x in enumerate((fw[0], bw[0])):
            if w_x.requires_grad:
                _accumulate(w_x, acts[d].T @ g.data[:, cols[d]].T)

    return _result(out_data, (g, *weights), grad_fn, "bilstm_max")


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


def _released(g: np.ndarray) -> None:
    raise RuntimeError("backward already ran through this graph; rebuild it first")


def backward(loss: Tensor) -> None:
    """Fill ``grad`` on every tensor with requires_grad that the loss's
    gradient reaches.

    A graph runs backward once: a node that has passed its gradient on is
    released, and a later call that reaches it raises before any gradient
    moves. Leaf gradients accumulate across calls on different graphs.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    if any(node._grad_fn is _released for node in order):
        _released(loss.grad)  # raises before any gradient moves
    _accumulate(loss, np.ones_like(loss.data))
    while order:
        node = order.pop()  # after every node it feeds: its gradient is whole
        grad_fn = node._grad_fn
        if grad_fn is None:
            # leaf gradients are where every chain ends; a NaN anywhere
            # upstream lands here, so checking leaves covers the whole pass
            if node.grad is not None:
                _check_finite(node.grad, "backward")
            continue
        node._grad_fn, node._parents = _released, ()
        if node.grad is not None:  # a softmax that cross_entropy bypasses has none
            grad_fn(node.grad)
