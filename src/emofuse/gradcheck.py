"""Finite-difference verification of every differentiable operation.

``grad_check`` compares an op's recorded gradient against central
differences; ``check_all_ops`` sweeps the whole op registry over random
shapes and seeds and is what the ``gradcheck`` CLI subcommand runs.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable

import numpy as np

from . import tensor as T

OP_TOLERANCE = 1e-5
MODEL_TOLERANCE = 1e-4


def grad_check(f: Callable[[T.Tensor], T.Tensor], x: T.Tensor, eps: float = 1e-5,
               coords: np.ndarray | None = None) -> float:
    """Max relative error between the recorded gradient of f at x and
    central finite differences.

    f must be scalar-valued. Run under ``precision(64)``; at 32 bits the
    differences themselves drown in rounding noise. ``coords`` limits the
    check to a subset of flat indices (used for large parameter tensors).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    probe = T.Tensor(x.data.copy(), requires_grad=True)
    loss = f(probe)
    T.backward(loss)
    # a tensor the loss never reaches gets no gradient: it is zero
    analytic = (np.zeros(x.size) if probe.grad is None
                else probe.grad.reshape(-1).copy())

    flat = x.data.reshape(-1).copy()
    if coords is None:
        coords = np.arange(flat.size)
    max_err = 0.0
    for i in coords:
        bumped = flat.copy()
        bumped[i] += eps
        f_plus = f(T.Tensor(bumped.reshape(x.shape))).item()
        bumped[i] = flat[i] - eps
        f_minus = f(T.Tensor(bumped.reshape(x.shape))).item()
        numeric = (f_plus - f_minus) / (2.0 * eps)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        max_err = max(max_err, abs(analytic[i] - numeric) / denom)
    return max_err


def _away_from_zero(rng: np.random.Generator, shape, low: float = 0.3, high: float = 1.5):
    """Random values with |x| ≥ low, keeping relu/max kinks out of eps reach."""
    mag = rng.uniform(low, high, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


def _distinct(rng: np.random.Generator, shape):
    """Values pairwise separated by ≥ 0.05 so argmax choices survive ±eps."""
    n = int(np.prod(shape))
    vals = np.arange(n, dtype=np.float64) * 0.1
    return rng.permutation(vals).reshape(shape)


def _dim(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 7))


def _on_matrix(rng: np.random.Generator, op: Callable, min_rows: int = 1, min_cols: int = 1):
    """Case for sum_all(op(x)) at a random x of at least min_rows × min_cols."""
    x = rng.standard_normal((max(min_rows, _dim(rng)), max(min_cols, _dim(rng))))
    return (lambda probe: T.sum_all(op(probe))), T.Tensor(x)


def _with_other(rng: np.random.Generator, op: Callable):
    """Case for sum_all(op(x, other)), other a fixed matrix of x's shape."""
    shape = (_dim(rng), _dim(rng))
    other = T.Tensor(rng.standard_normal(shape))
    return (lambda probe: T.sum_all(op(probe, other))), T.Tensor(rng.standard_normal(shape))


def _probe(operands: dict[str, np.ndarray], arg: str, f: Callable):
    """Case for operand arg of f(**operands), the other operands held fixed."""
    fixed = {name: T.Tensor(value) for name, value in operands.items()}
    return (lambda probe: f(**{**fixed, arg: probe})), fixed[arg]


def _matmul(rng: np.random.Generator, arg: str):
    r, k, c = _dim(rng), _dim(rng), _dim(rng)
    operands = {"a": rng.standard_normal((r, k)), "b": rng.standard_normal((k, c))}
    return _probe(operands, arg, lambda a, b: T.sum_all(T.matmul(a, b)))


def _conv1d_same(rng: np.random.Generator, arg: str, n: int | None = None):
    """A fixed n shorter than the kernel checks the zero padding at both ends."""
    cin, cout, kw = _dim(rng), _dim(rng), _dim(rng)
    if n is None:
        n = _dim(rng)
    else:
        kw = n + int(rng.integers(1, 5))
    operands = {"x": rng.standard_normal((cin, n)), "filters": rng.standard_normal((cout, cin, kw)),
                "bias": rng.standard_normal(cout)}
    return _probe(operands, arg,
                  lambda x, filters, bias: T.sum_all(T.sigmoid(T.conv1d_same(x, filters, bias))))


def _linear(rng: np.random.Generator, arg: str):
    d_in, d_out, m = _dim(rng), _dim(rng), _dim(rng)
    operands = {"x": rng.standard_normal((d_in, m)), "weight": rng.standard_normal((d_out, d_in)),
                "bias": rng.standard_normal(d_out)}
    return _probe(operands, arg, lambda x, weight, bias: T.sum_all(T.linear(x, weight, bias)))


def _add_bias(rng: np.random.Generator):
    d, m = _dim(rng), _dim(rng)
    operands = {"x": rng.standard_normal((d, m)), "bias": rng.standard_normal(d)}
    return _probe(operands, "bias", lambda x, bias: T.sum_all(T.add_bias(x, bias)))


def _maxpool_steps(rng: np.random.Generator):
    lengths = [_dim(rng) for _ in range(_dim(rng))]
    x = _distinct(rng, (_dim(rng), sum(lengths)))
    return (lambda probe: T.sum_all(T.maxpool_steps(probe, lengths))), T.Tensor(x)


def _pad_stack_time_major(rng: np.random.Generator):
    t_max = max(2, _dim(rng))
    bounds = np.cumsum([0] + [int(rng.integers(1, t_max + 1)) for _ in range(3)])

    def f(x: T.Tensor) -> T.Tensor:
        parts = [T.slice_cols(x, start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
        return T.sum_all(T.sigmoid(T.pad_stack_time_major(parts, t_max)))

    return f, T.Tensor(rng.standard_normal((_dim(rng), bounds[-1])))


def _cross_entropy(rng: np.random.Generator):
    m = _dim(rng)
    onehot = np.eye(4)[:, rng.integers(0, 4, size=m)]
    logits = T.Tensor(rng.standard_normal((4, m)))
    return (lambda z: T.cross_entropy(T.softmax_columns(z), onehot)), logits


def _lstm(rng: np.random.Generator, arg: str, reverse: bool):
    hid, lengths = _dim(rng), [3, 1, 4]
    weigh = T.Tensor(rng.standard_normal((hid, sum(lengths))))
    operands = {"x_proj": 0.5 * rng.standard_normal((4 * hid, sum(lengths))),
                "w_h": 0.5 * rng.standard_normal((4 * hid, hid)),
                "bias": 0.5 * rng.standard_normal(4 * hid)}
    return _probe(operands, arg, lambda x_proj, w_h, bias: T.sum_all(
        T.hadamard(T.lstm(x_proj, w_h, bias, lengths, reverse), weigh)))


# Every differentiable op, one case per differentiable argument, each built
# from a generator of its own: name -> rng -> (scalar function, input).
_CASES: dict[str, Callable[[np.random.Generator], tuple[Callable, T.Tensor]]] = {
    **{f"matmul/{arg}": partial(_matmul, arg=arg) for arg in ("a", "b")},
    **{f"conv1d_same/{arg}": partial(_conv1d_same, arg=arg) for arg in ("x", "filters", "bias")},
    "conv1d_same/x n=1": partial(_conv1d_same, arg="x", n=1),
    "conv1d_same/x n<k": partial(_conv1d_same, arg="x", n=2),
    **{f"linear/{arg}": partial(_linear, arg=arg) for arg in ("x", "weight", "bias")},
    "add_bias/bias": _add_bias,
    "sigmoid": lambda rng: _on_matrix(rng, T.sigmoid),
    "tanh": lambda rng: _on_matrix(rng, T.tanh),
    "relu": lambda rng: (lambda x: T.sum_all(T.relu(x)),
                         T.Tensor(_away_from_zero(rng, (_dim(rng), _dim(rng))))),
    "scale": lambda rng: _on_matrix(rng, lambda x: T.scale(x, 1.7)),
    "hadamard": lambda rng: _with_other(rng, T.hadamard),
    "add": lambda rng: _with_other(rng, T.add),
    "concat_rows": lambda rng: _with_other(rng, lambda x, o: T.sigmoid(T.concat_rows(x, o))),
    "concat_cols": lambda rng: _with_other(rng, lambda x, o: T.sigmoid(T.concat_cols(o, x, o))),
    "slice_rows": lambda rng: _on_matrix(
        rng, lambda x: T.sigmoid(T.slice_rows(x, 0, x.shape[0] - 1)), min_rows=2),
    "slice_cols": lambda rng: _on_matrix(
        rng, lambda x: T.sigmoid(T.slice_cols(x, 1, x.shape[1])), min_cols=2),
    "mean_cols": lambda rng: _on_matrix(rng, lambda x: T.sigmoid(T.mean_cols(x))),
    "mean_cols spans": lambda rng: _on_matrix(  # a gap, an overlap, a single column
        rng, lambda x: T.sigmoid(T.mean_cols(x, [(0, 2), (3, 7), (5, 8), (8, 9)])), min_cols=9),
    "pool_cols": lambda rng: _on_matrix(  # columns pooled twice or not at all; group 2 empty
        rng, lambda x: T.sigmoid(T.pool_cols(x, [0, 2, 2, 4, 1, 4], [0, 0, 1, 1, 3, 0],
                                             [0.5, 1.2, 0.7, 1.0, 1.4, 0.3], 4)), min_cols=5),
    "sum_all": lambda rng: _on_matrix(rng, lambda x: x),
    "maxpool_steps": _maxpool_steps,
    "pad_stack_time_major": _pad_stack_time_major,
    "softmax_columns": lambda rng: _on_matrix(
        rng, lambda x: T.sigmoid(T.softmax_columns(x)), min_rows=2),
    "cross_entropy": _cross_entropy,
    **{f"lstm/{arg} {direction}": partial(_lstm, arg=arg, reverse=direction == "reverse")
       for direction in ("forward", "reverse") for arg in ("x_proj", "w_h", "bias")},
}


def _op_cases(seed: int) -> list[tuple[str, Callable, T.Tensor]]:
    """One (name, scalar function, input) case per entry of ``_CASES``.

    Each case draws its shapes and operands from its own generator, seeded
    by seed and a CRC of its name, so adding, renaming or deleting a case
    leaves every other case's draws as they were.
    """
    return [(name, *build(np.random.default_rng([1000 + seed, zlib.crc32(name.encode())])))
            for name, build in _CASES.items()]


def check_all_ops(seeds=range(5), eps: float = 1e-5) -> dict[str, float]:
    """Run grad_check on every op over the given seeds; returns max error per op."""
    results: dict[str, float] = {}
    with T.precision(64):
        for seed in seeds:
            for name, f, x in _op_cases(seed):
                err = grad_check(f, x, eps=eps)
                results[name] = max(results.get(name, 0.0), err)
    return results


def _micro_batch(rng: np.random.Generator):
    """Two small synthetic prepared samples for whole-model checks."""
    from .data import PreparedSample

    samples = []
    for idx in range(2):
        n_words = int(rng.integers(2, 4))
        n_frames = int(rng.integers(3 * n_words, 5 * n_words))
        bounds = np.linspace(0, n_frames, n_words + 1).astype(int)
        align = np.zeros((n_frames, n_words))
        for j in range(n_words):
            align[bounds[j]:bounds[j + 1], j] = 1.0
        samples.append(PreparedSample(
            id=f"micro-{idx}",
            features=rng.standard_normal((34, n_frames)),
            alignment=align,
            token_vectors=rng.standard_normal((300, n_words)) * 0.5,
            tokens=["w"] * n_words,
            label=int(rng.integers(0, 4)),
        ))
    return samples


def check_model(seed: int = 0, coords_per_tensor: int = 4, eps: float = 1e-5,
                mode: str = "tempalign-cme") -> float:
    """Finite-difference check of the full-model loss gradient.

    Every parameter tensor is checked on a random subset of coordinates
    (full enumeration over ~900k parameters is far beyond the runtime
    budget; sampled coordinates catch the same wiring mistakes).
    """
    import dataclasses

    from . import model as M

    with T.precision(64):
        rng = np.random.default_rng(7000 + seed)
        samples = _micro_batch(rng)
        params = M.init_params(seed)
        worst = 0.0
        for name, tensor in params.named():
            coords = rng.choice(tensor.size,
                                size=min(coords_per_tensor, tensor.size), replace=False)

            def f(probe: T.Tensor, _name=name) -> T.Tensor:
                trial = dataclasses.replace(params, **{_name: probe})
                return M.loss(samples, trial, mode)

            worst = max(worst, grad_check(f, tensor, eps=eps, coords=coords))
    return worst
