"""Finite-difference verification of every differentiable operation.

``grad_check`` compares an op's recorded gradient against central
differences; ``check_all_ops`` sweeps the whole op registry over random
shapes and seeds and is what the ``gradcheck`` CLI subcommand runs.
"""

from __future__ import annotations

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


def _op_cases(rng: np.random.Generator) -> list[tuple[str, Callable, T.Tensor]]:
    """One (name, scalar function, input) case per differentiable op.

    Shapes are drawn from {1..6}. Where an op has several differentiable
    arguments, each gets its own case with the others held fixed.
    """
    def dim() -> int:
        return int(rng.integers(1, 7))

    r, k, c = dim(), dim(), dim()
    cases: list[tuple[str, Callable, T.Tensor]] = []

    b_fixed = T.Tensor(rng.standard_normal((k, c)))
    cases.append(("matmul/a", lambda a: T.sum_all(T.matmul(a, b_fixed)),
                  T.Tensor(rng.standard_normal((r, k)))))
    a_fixed = T.Tensor(rng.standard_normal((r, k)))
    cases.append(("matmul/b", lambda b: T.sum_all(T.matmul(a_fixed, b)),
                  T.Tensor(rng.standard_normal((k, c)))))

    cin, cout, kw, n = dim(), dim(), dim(), dim()
    x_fixed = T.Tensor(rng.standard_normal((cin, n)))
    f_fixed = T.Tensor(rng.standard_normal((cout, cin, kw)))
    bias_fixed = T.Tensor(rng.standard_normal(cout))
    cases.append(("conv1d_same/x", lambda x: T.sum_all(T.conv1d_same(x, f_fixed, bias_fixed)),
                  T.Tensor(rng.standard_normal((cin, n)))))
    cases.append(("conv1d_same/filters", lambda f: T.sum_all(T.conv1d_same(x_fixed, f, bias_fixed)),
                  T.Tensor(rng.standard_normal((cout, cin, kw)))))
    cases.append(("conv1d_same/bias", lambda b: T.sum_all(T.conv1d_same(x_fixed, f_fixed, b)),
                  T.Tensor(rng.standard_normal(cout))))

    shape = (dim(), dim())
    cases.append(("sigmoid", lambda x: T.sum_all(T.sigmoid(x)),
                  T.Tensor(rng.standard_normal(shape))))
    cases.append(("tanh", lambda x: T.sum_all(T.tanh(x)),
                  T.Tensor(rng.standard_normal(shape))))
    cases.append(("relu", lambda x: T.sum_all(T.relu(x)),
                  T.Tensor(_away_from_zero(rng, shape))))

    other = T.Tensor(rng.standard_normal(shape))
    cases.append(("hadamard", lambda a: T.sum_all(T.hadamard(a, other)),
                  T.Tensor(rng.standard_normal(shape))))
    cases.append(("add", lambda a: T.sum_all(T.add(a, other)),
                  T.Tensor(rng.standard_normal(shape))))
    cases.append(("scale", lambda x: T.sum_all(T.scale(x, 1.7)),
                  T.Tensor(rng.standard_normal(shape))))
    cases.append(("add_bias/bias", lambda b: T.sum_all(T.add_bias(other, b)),
                  T.Tensor(rng.standard_normal(shape[0]))))

    w_fixed = T.Tensor(rng.standard_normal((dim(), shape[0])))
    lb_fixed = T.Tensor(rng.standard_normal(w_fixed.shape[0]))
    cases.append(("linear/x", lambda x: T.sum_all(T.linear(x, w_fixed, lb_fixed)),
                  T.Tensor(rng.standard_normal(shape))))
    cases.append(("linear/weight", lambda w: T.sum_all(T.linear(other, w, lb_fixed)),
                  T.Tensor(rng.standard_normal(w_fixed.shape))))
    cases.append(("linear/bias", lambda b: T.sum_all(T.linear(other, w_fixed, b)),
                  T.Tensor(rng.standard_normal(w_fixed.shape[0]))))

    cases.append(("concat_rows", lambda a: T.sum_all(T.sigmoid(T.concat_rows(a, other))),
                  T.Tensor(rng.standard_normal(shape))))
    d2 = (max(2, shape[0]), shape[1])
    cases.append(("slice_rows", lambda x: T.sum_all(T.sigmoid(T.slice_rows(x, 0, d2[0] - 1))),
                  T.Tensor(rng.standard_normal(d2))))
    d3 = (shape[0], max(2, shape[1]))
    cases.append(("slice_cols", lambda x: T.sum_all(T.sigmoid(T.slice_cols(x, 1, d3[1]))),
                  T.Tensor(rng.standard_normal(d3))))
    cases.append(("mean_cols", lambda x: T.sum_all(T.sigmoid(T.mean_cols(x))),
                  T.Tensor(rng.standard_normal(shape))))

    batch, steps_n = dim(), max(2, dim())
    lengths = [int(rng.integers(1, steps_n + 1)) for _ in range(batch)]
    pool_d = dim()
    # one distinct value per (step, row, sequence); each sequence keeps its
    # first lengths[b] steps, packed one sequence after another
    stack = _distinct(rng, (steps_n, pool_d, batch))
    pooled_in = np.concatenate([stack[:n, :, b].T for b, n in enumerate(lengths)], axis=1)
    cases.append(("maxpool_steps", lambda x: T.sum_all(T.maxpool_steps(x, lengths)),
                  T.Tensor(pooled_in)))

    pack_d, pack_b, pack_tmax = dim(), 3, max(2, dim())
    pack_lens = [int(rng.integers(1, pack_tmax + 1)) for _ in range(pack_b)]
    pack_cols = sum(pack_lens)

    def pack(x: T.Tensor) -> T.Tensor:
        parts, at = [], 0
        for ln in pack_lens:
            parts.append(T.slice_cols(x, at, at + ln))
            at += ln
        return T.sum_all(T.sigmoid(T.pad_stack_time_major(parts, pack_tmax)))

    cases.append(("pad_stack_time_major", pack, T.Tensor(rng.standard_normal((pack_d, pack_cols)))))

    sm_shape = (max(2, dim()), dim())
    cases.append(("softmax_columns", lambda x: T.sum_all(T.sigmoid(T.softmax_columns(x))),
                  T.Tensor(rng.standard_normal(sm_shape))))

    n_classes = 4
    labels = rng.integers(0, n_classes, size=sm_shape[1])
    onehot = np.zeros((n_classes, sm_shape[1]))
    onehot[labels, np.arange(sm_shape[1])] = 1.0
    cases.append(("cross_entropy/fused", lambda z: T.cross_entropy(T.softmax_columns(z), onehot),
                  T.Tensor(rng.standard_normal((n_classes, sm_shape[1])))))

    probs_raw = rng.uniform(0.05, 1.0, size=(n_classes, sm_shape[1]))

    def ce_plain(q: T.Tensor) -> T.Tensor:
        col = T.Tensor(1.0 / probs_raw.sum(axis=0, keepdims=True) * np.ones_like(probs_raw))
        return T.cross_entropy(T.hadamard(q, col), onehot)

    cases.append(("cross_entropy/plain", ce_plain, T.Tensor(probs_raw)))

    # ops added later draw after every older case, so the older cases keep
    # their random shapes and values
    for label, n_short in (("n=1", 1), ("n<k", 2)):
        k_long = n_short + int(rng.integers(1, 5))
        f_long = T.Tensor(rng.standard_normal((cout, cin, k_long)))
        cases.append((f"conv1d_same/x {label}",
                      lambda x, f_long=f_long: T.sum_all(T.sigmoid(T.conv1d_same(x, f_long, bias_fixed))),
                      T.Tensor(rng.standard_normal((cin, n_short)))))
    cases.append(("concat_cols", lambda a: T.sum_all(T.sigmoid(T.concat_cols(other, a, other))),
                  T.Tensor(rng.standard_normal(shape))))

    hid, seq_lens = dim(), [3, 1, 4]
    weigh = T.Tensor(rng.standard_normal((hid, sum(seq_lens))))
    lstm_args = {"x_proj": (4 * hid, sum(seq_lens)), "w_h": (4 * hid, hid), "bias": (4 * hid,)}
    fixed = {name: T.Tensor(0.5 * rng.standard_normal(shp)) for name, shp in lstm_args.items()}
    for label, reverse in (("forward", False), ("reverse", True)):
        for name, shp in lstm_args.items():
            def run(probe, _name=name, _reverse=reverse):
                args = {**fixed, _name: probe}
                out = T.lstm(args["x_proj"], args["w_h"], args["bias"], seq_lens, _reverse)
                return T.sum_all(T.hadamard(out, weigh))
            cases.append((f"lstm/{name} {label}", run, T.Tensor(0.5 * rng.standard_normal(shp))))
    cases.append(("sum_all", T.sum_all, T.Tensor(rng.standard_normal(shape))))
    return cases


def check_all_ops(seeds=range(5), eps: float = 1e-5) -> dict[str, float]:
    """Run grad_check on every op over the given seeds; returns max error per op."""
    results: dict[str, float] = {}
    with T.precision(64):
        for seed in seeds:
            rng = np.random.default_rng(1000 + seed)
            for name, f, x in _op_cases(rng):
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
