"""Property tests: the batched kernels against their one-at-a-time references."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import emofuse.tensor as T  # noqa: E402
from emofuse import model as M  # noqa: E402
from emofuse.alignment import temporal_align_pool  # noqa: E402


def loop_pool(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Oracle: word column j adds z[:, i] for each frame i with A[i, j] = 1,
    frames in time order."""
    out = np.zeros((z.shape[0], a.shape[1]), dtype=z.dtype)
    for j in range(a.shape[1]):
        for i in range(a.shape[0]):
            if a[i, j] == 1.0:
                out[:, j] += z[:, i]
    return out


@st.composite
def block_alignments(draw):
    """A binary [n × m] alignment: each word owns one contiguous frame block,
    blocks in word order, with unassigned gap frames and empty words."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=2 * m, max_size=2 * m)))
    a = np.zeros((n, m))
    for j in range(m):
        a[cuts[2 * j]:cuts[2 * j + 1], j] = 1.0
    return a


@settings(max_examples=60, deadline=None)
@given(a=block_alignments(), q=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_pooling_matches_loop_oracle_bit_for_bit(a, q, seed):
    z = np.random.default_rng(seed).standard_normal((q, a.shape[0]))
    with T.precision(64):
        got = temporal_align_pool(T.Tensor(z), a).data
    np.testing.assert_array_equal(got, loop_pool(z, a))


@pytest.fixture(scope="module")
def params():
    return M.init_params(seed=0)


@settings(max_examples=15, deadline=None)
@given(lengths=st.lists(st.integers(1, 60), min_size=1, max_size=4), seed=st.integers(0, 2**16))
def test_packed_encoding_matches_single(params, lengths, seed):
    rng = np.random.default_rng(seed)
    with T.precision(64):
        xs = [rng.standard_normal((34, n)) for n in lengths]
        packed, starts = M.acoustic_encode_batch(xs, params)
        for x, start in zip(xs, starts):
            np.testing.assert_allclose(packed.data[:, start:start + x.shape[1]],
                                       M.acoustic_encode(x, params).data, rtol=0, atol=1e-12)


def padded_loop_lstm(x_proj, w_h, bias, lengths, reverse):
    """The time-major batch loop the packed op replaced: step t reads one
    column per sequence from a zero-padded projection, computes the
    sequences longer than t and carries the others' state unchanged."""
    hidden, batch, steps = w_h.shape[1], len(lengths), max(lengths)
    starts = np.cumsum(lengths) - lengths
    padded = np.zeros((4 * hidden, steps, batch))
    for b, (start, n) in enumerate(zip(starts, lengths)):
        padded[:, :n, b] = x_proj[:, start:start + n]
    state = np.zeros((2 * hidden, batch))
    out = np.zeros((hidden, sum(lengths)))
    for t in (reversed(range(steps)) if reverse else range(steps)):
        cols = np.flatnonzero(np.asarray(lengths) > t)
        h, c = state[:hidden, cols], state[hidden:, cols]
        pre = (padded[:, t, cols] + w_h @ h) + bias[:, None]
        i, f = T._sigmoid(pre[:hidden]), T._sigmoid(pre[hidden:2 * hidden])
        g, o = np.tanh(pre[2 * hidden:3 * hidden]), T._sigmoid(pre[3 * hidden:])
        c_new = i * g + f * c
        h_new = o * np.tanh(c_new)
        state[:hidden, cols], state[hidden:, cols] = h_new, c_new
        out[:, starts[cols] + t] = h_new
    return out


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5), hidden=st.integers(1, 6),
       seed=st.integers(0, 2**16), reverse=st.booleans())
def test_packed_lstm_matches_padded_loop_and_single_sequences(lengths, hidden, seed, reverse):
    """Bit for bit against the padded batch loop, which does the same
    arithmetic; against each sequence run alone to 1e-12, because a
    one-column W_h·h (a BLAS gemv) rounds differently from the same column
    inside a wider product (a gemm)."""
    rng = np.random.default_rng(seed)
    x_proj = rng.standard_normal((4 * hidden, sum(lengths)))
    w_h, bias = rng.standard_normal((4 * hidden, hidden)), rng.standard_normal(4 * hidden)
    with T.precision(64):
        out = T.lstm(T.Tensor(x_proj), T.Tensor(w_h), T.Tensor(bias), lengths, reverse).data
        np.testing.assert_array_equal(out, padded_loop_lstm(x_proj, w_h, bias, lengths, reverse))
        start = 0
        for n in lengths:
            alone = T.lstm(T.Tensor(x_proj[:, start:start + n]), T.Tensor(w_h), T.Tensor(bias),
                           [n], reverse).data
            np.testing.assert_allclose(out[:, start:start + n], alone, rtol=0, atol=1e-12)
            start += n
