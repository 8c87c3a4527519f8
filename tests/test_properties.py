"""Property tests: the batched kernels against their one-at-a-time references."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import emofuse.tensor as T  # noqa: E402
from emofuse import model as M  # noqa: E402
from emofuse.alignment import temporal_align_pool  # noqa: E402
from test_tensor import bilstm_reference  # noqa: E402


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
        packed = M.acoustic_encode(xs, params, [np.eye(n) for n in lengths]).data
        for x, start in zip(xs, np.cumsum([0] + lengths[:-1])):
            np.testing.assert_allclose(packed[:, start:start + x.shape[1]],
                                       M.acoustic_encode([x], params, [np.eye(x.shape[1])]).data,
                                       rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5), hidden=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_packed_bilstm_matches_single_sequences(lengths, hidden, seed):
    """To 1e-12 against each sequence run alone through the plain-numpy
    reference: a packed step's products run over several rows, which round
    differently from one row's."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, sum(lengths)))
    fw, bw = ((rng.standard_normal((4 * hidden, 3)), rng.standard_normal((4 * hidden, hidden)),
               rng.standard_normal(4 * hidden)) for _ in range(2))
    with T.precision(64):
        out = T.bilstm_max(T.Tensor(g), [T.Tensor(a) for a in fw], [T.Tensor(a) for a in bw],
                           lengths).data
    np.testing.assert_allclose(out, bilstm_reference(g, fw, bw, lengths), rtol=0, atol=1e-12)
