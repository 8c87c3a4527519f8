"""Property tests: the batched kernels against their one-at-a-time references."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import emofuse.tensor as T  # noqa: E402
from emofuse import model as M  # noqa: E402
from emofuse.alignment import temporal_align_pool  # noqa: E402


def weighted_loop_pool(z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Oracle: word column j adds w·z[:, i] for each nonzero weight w = A[i, j],
    frames in time order."""
    out = np.zeros((z.shape[0], weights.shape[1]), dtype=z.dtype)
    for j in range(weights.shape[1]):
        for i in range(weights.shape[0]):
            if weights[i, j] != 0.0:
                out[:, j] += weights[i, j] * z[:, i]
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
@given(a=block_alignments(), q=st.integers(1, 6), seed=st.integers(0, 2**16),
       mode=st.sampled_from(["sum", "mean"]))
def test_pooling_matches_loop_oracle_bit_for_bit(a, q, seed, mode):
    z = np.random.default_rng(seed).standard_normal((q, a.shape[0]))
    weights = a
    if mode == "mean":
        counts = a.sum(axis=0)
        weights = a / np.where(counts > 0, counts, 1.0)
    with T.precision(64):
        got = temporal_align_pool(T.Tensor(z), a, mode).data
    np.testing.assert_array_equal(got, weighted_loop_pool(z, weights))


@pytest.fixture(scope="module")
def params():
    return M.init_params(seed=0)


@settings(max_examples=15, deadline=None)
@given(lengths=st.lists(st.integers(1, 60), min_size=1, max_size=4), seed=st.integers(0, 2**16))
def test_packed_encoding_matches_single(params, lengths, seed):
    rng = np.random.default_rng(seed)
    with T.precision(64):
        xs = [T.Tensor(rng.standard_normal((34, n))) for n in lengths]
        for x, out in zip(xs, M.acoustic_encode_batch(xs, params)):
            np.testing.assert_allclose(out.data, M.acoustic_encode(x, params).data,
                                       rtol=0, atol=1e-12)
