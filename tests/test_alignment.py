"""Tests for the frame-to-word alignment matrix and alignment pooling."""

import numpy as np
import pytest

import emofuse.tensor as T
from emofuse.alignment import (AlignmentMatrix, WordSpan, build_alignment, temporal_align_pool,
                               word_entries)
from emofuse.errors import DimensionError, InputError


def loop_pool(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Oracle: explicitly sum each word's frame vectors."""
    q, n = z.shape
    m = a.shape[1]
    out = np.zeros((q, m), dtype=z.dtype)
    for j in range(m):
        for i in range(n):
            if a[i, j] == 1.0:
                out[:, j] += z[:, i]
    return out


def block_alignment(rng, n_words: int) -> np.ndarray:
    """Words of 0 (empty) to 4 frames, silence frames before, between and after."""
    lengths = rng.integers(0, 5, size=n_words)
    gaps = rng.integers(0, 3, size=n_words + 1)
    a = np.zeros((max(int(lengths.sum() + gaps.sum()), 1), n_words))
    pos = gaps[0]
    for j in range(n_words):
        a[pos:pos + lengths[j], j] = 1.0
        pos += lengths[j] + gaps[j + 1]
    return a


class TestWordSpan:
    def test_valid(self):
        span = WordSpan("hello", 0, 120)
        assert span.end_ms > span.start_ms

    def test_invalid_span(self):
        with pytest.raises(InputError):
            WordSpan("x", 100, 100)
        with pytest.raises(InputError):
            WordSpan("x", -5, 50)
        with pytest.raises(InputError):
            WordSpan("", 0, 50)


class TestBuildAlignment:
    def test_center_in_span_rule(self):
        # centers at 12.5, 22.5, 32.5, 42.5, 52.5 ms
        spans = [WordSpan("a", 0, 25), WordSpan("b", 25, 1000)]
        a = build_alignment(spans, n=5, step_ms=10, width_ms=25)
        expected = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1]], dtype=float)
        np.testing.assert_array_equal(a.matrix, expected)

    def test_single_word_covers_everything(self):
        a = build_alignment([WordSpan("w", 0, 10_000)], n=8, step_ms=10, width_ms=25)
        np.testing.assert_array_equal(a.matrix, np.ones((8, 1)))

    def test_word_between_centers_gets_zero_column(self):
        # centers at 12.5 and 22.5; the middle word covers (13, 20)
        spans = [WordSpan("a", 0, 13), WordSpan("b", 13, 20), WordSpan("c", 20, 40)]
        a = build_alignment(spans, n=2, step_ms=10, width_ms=25)
        np.testing.assert_array_equal(a.matrix[:, 1], [0.0, 0.0])

    def test_matches_per_word_mask_oracle(self):
        # adjacent words, gaps, and frame centres exactly on span edges
        rng = np.random.default_rng(3)
        for _ in range(200):
            spans, pos = [], 0
            for j in range(int(rng.integers(1, 7))):
                pos += int(rng.integers(0, 30))
                length = int(rng.integers(1, 60))
                spans.append(WordSpan(f"w{j}", pos, pos + length))
                pos += length
            n, step = int(rng.integers(1, 45)), int(rng.choice([5, 10]))
            width = int(rng.choice([20, 25]))
            centers = np.arange(n) * step + width / 2.0
            want = np.stack([(centers >= s.start_ms) & (centers < s.end_ms) for s in spans], axis=1)
            got = build_alignment(spans, n, step, width).matrix
            np.testing.assert_array_equal(got, want.astype(np.float64))

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan, np.inf])
    def test_matrix_entries_must_be_zero_or_one(self, bad):
        with pytest.raises(InputError, match="0 or 1"):
            AlignmentMatrix(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_overlapping_spans_rejected(self):
        with pytest.raises(InputError, match="overlap"):
            build_alignment([WordSpan("a", 0, 100), WordSpan("b", 50, 150)],
                            n=5, step_ms=10, width_ms=25)

    def test_unsorted_spans_rejected(self):
        with pytest.raises(InputError):
            build_alignment([WordSpan("b", 200, 300), WordSpan("a", 0, 100)],
                            n=5, step_ms=10, width_ms=25)

    def test_silence_frames_get_zero_rows(self):
        spans = [WordSpan("a", 0, 30), WordSpan("b", 500, 600)]
        a = build_alignment(spans, n=10, step_ms=10, width_ms=25)
        row_sums = a.matrix.sum(axis=1)
        assert set(row_sums) <= {0.0, 1.0}
        assert (row_sums == 0).any()

    def test_trailing_silence_adds_only_zero_rows(self):
        spans = [WordSpan("a", 0, 200), WordSpan("b", 200, 400)]
        short = build_alignment(spans, n=40, step_ms=10, width_ms=25)
        long = build_alignment(spans, n=55, step_ms=10, width_ms=25)
        np.testing.assert_array_equal(long.matrix[:40], short.matrix)
        np.testing.assert_array_equal(long.matrix[40:], 0.0)


class TestTemporalAlignPool:
    def test_hand_product(self):
        z = T.Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        a = AlignmentMatrix(np.array([[1, 0], [1, 0], [0, 1]], dtype=float))
        out = temporal_align_pool(z, a)
        np.testing.assert_array_equal(out.data, [[3.0, 3.0], [9.0, 6.0]])

    def test_identity_alignment(self):
        rng = np.random.default_rng(0)
        z = T.Tensor(rng.standard_normal((4, 6)))
        out = temporal_align_pool(z, AlignmentMatrix(np.eye(6)))
        np.testing.assert_array_equal(out.data, z.data)

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(1)
        with T.precision(64):
            for _ in range(100):
                q = int(rng.integers(1, 9))
                n = int(rng.integers(1, 31))
                m = int(rng.integers(1, 7))
                z = rng.standard_normal((q, n))
                # contiguous blocks: split the frames into m chunks, some empty
                inner = np.sort(rng.integers(0, n + 1, size=m - 1)) if m > 1 else np.array([], dtype=int)
                bounds = np.concatenate([[0], inner, [n]])
                a = np.zeros((n, m))
                for j in range(m):
                    a[bounds[j]:bounds[j + 1], j] = 1.0
                got = temporal_align_pool(T.Tensor(z), a).data
                np.testing.assert_array_equal(got, loop_pool(z, a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            temporal_align_pool(T.Tensor(np.ones((2, 4))), np.ones((3, 1)))

    def test_gradient_flows_through_pooling(self):
        with T.precision(64):
            z = T.Tensor(np.ones((2, 3)), requires_grad=True)
            a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
            T.backward(T.sum_all(temporal_align_pool(z, a)))
            np.testing.assert_array_equal(z.grad, np.ones((2, 3)))


class TestPoolWords:
    @pytest.mark.parametrize("bits", [32, 64])
    def test_packed_matches_per_utterance_bit_for_bit(self, bits):
        # values and gradients; the gap columns between utterances get none
        rng = np.random.default_rng(bits)
        with T.precision(bits):
            for _ in range(20):
                aligns = [block_alignment(rng, int(rng.integers(1, 6)))
                          for _ in range(int(rng.integers(1, 6)))]
                starts = np.cumsum([0] + [a.shape[0] + 3 for a in aligns[:-1]])
                z = rng.standard_normal((5, starts[-1] + aligns[-1].shape[0]))
                weigh = rng.standard_normal((5, sum(a.shape[1] for a in aligns)))
                packed_z = T.Tensor(z, requires_grad=True)
                entries = word_entries(aligns, starts, [a.shape[0] for a in aligns])
                packed = T.pool_cols(packed_z, *entries)
                T.backward(T.sum_all(T.hadamard(packed, T.Tensor(weigh))))
                want, want_grad = [], np.zeros_like(packed_z.data)
                word = 0
                for a, start in zip(aligns, starts):
                    part = T.Tensor(z[:, start:start + a.shape[0]], requires_grad=True)
                    single = temporal_align_pool(part, a)
                    T.backward(T.sum_all(T.hadamard(
                        single, T.Tensor(weigh[:, word:word + a.shape[1]]))))
                    want.append(single.data)
                    want_grad[:, start:start + a.shape[0]] = part.grad
                    word += a.shape[1]
                np.testing.assert_array_equal(packed.data, np.concatenate(want, axis=1))
                np.testing.assert_array_equal(packed_z.grad, want_grad)

    def test_utterance_past_the_end_rejected(self):
        # three rows for the second utterance's two frames reach past its end
        with pytest.raises(DimensionError, match="utterance 1"):
            word_entries([np.ones((3, 1)), np.ones((3, 1))], [0, 3], [3, 2])

    def test_alignment_shorter_than_its_frames_rejected(self):
        # two rows for three frames would leave the last frame unpooled
        with pytest.raises(DimensionError, match="3 frames"):
            word_entries([np.ones((2, 1))], [0], [3])


class TestValidateAlignment:
    def test_spec_example_matrix(self):
        spans = [WordSpan("a", 0, 25), WordSpan("b", 25, 1000)]
        mat = build_alignment(spans, n=5, step_ms=10, width_ms=25).matrix
        np.testing.assert_array_equal(mat.sum(axis=1), np.ones(5))
        assert np.all(mat.sum(axis=0) > 0)

    def test_non_binary_entries_rejected(self):
        with pytest.raises(InputError):
            AlignmentMatrix(np.full((2, 2), 0.5))
