"""Tests for the frame-to-word alignment matrix and alignment pooling."""

import numpy as np
import pytest

import emofuse.tensor as T
from emofuse.alignment import (AlignmentMatrix, WordSpan, build_alignment, pool_words,
                               temporal_align_pool, validate_alignment)
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

    def test_mean_mode_on_constant_input(self):
        z = T.Tensor(np.full((3, 6), 2.5))
        a = np.zeros((6, 2))
        a[:4, 0] = 1.0
        a[4:, 1] = 1.0
        summed = temporal_align_pool(z, a, mode="sum").data
        meaned = temporal_align_pool(z, a, mode="mean").data
        np.testing.assert_allclose(summed, [[10.0, 5.0]] * 3)
        np.testing.assert_allclose(meaned, 2.5)

    def test_mean_mode_empty_column_stays_zero(self):
        z = T.Tensor(np.ones((2, 3)))
        a = np.zeros((3, 2))
        a[:, 0] = 1.0
        out = temporal_align_pool(z, a, mode="mean").data
        np.testing.assert_array_equal(out[:, 1], 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            temporal_align_pool(T.Tensor(np.ones((2, 4))), np.ones((3, 1)))

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            temporal_align_pool(T.Tensor(np.ones((2, 3))), np.ones((3, 1)), mode="median")

    def test_gradient_flows_through_pooling(self):
        with T.precision(64):
            z = T.Tensor(np.ones((2, 3)), requires_grad=True)
            a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
            T.backward(T.sum_all(temporal_align_pool(z, a)))
            np.testing.assert_array_equal(z.grad, np.ones((2, 3)))


class TestPoolWords:
    @pytest.mark.parametrize("bits", [32, 64])
    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_packed_matches_per_utterance_bit_for_bit(self, bits, mode):
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
                packed = pool_words(packed_z, aligns, starts, mode)
                T.backward(T.sum_all(T.hadamard(packed, T.Tensor(weigh))))
                want, want_grad = [], np.zeros_like(packed_z.data)
                word = 0
                for a, start in zip(aligns, starts):
                    part = T.Tensor(z[:, start:start + a.shape[0]], requires_grad=True)
                    single = temporal_align_pool(part, a, mode)
                    T.backward(T.sum_all(T.hadamard(
                        single, T.Tensor(weigh[:, word:word + a.shape[1]]))))
                    want.append(single.data)
                    want_grad[:, start:start + a.shape[0]] = part.grad
                    word += a.shape[1]
                np.testing.assert_array_equal(packed.data, np.concatenate(want, axis=1))
                np.testing.assert_array_equal(packed_z.grad, want_grad)

    def test_utterance_past_the_end_rejected(self):
        with pytest.raises(DimensionError):
            pool_words(T.Tensor(np.ones((2, 5))), [np.ones((3, 1)), np.ones((3, 1))], [0, 3])


class TestValidateAlignment:
    def test_identity(self):
        diag = validate_alignment(AlignmentMatrix(np.eye(4)))
        assert diag.unassigned_frames == 0
        assert diag.empty_words == 0

    def test_spec_example_matrix(self):
        spans = [WordSpan("a", 0, 25), WordSpan("b", 25, 1000)]
        diag = validate_alignment(build_alignment(spans, n=5, step_ms=10, width_ms=25))
        assert diag.unassigned_frames == 0
        assert diag.empty_words == 0

    def test_zero_column_reported_not_raised(self):
        mat = np.zeros((3, 2))
        mat[:, 0] = 1.0
        diag = validate_alignment(AlignmentMatrix(mat))
        assert diag.empty_words == 1
        assert diag.unassigned_frames == 0

    def test_double_assignment_rejected(self):
        mat = np.zeros((2, 2))
        mat[0] = 1.0
        with pytest.raises(InputError):
            validate_alignment(AlignmentMatrix(mat))

    def test_non_contiguous_block_rejected(self):
        mat = np.zeros((4, 1))
        mat[0, 0] = 1.0
        mat[2, 0] = 1.0
        with pytest.raises(InputError):
            validate_alignment(AlignmentMatrix(mat))

    def test_out_of_order_blocks_rejected(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InputError):
            validate_alignment(AlignmentMatrix(mat))

    def test_non_binary_entries_rejected(self):
        with pytest.raises(InputError):
            AlignmentMatrix(np.full((2, 2), 0.5))
