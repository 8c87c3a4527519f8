"""Tests for the tensor core: forward values, error handling, backward."""

import numpy as np
import pytest

import emofuse.tensor as T
from emofuse.errors import DimensionError


@pytest.fixture
def f64():
    with T.precision(64):
        yield


class TestMatmul:
    def test_identity(self):
        m = T.Tensor(np.arange(9.0).reshape(3, 3))
        out = T.matmul(T.Tensor(np.eye(3)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_product(self):
        out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self, f64):
        from emofuse.gradcheck import grad_check
        rng = np.random.default_rng(0)
        b = T.Tensor(rng.standard_normal((3, 2)))
        err = grad_check(lambda a: T.sum_all(T.matmul(a, b)),
                         T.Tensor(rng.standard_normal((4, 3))))
        assert err <= 1e-5


class TestConv1dSame:
    def test_identity_kernel(self):
        x = T.Tensor([[1.0, -2.0, 3.0, 0.5]])
        out = T.conv1d_same(x, T.Tensor([[[1.0]]]), T.Tensor([0.0]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_even_kernel_right_pad(self):
        # k=2: pad_left 0, pad_right 1, so the last window sees a zero
        out = T.conv1d_same(T.Tensor([[1.0, 2.0, 3.0]]),
                            T.Tensor([[[1.0, 1.0]]]), T.Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0, 3.0]])

    def test_length_preserved_for_model_kernels(self):
        x = T.Tensor(np.random.default_rng(1).standard_normal((4, 98)))
        for k in (20, 10, 2):
            filters = T.Tensor(np.zeros((5, 4, k)))
            out = T.conv1d_same(x, filters, T.Tensor(np.zeros(5)))
            assert out.shape == (5, 98)

    def test_length_preserved_all_kernel_lengths(self):
        rng = np.random.default_rng(2)
        for k in range(1, 26):
            for n in (1, 2, 3, 7, 19, 50, 200):
                x = T.Tensor(rng.standard_normal((1, n)))
                out = T.conv1d_same(x, T.Tensor(rng.standard_normal((1, 1, k))),
                                    T.Tensor(np.zeros(1)))
                assert out.shape == (1, n), (k, n)

    def test_kernel_longer_than_input_allowed(self):
        out = T.conv1d_same(T.Tensor([[1.0, 2.0]]),
                            T.Tensor(np.ones((1, 1, 5))), T.Tensor([0.0]))
        assert out.shape == (1, 2)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            T.conv1d_same(T.Tensor(np.zeros((3, 4))),
                          T.Tensor(np.zeros((2, 2, 3))), T.Tensor(np.zeros(2)))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.Tensor([[0.0]])).data[0, 0] == 0.5

    def test_tanh_and_relu(self):
        assert T.tanh(T.Tensor([[0.0]])).data[0, 0] == 0.0
        assert T.relu(T.Tensor([[-1.0]])).data[0, 0] == 0.0

    def test_sigmoid_gradient(self, f64):
        from emofuse.gradcheck import grad_check
        x = T.Tensor(np.random.default_rng(3).standard_normal((4, 5)))
        assert grad_check(lambda v: T.sum_all(T.sigmoid(v)), x) <= 1e-5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = T.sigmoid(T.Tensor([[-500.0, 500.0]]))
        assert np.all(np.isfinite(out.data))


class TestHadamard:
    def test_times_ones_is_identity(self):
        a = T.Tensor([[1.5, -2.0]])
        np.testing.assert_array_equal(T.hadamard(a, T.Tensor(np.ones((1, 2)))).data, a.data)

    def test_hand_product(self):
        out = T.hadamard(T.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                         T.Tensor([[2.0, 0.0], [1.0, 3.0]]))
        np.testing.assert_array_equal(out.data, [[2.0, 0.0], [3.0, 12.0]])

    def test_times_zeros(self):
        out = T.hadamard(T.Tensor([[9.0, 9.0]]), T.Tensor(np.zeros((1, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.hadamard(T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((2, 1))))


class TestConcatRows:
    def test_simple(self):
        out = T.concat_rows(T.Tensor([[1.0]]), T.Tensor([[2.0]]))
        np.testing.assert_array_equal(out.data, [[1.0], [2.0]])

    def test_model_dims(self):
        # acoustic 128 rows + semantic 128 rows -> 256 fused rows
        out = T.concat_rows(T.Tensor(np.zeros((128, 7))), T.Tensor(np.zeros((128, 7))))
        assert out.shape == (256, 7)

    def test_concat_then_split_roundtrip(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 5)), rng.standard_normal((2, 5))
        out = T.concat_rows(T.Tensor(a), T.Tensor(b))
        np.testing.assert_array_equal(T.slice_rows(out, 0, 3).data, a.astype(np.float32))
        np.testing.assert_array_equal(T.slice_rows(out, 3, 5).data, b.astype(np.float32))

    def test_column_mismatch(self):
        with pytest.raises(DimensionError):
            T.concat_rows(T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((1, 3))))


class TestMaxpoolSteps:
    def test_per_row_max(self):
        out = T.maxpool_steps(T.Tensor([[1.0, 3.0], [2.0, 0.0]]), [2])
        np.testing.assert_array_equal(out.data, [[3.0], [2.0]])

    def test_single_step(self):
        out = T.maxpool_steps(T.Tensor([[4.0, 1.0], [5.0, 2.0]]), [1, 1])
        np.testing.assert_array_equal(out.data, [[4.0, 1.0], [5.0, 2.0]])

    def test_padding_never_leaks(self):
        # a sequence pools its own columns only, whatever its neighbours hold
        rng = np.random.default_rng(5)
        lengths = [5, 1, 3]
        base = rng.standard_normal((6, 9))
        out = T.maxpool_steps(T.Tensor(base), lengths).data
        for b, cols in enumerate((slice(0, 5), slice(5, 6), slice(6, 9))):
            poisoned = np.full_like(base, 1e9)
            poisoned[:, cols] = base[:, cols]
            np.testing.assert_array_equal(T.maxpool_steps(T.Tensor(poisoned), lengths).data[:, b],
                                          out[:, b])
            np.testing.assert_array_equal(out[:, b], base[:, cols].max(axis=1).astype(np.float32))

    def test_lengths_out_of_range(self):
        x = T.Tensor(np.zeros((2, 3)))
        for lengths in ([4], [2], [0, 3], [], [[3]]):
            with pytest.raises(ValueError):
                T.maxpool_steps(x, lengths)

    def test_tie_goes_to_earliest_step(self, f64):
        x = T.Tensor([[0.5, 1.0, 1.0, 0.5]], requires_grad=True)
        T.backward(T.sum_all(T.maxpool_steps(x, [1, 3])))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 0.0, 0.0]])


class TestSoftmaxColumns:
    def test_uniform(self):
        out = T.softmax_columns(T.Tensor([[0.0], [0.0], [0.0], [0.0]]))
        np.testing.assert_allclose(out.data, 0.25)

    def test_shift_invariance(self, f64):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3))
        a = T.softmax_columns(T.Tensor(x)).data
        b = T.softmax_columns(T.Tensor(x + 13.7)).data
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_log_ratios(self, f64):
        x = T.Tensor(np.log([[1.0], [2.0], [3.0], [4.0]]))
        np.testing.assert_allclose(T.softmax_columns(x).data,
                                   [[0.1], [0.2], [0.3], [0.4]], atol=1e-15)

    def test_columns_sum_to_one_and_positive(self, f64):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = T.Tensor(rng.uniform(-100, 100, size=(5, 4)))
            out = T.softmax_columns(x).data
            np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(out > 0)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        p = T.softmax_columns(T.Tensor([[0.0], [-1e4], [-1e4], [-1e4]]))
        np.testing.assert_array_equal(p.data, [[1.0], [0.0], [0.0], [0.0]])
        assert T.cross_entropy(p, np.eye(4)[0]).item() == 0.0

    def test_uniform_is_log4(self, f64):
        p = T.softmax_columns(T.Tensor(np.zeros((4, 1))))
        assert T.cross_entropy(p, np.eye(4)[2]).item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_fused_gradient_is_p_minus_y(self, f64):
        rng = np.random.default_rng(8)
        logits = T.Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        probs = T.softmax_columns(logits)
        y = np.eye(4)[1]
        loss = T.cross_entropy(probs, y)
        T.backward(loss)
        np.testing.assert_allclose(logits.grad, probs.data - y[:, None], atol=1e-15)

    def test_fused_gradient_matches_finite_differences(self, f64):
        from emofuse.gradcheck import grad_check
        rng = np.random.default_rng(9)
        y = np.eye(4)[3]
        err = grad_check(lambda z: T.cross_entropy(T.softmax_columns(z), y),
                         T.Tensor(rng.standard_normal((4, 1))))
        assert err <= 1e-5

    def test_rejects_non_probabilities(self):
        with pytest.raises(ValueError, match="softmax_columns"):
            T.cross_entropy(T.Tensor([[0.9], [0.9], [0.1], [0.1]]), np.eye(4)[0])
        # only a softmax output carries the logits its gradient goes to
        with pytest.raises(ValueError, match="softmax_columns"):
            T.cross_entropy(T.Tensor(np.full((4, 1), 0.25)), np.eye(4)[0])


class TestLinear:
    def test_identity_weight(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        out = T.linear(x, T.Tensor(np.eye(2)), T.Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_weight_gives_bias_columns(self):
        out = T.linear(T.Tensor(np.ones((3, 4))), T.Tensor(np.zeros((2, 3))),
                       T.Tensor([5.0, -1.0]))
        np.testing.assert_array_equal(out.data, np.tile([[5.0], [-1.0]], (1, 4)))

    def test_gradient(self, f64):
        from emofuse.gradcheck import grad_check
        rng = np.random.default_rng(10)
        x = T.Tensor(rng.standard_normal((3, 2)))
        b = T.Tensor(rng.standard_normal(5))
        err = grad_check(lambda w: T.sum_all(T.linear(x, w, b)),
                         T.Tensor(rng.standard_normal((5, 3))))
        assert err <= 1e-5


class TestBackward:
    def test_sum_gradient_is_ones(self, f64):
        x = T.Tensor(np.random.default_rng(11).standard_normal((3, 4)), requires_grad=True)
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_gradient_is_2x(self, f64):
        data = np.random.default_rng(12).standard_normal((2, 3))
        x = T.Tensor(data, requires_grad=True)
        T.backward(T.sum_all(T.hadamard(x, x)))
        np.testing.assert_allclose(x.grad, 2 * data, atol=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            T.backward(T.hadamard(x, x))

    def test_repeated_backward_rejected(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        loss = T.sum_all(x)
        T.backward(loss)
        with pytest.raises(RuntimeError):
            T.backward(loss)

    def test_gradients_accumulate_across_graphs(self, f64):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        T.backward(T.sum_all(x))
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    @pytest.mark.parametrize("view_first", [True, False])
    @pytest.mark.parametrize("share", ["concat_rows", "add", "mean_cols", "sum_all"])
    def test_view_gradient_then_second_contribution(self, f64, share, view_first):
        # x's contribution through `share` is a view of, or a broadcast from,
        # another node's gradient; a second one must not write through it
        rng = np.random.default_rng(4)
        x, y = (T.Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(2))
        weigh = rng.standard_normal((4, 3))
        shared = {"concat_rows": lambda: T.concat_rows(x, y),
                  "add": lambda: T.add(x, y),
                  "mean_cols": lambda: T.mean_cols(x),
                  "sum_all": lambda: T.sum_all(x)}[share]()
        if shared.data.ndim == 2:
            weigh = weigh[:shared.shape[0], :shared.shape[1]]
            through = T.sum_all(T.hadamard(shared, T.Tensor(weigh)))
        else:
            through = shared
        direct = T.sum_all(T.scale(x, 3.0))
        T.backward(T.add(through, direct) if view_first else T.add(direct, through))
        want_x = {"concat_rows": weigh[:2], "add": weigh[:2],
                  "mean_cols": np.repeat(weigh[:, :1] / 3.0, 3, axis=1),
                  "sum_all": np.ones((2, 3))}[share] + 3.0
        np.testing.assert_allclose(x.grad, want_x, rtol=0, atol=1e-15)
        if share in ("concat_rows", "add"):
            np.testing.assert_array_equal(y.grad, weigh[2:] if share == "concat_rows" else weigh)
            np.testing.assert_array_equal(shared.grad, weigh)
        else:
            assert y.grad is None

    def test_view_gradients_sum_across_graphs(self, f64):
        x, y = (T.Tensor(np.ones((2, 2)), requires_grad=True) for _ in range(2))
        first = T.concat_rows(x, y)
        T.backward(T.sum_all(T.scale(first, 2.0)))
        T.backward(T.sum_all(T.concat_rows(y, x)))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 3.0))
        np.testing.assert_array_equal(y.grad, np.full((2, 2), 3.0))
        np.testing.assert_array_equal(first.grad, np.full((4, 2), 2.0))

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((6, 7))
        grads = []
        for _ in range(2):
            x = T.Tensor(data, requires_grad=True)
            mid = T.sigmoid(T.hadamard(x, x))
            T.backward(T.sum_all(T.concat_rows(mid, T.relu(x))))
            grads.append(x.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_finite_checks_catch_nan(self):
        with pytest.raises(FloatingPointError):
            T.Tensor([[np.nan]])


class TestGradCheckHarness:
    def test_linear_function_error_tiny(self, f64):
        from emofuse.gradcheck import grad_check
        x = T.Tensor(np.random.default_rng(14).standard_normal((3, 3)))
        assert grad_check(T.sum_all, x) <= 1e-10

    def test_sum_sigmoid(self, f64):
        from emofuse.gradcheck import grad_check
        x = T.Tensor(np.random.default_rng(15).standard_normal((4, 4)))
        assert grad_check(lambda v: T.sum_all(T.sigmoid(v)), x) <= 1e-6

    def test_eps_must_be_positive(self):
        from emofuse.gradcheck import grad_check
        with pytest.raises(ValueError):
            grad_check(T.sum_all, T.Tensor([[1.0]]), eps=0.0)

    def test_every_differentiable_op_has_a_case(self):
        from emofuse.gradcheck import _op_cases
        not_ops = {"Tensor", "zeros", "precision", "backward"}
        cases = _op_cases(0)
        checked = {name.split("/")[0].split(" ")[0] for name, _, _ in cases}
        assert checked == set(T.__all__) - not_ops

    @pytest.mark.parametrize("seed", [0, 3])
    def test_dropping_a_case_leaves_every_other_case_unchanged(self, f64, monkeypatch, seed):
        from emofuse import gradcheck

        def fingerprints(cases):
            # the input, and f's value and gradient there, which read every
            # fixed operand; all compared bit for bit
            out = {}
            for name, f, x in cases:
                probe = T.Tensor(x.data, requires_grad=True)
                value = f(probe)
                T.backward(value)
                out[name] = (x.data.tobytes(), value.data.tobytes(), probe.grad.tobytes())
            return out

        full = fingerprints(gradcheck._op_cases(seed))
        for dropped in list(gradcheck._CASES):
            with monkeypatch.context() as patch:
                patch.delitem(gradcheck._CASES, dropped)
                rest = fingerprints(gradcheck._op_cases(seed))
            assert rest == {name: fp for name, fp in full.items() if name != dropped}, dropped


class TestPrecisionConfig:
    def test_default_is_float32(self):
        assert T.Tensor([[1.0]]).data.dtype == np.float32

    def test_precision_context(self):
        with T.precision(64):
            assert T.Tensor([[1.0]]).data.dtype == np.float64
        assert T.Tensor([[1.0]]).data.dtype == np.float32

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            with T.precision(16):
                pass

    def test_precision_does_not_leak_across_threads(self):
        import threading

        entered, checked = threading.Event(), threading.Event()
        seen = {}

        def holder():
            with T.precision(64):
                entered.set()
                checked.wait(timeout=10)
                seen["holder"] = T.Tensor([1.0]).data.dtype

        def other():
            entered.wait(timeout=10)
            seen["other"] = T.Tensor([1.0]).data.dtype
            checked.set()

        threads = [threading.Thread(target=holder), threading.Thread(target=other)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"holder": np.float64, "other": np.float32}


class TestColumnOps:
    def test_concat_cols(self):
        out = T.concat_cols(T.Tensor([[1.0], [2.0]]), T.Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[1, 3, 4], [2, 5, 6]])

    def test_concat_cols_row_mismatch(self):
        with pytest.raises(DimensionError):
            T.concat_cols(T.zeros((2, 1)), T.zeros((3, 1)))


def lstm_reference(x_proj, w_h, bias, reverse=False):
    """Plain numpy LSTM over one sequence x_proj [4H × n], state starting at
    zero: gates i, f, g, o from (x_proj + W_h·h) + b."""
    hidden = w_h.shape[1]
    h, c = np.zeros((hidden, 1)), np.zeros((hidden, 1))
    out = np.zeros((hidden, x_proj.shape[1]))
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))  # noqa: E731
    steps = range(x_proj.shape[1])
    for t in (reversed(steps) if reverse else steps):
        pre = (x_proj[:, t:t + 1] + w_h @ h) + bias[:, None]
        i, f = sig(pre[:hidden]), sig(pre[hidden:2 * hidden])
        g, o = np.tanh(pre[2 * hidden:3 * hidden]), sig(pre[3 * hidden:])
        c = i * g + f * c
        h = o * np.tanh(c)
        out[:, t:t + 1] = h
    return out


def split_packed(x, lengths):
    return np.split(x, np.cumsum(lengths)[:-1], axis=1)


class TestLstmCell:
    def _args(self, lengths, hidden=3, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((4 * hidden, sum(lengths))),
                rng.standard_normal((4 * hidden, hidden)), rng.standard_normal(4 * hidden))

    def _check_against_reference(self, lengths):
        x_proj, w_h, bias = self._args(lengths)
        for reverse in (False, True):
            out = T.lstm(*map(T.Tensor, (x_proj, w_h, bias)), lengths, reverse)
            assert out.shape == (3, sum(lengths))
            for got, xp in zip(split_packed(out.data, lengths), split_packed(x_proj, lengths)):
                np.testing.assert_allclose(got, lstm_reference(xp, w_h, bias, reverse),
                                           rtol=0, atol=1e-14)

    def test_valid_columns_match_reference(self, f64):
        self._check_against_reference([4, 4, 4])

    def test_ragged_sequences_match_reference(self, f64):
        self._check_against_reference([3, 1, 5, 2])

    def test_shape_mismatch(self):
        x_proj, w_h, bias = map(T.Tensor, self._args([2, 2]))
        with pytest.raises(DimensionError):
            T.lstm(T.slice_rows(x_proj, 0, 8), w_h, bias, [2, 2])
        with pytest.raises(DimensionError):
            T.lstm(x_proj, w_h, T.Tensor(bias.data[:8]), [2, 2])
        for lengths in ([2, 3], [4, 0], []):
            with pytest.raises(ValueError):
                T.lstm(x_proj, w_h, bias, lengths)

    def test_packed_gradients_match_one_at_a_time(self, f64):
        lengths = [3, 1, 5, 2]
        x_proj, w_h, bias = self._args(lengths)
        weigh = np.random.default_rng(1).standard_normal((3, sum(lengths)))
        for reverse in (False, True):
            packed = [T.Tensor(a, requires_grad=True) for a in (x_proj, w_h, bias)]
            T.backward(T.sum_all(T.hadamard(T.lstm(*packed, lengths, reverse), T.Tensor(weigh))))
            x_grads, w_grad, b_grad = [], 0.0, 0.0
            for xp, wg in zip(split_packed(x_proj, lengths), split_packed(weigh, lengths)):
                alone = [T.Tensor(a, requires_grad=True) for a in (xp, w_h, bias)]
                out = T.lstm(*alone, [xp.shape[1]], reverse)
                T.backward(T.sum_all(T.hadamard(out, T.Tensor(wg))))
                x_grads.append(alone[0].grad)
                w_grad, b_grad = w_grad + alone[1].grad, b_grad + alone[2].grad
            for got, want in zip((p.grad for p in packed),
                                 (np.concatenate(x_grads, axis=1), w_grad, b_grad)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
