"""Tests for Adam, metrics, training loops and cross-validation."""


import numpy as np
import pytest

from emofuse import data, model, training
from emofuse.errors import DivergenceError, InputError


@pytest.fixture(scope="module")
def sanity_set(tmp_path_factory):
    """8 synthetic utterances (2 per class) plus their embedding table."""
    out = tmp_path_factory.mktemp("sanity")
    ds = data.synth_dataset(out, n_per_class=2, seed=1)
    return ds.records, data.load_embeddings(ds.embeddings_path)


class TestGatherFeatures:
    def test_colliding_ids_from_another_dataset_get_their_own_features(self, tmp_path):
        # synthetic ids repeat across seeds; a shared cache must not mix the sets
        first = data.synth_dataset(tmp_path / "a", n_per_class=1, seed=1).records
        second = data.synth_dataset(tmp_path / "b", n_per_class=1, seed=2).records
        assert [r.id for r in first] == [r.id for r in second]
        cache = {}
        training.gather_features(first, cache)
        got = training.gather_features(second, cache)
        for record, features in zip(second, got, strict=True):
            np.testing.assert_array_equal(features, data.load_record_features(record))

    def test_colliding_ids_within_one_call_keep_their_own_features(self, tmp_path):
        first = data.synth_dataset(tmp_path / "a", n_per_class=1, seed=1).records
        second = data.synth_dataset(tmp_path / "b", n_per_class=1, seed=2).records
        records = first + second
        for cache in (None, {}):
            got = training.gather_features(records, cache)
            assert len(got) == len(records)
            for record, features in zip(records, got):
                np.testing.assert_array_equal(features, data.load_record_features(record))

    def test_predict_scores_each_colliding_record_on_its_own_features(self, tmp_path, sanity_set):
        _, table = sanity_set
        first = data.synth_dataset(tmp_path / "a", n_per_class=1, seed=1).records
        second = data.synth_dataset(tmp_path / "b", n_per_class=1, seed=2).records
        config = training.TrainConfig(epochs=1, batch_size=4)
        checkpoint, _ = training.train_fold(first, config, table)
        _, together = training.predict(checkpoint, first + second, table, feature_cache={})
        _, alone = training.predict(checkpoint, first, table)
        np.testing.assert_allclose(together[:len(first)], alone, atol=1e-6)

    def test_repeat_requests_hit_the_cache(self, sanity_set, monkeypatch):
        records, _ = sanity_set
        cache = {}
        first = training.gather_features(records, cache)
        loads = []
        monkeypatch.setattr(training, "load_record_features",
                            lambda record: loads.append(record) or data.load_record_features(record))
        again = training.gather_features(records, cache)
        assert loads == []
        assert all(a is b for a, b in zip(again, first, strict=True))


class TestAdamStep:
    def _setup(self):
        params = model.init_params(seed=0)
        return params, training.AdamState(params), training.TrainConfig()

    def test_zero_gradients_leave_params_unchanged(self):
        params, state, config = self._setup()
        before = {name: t.data.copy() for name, t in params.named()}
        training.adam_step(params, state, config)
        assert state.step == 1
        for name, tensor in params.named():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_first_step_moves_by_roughly_lr(self):
        # with zero moments, m-hat = g and sqrt(v-hat) = |g|, so the first
        # update is -lr * g / (|g| + eps): about -lr per element for large g
        params, state, config = self._setup()
        before = params.cme_w.data.copy()
        params.cme_w.grad = np.full(params.cme_w.shape, 1e6, dtype=params.cme_w.data.dtype)
        training.adam_step(params, state, config)
        delta = params.cme_w.data - before
        np.testing.assert_allclose(delta, -config.learning_rate, rtol=1e-5)

    def test_two_runs_are_bit_identical(self):
        results = []
        for _ in range(2):
            params, state, config = self._setup()
            rng = np.random.default_rng(5)
            for _ in range(3):
                for _, tensor in params.named():
                    tensor.grad = rng.standard_normal(tensor.shape).astype(tensor.data.dtype)
                training.adam_step(params, state, config)
            results.append({name: t.data.copy() for name, t in params.named()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_matches_the_allocating_formula_bit_for_bit(self):
        # Kingma & Ba 2015, Alg. 1, written with a fresh array per operation;
        # cme_w never gets a gradient, which counts as zero
        params, state, config = self._setup()
        reference = {name: [t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)]
                     for name, t in params.named()}
        b1, b2, lr, eps = (config.adam_beta1, config.adam_beta2, config.learning_rate,
                           config.adam_eps)
        rng = np.random.default_rng(9)
        for step in range(1, 4):
            for name, tensor in params.named():
                tensor.grad = (None if name == "cme_w" else
                               rng.standard_normal(tensor.shape).astype(tensor.data.dtype))
            training.adam_step(params, state, config)
            for name, tensor in params.named():
                data, m, v = reference[name]
                grad = tensor.grad if tensor.grad is not None else np.zeros_like(data)
                m[...] = b1 * m + (1.0 - b1) * grad
                v[...] = b2 * v + (1.0 - b2) * grad * grad
                data -= lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
        for name, tensor in params.named():
            assert tensor.data.tobytes() == reference[name][0].tobytes(), name


class TestClipGradients:
    def test_large_gradients_scaled_to_max_norm(self):
        params = model.init_params(seed=0)
        for _, tensor in params.named():
            tensor.grad = np.ones(tensor.shape, dtype=tensor.data.dtype)
        norm = training.clip_gradients(params, max_norm=5.0)
        assert norm == pytest.approx(np.sqrt(model.EXPECTED_PARAM_COUNT))
        clipped = np.sqrt(sum(float((t.grad ** 2).sum()) for t in params.tensors()))
        assert clipped == pytest.approx(5.0, rel=1e-5)

    def test_small_gradients_untouched(self):
        params = model.init_params(seed=0)
        params.fcn2_b.grad = np.array([0.1, 0.0, 0.0, 0.0], dtype=params.fcn2_b.data.dtype)
        training.clip_gradients(params, max_norm=5.0)
        assert params.fcn2_b.grad[0] == pytest.approx(0.1)

    def test_zero_disables(self):
        params = model.init_params(seed=0)
        params.fcn2_b.grad = np.full(4, 100.0, dtype=params.fcn2_b.data.dtype)
        training.clip_gradients(params, max_norm=0.0)
        assert params.fcn2_b.grad[0] == 100.0


class TestMetrics:
    def test_two_class_hand_confusion(self):
        report = training.report_from_confusion(np.array([[2, 0], [1, 1]]))
        assert report.wa == pytest.approx(0.75)
        assert report.ua == pytest.approx((1.0 + 0.5) / 2)

    def test_perfect_predictions(self):
        report = training.report_from_confusion(np.diag([5, 3, 2, 7]))
        assert report.wa == 1.0
        assert report.ua == 1.0

    def test_ua_invariant_to_class_duplication_wa_not(self):
        base = np.array([[8, 2], [3, 7]])
        duplicated = np.array([[16, 4], [3, 7]])  # class 0 doubled, recalls unchanged
        a = training.report_from_confusion(base)
        b = training.report_from_confusion(duplicated)
        assert a.ua == pytest.approx(b.ua)
        assert a.wa != pytest.approx(b.wa)

    def test_empty_class_excluded_from_ua(self):
        confusion = np.array([[4, 0, 0, 0], [1, 3, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2]])
        report = training.report_from_confusion(confusion)
        assert report.excluded_classes == [2]
        assert report.per_class_recall[2] is None
        assert report.ua == pytest.approx((1.0 + 0.75 + 1.0) / 3)

    def test_confusion_rows_are_true_labels(self):
        confusion = training.confusion_matrix([0, 0, 1], [0, 1, 1], n_classes=2)
        np.testing.assert_array_equal(confusion, [[1, 1], [0, 1]])


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(InputError):
            training.TrainConfig(epochs=0).validate()

    def test_bad_mode_rejected(self):
        with pytest.raises(InputError):
            training.TrainConfig(fusion_mode="nope").validate()

    def test_bad_reduction_rejected(self):
        with pytest.raises(InputError):
            training.TrainConfig(loss_reduction="median").validate()

    @pytest.mark.parametrize("field", ["learning_rate", "adam_beta1", "adam_beta2",
                                       "adam_eps", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            training.TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("overrides", [{"adam_beta1": 1.0}, {"adam_beta2": -0.1},
                                           {"adam_eps": 0.0}])
    def test_adam_constants_out_of_range_rejected(self, overrides):
        with pytest.raises(InputError):
            training.TrainConfig(**overrides).validate()

    @pytest.mark.parametrize("overrides", [{"epochs": "2"}, {"learning_rate": "0.1"},
                                           {"batch_size": 4.0}, {"seed": True},
                                           {"fusion_mode": 3}])
    def test_wrongly_typed_values_rejected(self, overrides):
        with pytest.raises(InputError, match=next(iter(overrides))):
            training.TrainConfig(**overrides).validate()

    def test_numpy_scalars_accepted(self):
        training.TrainConfig(epochs=np.int64(3), learning_rate=np.float32(0.01)).validate()

    def test_defaults_follow_stated_hyperparameters(self):
        config = training.TrainConfig()
        assert config.learning_rate == 0.001
        assert (config.adam_beta1, config.adam_beta2, config.adam_eps) == (0.9, 0.999, 1e-8)


class TestTrainFold:
    def test_loss_curve_non_increasing_on_sanity_set(self, sanity_set):
        records, table = sanity_set
        config = training.TrainConfig(epochs=20, seed=0)
        _, curve = training.train_fold(records, config, table)
        assert len(curve) == 20
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_fixed_seed_gives_identical_curves(self, sanity_set):
        records, table = sanity_set
        config = training.TrainConfig(epochs=4, seed=7)
        _, curve_a = training.train_fold(records, config, table)
        _, curve_b = training.train_fold(records, config, table)
        assert curve_a == curve_b

    def test_checkpoint_carries_normalization_stats(self, sanity_set):
        records, table = sanity_set
        config = training.TrainConfig(epochs=1, seed=0)
        checkpoint, _ = training.train_fold(records, config, table)
        assert checkpoint.feature_mean.shape == (34,)
        assert np.all(checkpoint.feature_std >= 1e-8)

    def test_epoch_log_reports_gradient_norm_and_clip_rate(self, sanity_set, caplog):
        records, table = sanity_set
        config = training.TrainConfig(epochs=2, batch_size=4, clip_norm=1e-3)
        with caplog.at_level("DEBUG", logger="emofuse.training"):
            training.train_fold(records, config, table)
        lines = [r.getMessage() for r in caplog.records if "pre-clip" in r.getMessage()]
        assert len(lines) == 2
        assert all("clip rate 1.00" in line for line in lines)

    def test_empty_training_set_rejected(self, sanity_set):
        _, table = sanity_set
        with pytest.raises(InputError):
            training.train_fold([], training.TrainConfig(), table)

    def test_divergence_is_reported(self, sanity_set):
        records, table = sanity_set
        config = training.TrainConfig(epochs=30, seed=0, learning_rate=1e9, clip_norm=0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is the point
            with pytest.raises(DivergenceError):
                training.train_fold(records, config, table)


@pytest.fixture(scope="module")
def fitted(sanity_set):
    records, table = sanity_set
    config = training.TrainConfig(epochs=40, seed=0)
    checkpoint, _ = training.train_fold(records, config, table)
    return checkpoint, records, table


class TestPredictEvaluate:
    def test_predict_shapes_and_ranges(self, fitted):
        checkpoint, records, table = fitted
        labels, probs = training.predict(checkpoint, records, table)
        assert labels.shape == (len(records),)
        assert probs.shape == (len(records), 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_overfit_sanity_set(self, fitted):
        checkpoint, records, table = fitted
        report = training.evaluate(checkpoint, records, table)
        assert report.wa >= 0.95
        assert report.n_samples == len(records)

    def test_confusion_row_sums_match_supports(self, fitted):
        checkpoint, records, table = fitted
        report = training.evaluate(checkpoint, records, table)
        supports = [sum(r.label == k for r in records) for k in range(4)]
        np.testing.assert_array_equal(report.confusion.sum(axis=1), supports)

    def test_argmax_tie_goes_to_lowest_class(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25]])
        assert probs.argmax(axis=1)[0] == 0


class TestCrossValidate:
    def test_structure_and_mean(self, tmp_path):
        ds = data.synth_dataset(tmp_path, n_per_class=3, seed=2)
        table = data.load_embeddings(ds.embeddings_path)
        config = training.TrainConfig(epochs=2, seed=0)
        report = training.cross_validate(ds.records, config, table, k=3)
        assert len(report.fold_reports) == 3
        assert report.mean_wa == pytest.approx(
            np.mean([r.wa for r in report.fold_reports]), abs=1e-12)
        assert report.mean_ua == pytest.approx(
            np.mean([r.ua for r in report.fold_reports]), abs=1e-12)

    def test_ablation_emits_row_per_mode(self, tmp_path):
        ds = data.synth_dataset(tmp_path, n_per_class=2, seed=3)
        table = data.load_embeddings(ds.embeddings_path)
        config = training.TrainConfig(epochs=1, seed=0)
        modes = ["uttconcat", "tempalign", "tempalign-cme"]
        reports = training.run_ablation(ds.records, config, table, modes, k=2)
        assert list(reports) == modes
        text = training.format_ablation_table(reports)
        lines = text.splitlines()
        assert len(lines) == 4  # header + one row per mode
        assert "WA" in lines[0] and "UA" in lines[0]
        for mode in modes:
            assert any(line.startswith(mode) for line in lines[1:])
