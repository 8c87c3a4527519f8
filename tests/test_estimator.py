"""Tests for the sklearn-style estimator facade."""

import dataclasses
import inspect

import numpy as np
import pytest

from emofuse import data, dsp
from emofuse.base import check_labels
from emofuse.training import TrainConfig
from emofuse.errors import InputError
from emofuse.estimator import EmotionRecognizer, LowLevelFeatureExtractor


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    ds = data.synth_dataset(out, n_per_class=2, seed=21)
    return ds.records, data.load_embeddings(ds.embeddings_path)


@pytest.fixture(scope="module")
def fitted_clf(tiny):
    records, table = tiny
    clf = EmotionRecognizer(embeddings=table, epochs=40, seed=0)
    return clf.fit(records)


class TestParamsProtocol:
    def test_get_params_round_trip(self):
        clf = EmotionRecognizer(epochs=7, learning_rate=0.01)
        params = clf.get_params()
        assert params["epochs"] == 7
        assert params["learning_rate"] == 0.01
        assert "fusion_mode" in params

    def test_set_params(self):
        clf = EmotionRecognizer()
        clf.set_params(epochs=3, fusion_mode="tempalign")
        assert clf.epochs == 3
        assert clf.fusion_mode == "tempalign"

    def test_set_params_rejects_unknown(self):
        with pytest.raises(InputError, match="invalid parameter"):
            EmotionRecognizer().set_params(dropout=0.5)

    def test_params_are_embeddings_plus_train_config_fields(self):
        signature = inspect.signature(EmotionRecognizer.__init__)
        defaults = {name: p.default for name, p in signature.parameters.items()
                    if name != "self"}
        expected = {"embeddings": None,
                    **{f.name: f.default for f in dataclasses.fields(TrainConfig)}}
        assert defaults == expected

    def test_repr_mentions_params(self):
        assert "epochs=7" in repr(EmotionRecognizer(epochs=7))

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        clf = EmotionRecognizer(epochs=9, seed=4)
        cloned = sklearn_base.clone(clf)
        assert cloned.epochs == 9
        assert cloned.seed == 4
        assert not hasattr(cloned, "checkpoint_")


class TestFitPredict:
    def test_fit_returns_self_and_sets_state(self, fitted_clf):
        assert hasattr(fitted_clf, "checkpoint_")
        assert len(fitted_clf.loss_curve_) == 40
        np.testing.assert_array_equal(fitted_clf.classes_, np.arange(4))
        assert fitted_clf.emotion_labels_ == ("angry", "happy", "neutral", "sad")

    def test_predict_labels(self, fitted_clf, tiny):
        records, _ = tiny
        labels = fitted_clf.predict(records)
        assert labels.shape == (len(records),)
        assert set(labels) <= {0, 1, 2, 3}

    def test_predict_proba_rows_sum_to_one(self, fitted_clf, tiny):
        records, _ = tiny
        probs = fitted_clf.predict_proba(records)
        assert probs.shape == (len(records), 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_score_is_overall_accuracy(self, fitted_clf, tiny):
        records, _ = tiny
        score = fitted_clf.score(records)
        manual = np.mean(fitted_clf.predict(records) == [r.label for r in records])
        assert score == pytest.approx(manual)
        assert score >= 0.95  # overfit on its own training set

    def test_evaluate_report(self, fitted_clf, tiny):
        records, _ = tiny
        report = fitted_clf.evaluate(records)
        assert report.confusion.shape == (4, 4)
        assert report.n_samples == len(records)

    def test_y_overrides_record_labels(self, tiny):
        records, table = tiny
        clf = EmotionRecognizer(embeddings=table, epochs=1, seed=0)
        shifted = [(r.label + 1) % 4 for r in records]
        clf.fit(records, y=shifted)
        assert clf.score(records, y=shifted) >= 0.0  # labels accepted end to end

    @pytest.mark.parametrize("bad", [1.9, 2.7, 0.2, 2.0, True, np.bool_(False), "x", "1", None,
                                     -1, 4])
    def test_labels_must_be_integers_in_range(self, fitted_clf, tiny, bad):
        records, _ = tiny
        y = [r.label for r in records]
        y[1] = bad
        with pytest.raises(InputError, match="label"):
            fitted_clf.score(records, y=y)

    @pytest.mark.parametrize("bad", [5, 2.0, object(), np.int64(1)])
    def test_non_sequence_labels_rejected(self, fitted_clf, tiny, bad):
        records, _ = tiny
        with pytest.raises(InputError, match="sequence of labels"):
            fitted_clf.score(records, y=bad)
        with pytest.raises(InputError, match="sequence of labels"):
            check_labels(records, bad)

    def test_fit_rejects_truncatable_labels(self, tiny):
        # int() would read these as [1, 2, 1, 0] and train on the wrong classes
        records, table = tiny
        clf = EmotionRecognizer(embeddings=table, epochs=1, seed=0)
        with pytest.raises(InputError, match="1.9"):
            clf.fit(records[:4], y=[1.9, 2.7, True, 0.2])

    def test_numpy_integer_labels_accepted(self, fitted_clf, tiny):
        records, _ = tiny
        y = np.array([r.label for r in records], dtype=np.int32)
        assert fitted_clf.score(records, y=y) == fitted_clf.score(records)

    def test_predict_before_fit_rejected(self, tiny):
        records, table = tiny
        with pytest.raises(InputError, match="not fitted"):
            EmotionRecognizer(embeddings=table).predict(records)

    def test_missing_embeddings_rejected(self, tiny):
        records, _ = tiny
        with pytest.raises(InputError, match="embedding"):
            EmotionRecognizer().fit(records)

    def test_save_load_preserves_predictions(self, fitted_clf, tiny, tmp_path):
        records, table = tiny
        path = tmp_path / "clf.emc"
        fitted_clf.save(path)
        loaded = EmotionRecognizer.load(path, embeddings=table)
        np.testing.assert_array_equal(loaded.predict(records), fitted_clf.predict(records))


class TestLowLevelFeatureExtractor:
    def test_transform_clips_and_paths(self, tmp_path):
        rng = np.random.default_rng(0)
        clip = dsp.AudioClip(rng.uniform(-0.5, 0.5, 8000))
        wav = tmp_path / "x.wav"
        dsp.write_wav(wav, clip.samples)
        out = LowLevelFeatureExtractor().fit_transform([clip, str(wav)])
        assert len(out) == 2
        assert out[0].shape[0] == 34
        assert out[0].shape == out[1].shape

    def test_get_params(self):
        assert LowLevelFeatureExtractor().get_params() == {"width_ms": 25, "step_ms": 10}

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            LowLevelFeatureExtractor().transform([])
