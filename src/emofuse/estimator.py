"""Scikit-learn-style estimators wrapping the training pipeline."""

from __future__ import annotations

import dataclasses

import numpy as np

from . import model as M
from . import training
from .base import (ParamsMixin, check_is_fitted, check_labels, check_records,
                   ensure_embedding_table)
from .data import EMOTIONS
from .dsp import AudioClip, read_wav, utterance_features
from .errors import InputError


class EmotionRecognizer(ParamsMixin):
    """Multimodal emotion classifier with a fit/predict interface.

    X is a sequence of ``UtteranceRecord``; labels live in the records (or
    pass y to override). The embedding table is a constructor resource:
    either an ``EmbeddingTable`` or a path to an embedding text file.

    >>> clf = EmotionRecognizer(embeddings="embeddings.txt", epochs=20)
    >>> clf.fit(records).predict(records)
    """

    def __init__(self, embeddings=None, fusion_mode="tempalign-cme",
                 learning_rate=0.001, adam_beta1=0.9, adam_beta2=0.999,
                 adam_eps=1e-8, epochs=50, batch_size=32, seed=0,
                 loss_reduction="sum", precision=32, clip_norm=5.0,
                 pool_mode="sum"):
        self.embeddings = embeddings
        self.fusion_mode = fusion_mode
        self.learning_rate = learning_rate
        self.adam_beta1 = adam_beta1
        self.adam_beta2 = adam_beta2
        self.adam_eps = adam_eps
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.loss_reduction = loss_reduction
        self.precision = precision
        self.clip_norm = clip_norm
        self.pool_mode = pool_mode

    def _config(self) -> training.TrainConfig:
        return training.TrainConfig(**{f.name: getattr(self, f.name)
                                       for f in dataclasses.fields(training.TrainConfig)}
                                    ).validate()

    def _cache(self) -> dict:
        if not hasattr(self, "_feature_cache"):
            self._feature_cache = {}
        return self._feature_cache

    def fit(self, X, y=None):
        records = check_records(X)
        labels = check_labels(records, y)
        if y is not None:
            records = [dataclasses.replace(r, label=label)
                       for r, label in zip(records, labels)]
        table = ensure_embedding_table(self.embeddings)
        checkpoint, curve = training.train_fold(records, self._config(), table,
                                                feature_cache=self._cache())
        return self._set_fitted(checkpoint, curve)

    def _set_fitted(self, checkpoint: M.Checkpoint, curve: list[float]) -> "EmotionRecognizer":
        self.checkpoint_ = checkpoint
        self.loss_curve_ = curve
        self.feature_mean_ = checkpoint.feature_mean
        self.feature_std_ = checkpoint.feature_std
        self.classes_ = np.arange(M.N_CLASSES)
        self.emotion_labels_ = EMOTIONS
        return self

    def predict(self, X) -> np.ndarray:
        """Most probable class per record; ties go to the lowest class."""
        return self.predict_proba(X).argmax(axis=1)

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "checkpoint_")
        records = check_records(X)
        table = ensure_embedding_table(self.embeddings)
        _, probs = training.predict(self.checkpoint_, records, table,
                                    feature_cache=self._cache())
        return probs

    def score(self, X, y=None) -> float:
        """Weighted accuracy (overall fraction correct)."""
        records = check_records(X)
        truth = check_labels(records, y)
        predicted = self.predict(records)
        return float(np.mean(np.asarray(truth) == predicted))

    def evaluate(self, X) -> training.EvalReport:
        """Full confusion-matrix report with WA and UA."""
        check_is_fitted(self, "checkpoint_")
        records = check_records(X)
        table = ensure_embedding_table(self.embeddings)
        return training.evaluate(self.checkpoint_, records, table,
                                 feature_cache=self._cache())

    def save(self, path) -> None:
        check_is_fitted(self, "checkpoint_")
        M.save_checkpoint(self.checkpoint_, path)

    @classmethod
    def load(cls, path, embeddings=None) -> "EmotionRecognizer":
        """Rebuild a fitted estimator from a checkpoint file."""
        checkpoint = M.load_checkpoint(path)
        estimator = cls(embeddings=embeddings,
                        fusion_mode=checkpoint.fusion_mode.value,
                        pool_mode=checkpoint.pool_mode)
        return estimator._set_fitted(checkpoint, [])


class LowLevelFeatureExtractor(ParamsMixin):
    """Transformer from audio to [34 × n] frame-feature matrices.

    Accepts AudioClips or WAV paths; stateless, so fit is a no-op.
    """

    def __init__(self, width_ms=25, step_ms=10):
        self.width_ms = width_ms
        self.step_ms = step_ms

    def fit(self, X, y=None):
        return self

    def transform(self, X) -> list[np.ndarray]:
        if X is None or not list(X):
            raise InputError("need at least one clip or path")
        out = []
        for item in X:
            clip = item if isinstance(item, AudioClip) else read_wav(item)
            out.append(utterance_features(clip, self.width_ms, self.step_ms).features)
        return out

    def fit_transform(self, X, y=None) -> list[np.ndarray]:
        return self.fit(X, y).transform(X)
