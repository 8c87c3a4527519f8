"""Scikit-learn-style estimators wrapping the training pipeline, and their
input validation.

``ParamsMixin`` implements the scikit-learn get_params/set_params protocol
from the constructor signature, so the estimators clone and grid-search
with sklearn tooling without this package depending on it.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Sequence

import numpy as np

from . import model as M
from . import training
from .data import EMOTIONS, EmbeddingTable, UtteranceRecord, check_label, load_embeddings
from .dsp import AudioClip, read_wav, utterance_features
from .errors import InputError


class ParamsMixin:
    """get_params/set_params/repr derived from the __init__ signature.

    Subclasses must store every constructor argument verbatim under the
    same attribute name (the sklearn convention).
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name, p in signature.parameters.items()
                if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise InputError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_records(records) -> list[UtteranceRecord]:
    """A nonempty sequence of UtteranceRecord, returned as a list."""
    if records is None:
        raise InputError("records must not be None")
    records = list(records)
    if not records:
        raise InputError("need at least one utterance record")
    for r in records:
        if not isinstance(r, UtteranceRecord):
            raise InputError(f"expected UtteranceRecord items, got {type(r).__name__}")
    return records


def check_labels(records: Sequence[UtteranceRecord], y) -> list[int]:
    """Labels from y if given (overriding the records), else from the records;
    each follows ``check_label``."""
    if y is None:
        return [r.label for r in records]
    try:
        values = list(y)
    except TypeError:
        raise InputError(f"y must be a sequence of labels, got {type(y).__name__}") from None
    labels = [check_label(v) for v in values]
    if len(labels) != len(records):
        raise InputError(f"y has {len(labels)} labels for {len(records)} records")
    return labels


def ensure_embedding_table(embeddings) -> EmbeddingTable:
    """Accept an EmbeddingTable or a path to an embedding text file."""
    if embeddings is None:
        raise InputError("an embedding table (or a path to one) is required; "
                         "pass embeddings= to the estimator")
    if isinstance(embeddings, EmbeddingTable):
        return embeddings
    return load_embeddings(embeddings)


def check_is_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise InputError(
            f"this {type(estimator).__name__} instance is not fitted yet; call fit first")


class EmotionRecognizer(ParamsMixin):
    """Multimodal emotion classifier with a fit/predict interface.

    X is a sequence of ``UtteranceRecord``; labels live in the records (or
    pass y to override). The embedding table is a constructor resource:
    either an ``EmbeddingTable`` or a path to an embedding text file.

    The estimator caches the features of every record it fits or predicts,
    for its whole life, with no bound or eviction: 34·n values per distinct
    record of n frames, in the tensor dtype (4 bytes each under float32).

    >>> clf = EmotionRecognizer(embeddings="embeddings.txt", epochs=20)
    >>> clf.fit(records).predict(records)
    """

    def __init__(self, embeddings=None, fusion_mode="tempalign-cme",
                 learning_rate=0.001, adam_beta1=0.9, adam_beta2=0.999,
                 adam_eps=1e-8, epochs=50, batch_size=32, seed=0, clip_norm=5.0):
        self.embeddings = embeddings
        self.fusion_mode = fusion_mode
        self.learning_rate = learning_rate
        self.adam_beta1 = adam_beta1
        self.adam_beta2 = adam_beta2
        self.adam_eps = adam_eps
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.clip_norm = clip_norm

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

    def save(self, path) -> None:
        check_is_fitted(self, "checkpoint_")
        M.save_checkpoint(self.checkpoint_, path)

    @classmethod
    def load(cls, path, embeddings=None) -> "EmotionRecognizer":
        """Rebuild a fitted estimator from a checkpoint file."""
        checkpoint = M.load_checkpoint(path)
        estimator = cls(embeddings=embeddings, fusion_mode=checkpoint.fusion_mode.value)
        return estimator._set_fitted(checkpoint, [])


class LowLevelFeatureExtractor(ParamsMixin):
    """Transformer from audio to [34 × n] frame-feature matrices.

    Accepts AudioClips or WAV paths; stateless, so fit is a no-op. Frames
    are 25 ms advanced by 10 ms, the geometry the word alignment assumes.
    """

    def fit(self, X, y=None):
        return self

    def transform(self, X) -> list[np.ndarray]:
        items = [] if X is None else list(X)  # once: X may be an iterator
        if not items:
            raise InputError("need at least one clip or path")
        out = []
        for item in items:
            clip = item if isinstance(item, AudioClip) else read_wav(item)
            out.append(utterance_features(clip).features)
        return out

    def fit_transform(self, X, y=None) -> list[np.ndarray]:
        return self.fit(X, y).transform(X)
