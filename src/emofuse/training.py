"""Adam optimization, cross-validation orchestration and WA/UA metrics."""

from __future__ import annotations

import dataclasses
import logging
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import model as M
from . import tensor as T
from .data import (EmbeddingTable, PreparedSample, UtteranceRecord, kfold_split,
                   load_record_features, prepare_record)
from .errors import DivergenceError, InputError

logger = logging.getLogger(__name__)

# value kinds accepted per annotated field type; numpy scalars count too
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass
class TrainConfig:
    """Every training knob; CLI flags mirror these field names one-to-one."""

    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    fusion_mode: str = "tempalign-cme"
    loss_reduction: str = "sum"
    precision: int = 32
    clip_norm: float = 5.0
    pool_mode: str = "sum"

    def validate(self) -> "TrainConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_KINDS[f.type]):
                raise InputError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise InputError(f"{f.name} must be finite, got {value}")
        if self.learning_rate <= 0:
            raise InputError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1 and self.adam_eps > 0):
            raise InputError("Adam needs 0 <= beta1, beta2 < 1 and eps > 0, got "
                             f"{self.adam_beta1}, {self.adam_beta2}, {self.adam_eps}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss_reduction not in ("sum", "mean"):
            raise InputError(f"loss_reduction must be sum or mean, got {self.loss_reduction!r}")
        if self.precision not in (32, 64):
            raise InputError(f"precision must be 32 or 64, got {self.precision}")
        if self.pool_mode not in ("sum", "mean"):
            raise InputError(f"pool_mode must be sum or mean, got {self.pool_mode!r}")
        if self.clip_norm < 0:
            raise InputError(f"clip_norm must be >= 0 (0 disables), got {self.clip_norm}")
        M.FusionMode.parse(self.fusion_mode)
        return self


class AdamState:
    """Moment estimates, the step counter, and two scratch buffers as large
    as the largest parameter, in which the update runs."""

    def __init__(self, params: M.ModelParams):
        self.step = 0
        self.moments = {name: (np.zeros_like(t.data), np.zeros_like(t.data))
                        for name, t in params.named()}
        largest = max(params.tensors(), key=lambda t: t.size).data.reshape(-1)
        self.scratch = (np.empty_like(largest), np.empty_like(largest))


def adam_step(params: M.ModelParams, state: AdamState, config: TrainConfig) -> None:
    """Standard Adam update with bias correction (Kingma & Ba 2015, Alg. 1),
    in place and in the operation order of lr·(m/c1)/(√(v/c2) + eps); missing
    grads count as zero."""
    state.step += 1
    b1, b2 = float(config.adam_beta1), float(config.adam_beta2)
    lr, eps = float(config.learning_rate), float(config.adam_eps)
    correction1 = 1.0 - b1 ** state.step
    correction2 = 1.0 - b2 ** state.step
    for name, tensor in params.named():
        grad = tensor.grad if tensor.grad is not None else 0.0
        m, v = state.moments[name]
        step, denom = (buf[:tensor.size].reshape(tensor.shape) for buf in state.scratch)
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=step)
        v *= b2
        v += np.multiply(np.multiply(grad, 1.0 - b2, out=step), grad, out=step)
        np.multiply(np.divide(m, correction1, out=step), lr, out=step)
        np.add(np.sqrt(np.divide(v, correction2, out=denom), out=denom), eps, out=denom)
        tensor.data -= np.divide(step, denom, out=step)


def clip_gradients(params: M.ModelParams, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    grads = [t.grad for t in params.tensors() if t.grad is not None]
    for g in grads:
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


# ---------------------------------------------------------------------------
# metrics


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int],
                     n_classes: int = M.N_CLASSES) -> np.ndarray:
    """Rows are true classes, columns predicted."""
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        out[t, p] += 1
    return out


def weighted_accuracy(confusion: np.ndarray) -> float:
    """Overall fraction of correct predictions."""
    total = confusion.sum()
    return float(np.trace(confusion) / total) if total else 0.0


def unweighted_accuracy(confusion: np.ndarray) -> tuple[float, list[float | None], list[int]]:
    """Mean per-class recall; classes with zero support are excluded.

    Returns (ua, per-class recall with None for empty classes, excluded ids).
    """
    recalls: list[float | None] = []
    excluded: list[int] = []
    supported: list[float] = []
    for k in range(confusion.shape[0]):
        support = confusion[k].sum()
        if support == 0:
            recalls.append(None)
            excluded.append(k)
        else:
            r = float(confusion[k, k] / support)
            recalls.append(r)
            supported.append(r)
    ua = float(np.mean(supported)) if supported else 0.0
    return ua, recalls, excluded


@dataclass
class EvalReport:
    """Confusion matrix and the two headline scores for one evaluation."""

    confusion: np.ndarray
    wa: float
    ua: float
    per_class_recall: list[float | None]
    excluded_classes: list[int]
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "wa": self.wa,
            "ua": self.ua,
            "per_class_recall": self.per_class_recall,
            "excluded_classes": self.excluded_classes,
            "n_samples": self.n_samples,
        }


def report_from_confusion(confusion: np.ndarray) -> EvalReport:
    confusion = np.asarray(confusion, dtype=np.int64)
    ua, recalls, excluded = unweighted_accuracy(confusion)
    return EvalReport(
        confusion=confusion,
        wa=weighted_accuracy(confusion),
        ua=ua,
        per_class_recall=recalls,
        excluded_classes=excluded,
        n_samples=int(confusion.sum()),
    )


# ---------------------------------------------------------------------------
# data preparation


def _source_key(record: UtteranceRecord) -> tuple[int, int, int, int]:
    """The feature source file's identity (device and inode, which resolve
    any path or link) plus its size and mtime: a cache key that neither a
    reused record id nor a rewritten file can alias. It takes one stat call,
    where Path.resolve() takes one per path component."""
    stat = os.stat(record.audio_path or record.features_path)
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def gather_features(records: Sequence[UtteranceRecord],
                    cache: dict[tuple, np.ndarray] | None = None) -> list[np.ndarray]:
    """Raw feature matrices in record order (ids need not be unique); the
    cache, keyed by feature source file, persists across folds, modes and
    datasets. Without one, a fresh cache still loads each file once."""
    if cache is None:
        cache = {}
    out: list[np.ndarray] = []
    for record in records:
        key = _source_key(record)
        if key not in cache:
            cache[key] = load_record_features(record)
        out.append(cache[key])
    return out


def feature_stats(features: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and std over all frames; std floored at 1e-8."""
    stacked = np.concatenate(list(features), axis=1)
    mean = stacked.mean(axis=1)
    std = np.maximum(stacked.std(axis=1), 1e-8)
    return mean, std


def prepare_all(records: Sequence[UtteranceRecord], table: EmbeddingTable,
                stats: tuple[np.ndarray, np.ndarray] | None,
                features: Sequence[np.ndarray]) -> list[PreparedSample]:
    """Model-ready samples; features[i] belongs to records[i]."""
    return [prepare_record(r, table, stats=stats, features=f)
            for r, f in zip(records, features, strict=True)]


# ---------------------------------------------------------------------------
# training and evaluation


def train_fold(records: Sequence[UtteranceRecord], config: TrainConfig,
               table: EmbeddingTable,
               feature_cache: dict[tuple, np.ndarray] | None = None,
               ) -> tuple[M.Checkpoint, list[float]]:
    """Train on one split; returns the checkpoint and the per-epoch mean loss.

    Feature z-normalization statistics come from this training split and are
    stored in the checkpoint. Mini-batches are reshuffled every epoch from
    the config seed, so identical inputs give identical loss curves.
    """
    config.validate()
    if not records:
        raise InputError("training set is empty")
    mode = M.FusionMode.parse(config.fusion_mode)
    raw = gather_features(records, feature_cache)
    stats = feature_stats(raw)

    with T.precision(config.precision):
        prepared = prepare_all(records, table, stats, raw)
        params = M.init_params(config.seed)
        state = AdamState(params)
        shuffle_rng = np.random.default_rng(config.seed + 1)
        curve: list[float] = []
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(prepared))
            epoch_total = 0.0
            norms = []
            for start in range(0, len(order), config.batch_size):
                batch = [prepared[i] for i in order[start:start + config.batch_size]]
                try:
                    batch_loss = M.loss(batch, params, mode,
                                        reduction=config.loss_reduction,
                                        pool_mode=config.pool_mode)
                    value = batch_loss.item()
                    if not math.isfinite(value):
                        raise FloatingPointError("loss is not finite")
                    params.zero_grad()
                    T.backward(batch_loss)
                except FloatingPointError as exc:
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}, batch starting {start}: {exc}"
                    ) from exc
                norms.append(clip_gradients(params, config.clip_norm))
                adam_step(params, state, config)
                epoch_total += value if config.loss_reduction == "sum" else value * len(batch)
            curve.append(epoch_total / len(prepared))
            clipped = sum(0 < config.clip_norm < norm for norm in norms)
            logger.debug("epoch %d/%d mean loss %.6f, max pre-clip gradient norm %.4g, "
                         "clip rate %.2f", epoch + 1, config.epochs, curve[-1], max(norms),
                         clipped / len(norms))

    checkpoint = M.Checkpoint(
        params=params,
        fusion_mode=mode,
        feature_mean=stats[0],
        feature_std=stats[1],
        pool_mode=config.pool_mode,
    )
    return checkpoint, curve


def predict(checkpoint: M.Checkpoint, records: Sequence[UtteranceRecord],
            table: EmbeddingTable,
            feature_cache: dict[tuple, np.ndarray] | None = None,
            batch_size: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """(labels, probabilities [N × 4]) for records under a trained checkpoint.

    Ties in the argmax go to the lowest class index.
    """
    if not records:
        raise InputError("nothing to predict")
    raw = gather_features(records, feature_cache)
    prepared = prepare_all(records, table, checkpoint.stats(), raw)
    probs = np.empty((len(prepared), M.N_CLASSES))
    for start in range(0, len(prepared), batch_size):
        chunk = prepared[start:start + batch_size]
        out = M.forward_batch(chunk, checkpoint.params, checkpoint.fusion_mode,
                              pool_mode=checkpoint.pool_mode)
        probs[start:start + len(chunk)] = out.data.T
    return probs.argmax(axis=1), probs


def evaluate(checkpoint: M.Checkpoint, records: Sequence[UtteranceRecord],
             table: EmbeddingTable,
             feature_cache: dict[tuple, np.ndarray] | None = None,
             batch_size: int = 32) -> EvalReport:
    """Confusion matrix plus WA and UA on a record set."""
    labels, _ = predict(checkpoint, records, table, feature_cache, batch_size)
    truth = [r.label for r in records]
    return report_from_confusion(confusion_matrix(truth, labels))


@dataclass
class CrossValReport:
    """Per-fold evaluations and their averages for one fusion mode."""

    fusion_mode: str
    fold_reports: list[EvalReport] = field(default_factory=list)

    @property
    def mean_wa(self) -> float:
        return float(np.mean([r.wa for r in self.fold_reports]))

    @property
    def mean_ua(self) -> float:
        return float(np.mean([r.ua for r in self.fold_reports]))

    def to_dict(self) -> dict:
        return {
            "fusion_mode": self.fusion_mode,
            "folds": [r.to_dict() for r in self.fold_reports],
            "mean_wa": self.mean_wa,
            "mean_ua": self.mean_ua,
        }


def cross_validate(records: Sequence[UtteranceRecord], config: TrainConfig,
                   table: EmbeddingTable, k: int = 5,
                   feature_cache: dict[tuple, np.ndarray] | None = None,
                   ) -> CrossValReport:
    """k-fold cross-validation of one fusion mode; reports per-fold and mean."""
    config.validate()
    plan = kfold_split(records, k=k, seed=config.seed)
    plan.check_partition([r.id for r in records])
    by_id = {r.id: r for r in records}
    if feature_cache is None:
        feature_cache = {}
    report = CrossValReport(fusion_mode=M.FusionMode.parse(config.fusion_mode).value)
    for fold_idx, fold in enumerate(plan.folds):
        fold_config = dataclasses.replace(config, seed=config.seed + fold_idx)
        train_records = [by_id[rid] for rid in fold["train"]]
        test_records = [by_id[rid] for rid in fold["test"]]
        checkpoint, curve = train_fold(train_records, fold_config, table, feature_cache)
        fold_report = evaluate(checkpoint, test_records, table, feature_cache)
        logger.info("fold %d (%s): wa=%.4f ua=%.4f final_loss=%.4f",
                    fold_idx, report.fusion_mode, fold_report.wa, fold_report.ua, curve[-1])
        report.fold_reports.append(fold_report)
    return report


def run_ablation(records: Sequence[UtteranceRecord], config: TrainConfig,
                 table: EmbeddingTable, modes: Sequence[str], k: int = 5,
                 ) -> dict[str, CrossValReport]:
    """Cross-validate each fusion mode on the same folds and features."""
    feature_cache: dict[tuple, np.ndarray] = {}
    reports: dict[str, CrossValReport] = {}
    for mode in modes:
        mode_value = M.FusionMode.parse(mode).value
        mode_config = dataclasses.replace(config, fusion_mode=mode_value)
        reports[mode_value] = cross_validate(records, mode_config, table, k=k,
                                             feature_cache=feature_cache)
    return reports


def format_ablation_table(reports: dict[str, CrossValReport]) -> str:
    """Plain-text WA/UA table, one row per fusion mode."""
    lines = [f"{'mode':<16}{'WA':>8}{'UA':>8}"]
    for mode, report in reports.items():
        lines.append(f"{mode:<16}{report.mean_wa:>8.4f}{report.mean_ua:>8.4f}")
    return "\n".join(lines)
