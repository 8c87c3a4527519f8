"""The benchmark workloads: set-up, timed phases, output checks and metrics.

Every workload reports every end-to-end metric. Its *main* phase is the
one it exists for and the one a traced run traces; a *side* phase fills
the remaining metrics:

- ``train-utt`` / ``train-word``: main = repeated ``training.train_fold``
  calls on ``.emt`` features; side = serving a 32-record chunk of the
  training set from the checkpoint each call returned, through a freshly
  loaded ``EmotionRecognizer`` (batch-1 cold calls, then warm batch-32
  passes). The side phase also gives the training-set accuracy check.
  Calls and chunks alternate.
- ``infer``: main = the fitted estimator labels held-out WAV records in
  chunks of 32, each record cold at batch 1, then each chunk warm at
  batch 32; side = the estimator fit done in each set-up, which gives the
  training metrics.

Set-up runs three times (``setup_s`` is the median); the measuring segments
sit between the set-ups, so every metric samples the whole run.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable

import numpy as np

from emofuse import EmotionRecognizer, TrainConfig, alignment, data, dsp, model, tensor, training

import gen
from layertrace import Tracer

WORKLOADS = ("train-utt", "train-word", "infer")
SETUP_REPEATS = 3
BATCH = 32
# A classifier that sees one generating factor tops out at 0.5 accuracy.
ACCURACY_FLOOR = 0.6
TRAIN_SEED = 0           # model init and batch order; --seed varies the data
MIN_CALLS = 3            # least train_fold calls per run
MIN_COLD_REPEATS = 3     # least cold batch-1 calls per served training record
WARM_PASSES = 3          # warm passes per served chunk
TRACED_EPOCHS = 6        # epochs of train_fold calls, traced and again untraced

END_TO_END = {
    "setup_s": "s",
    "train_utts_per_s": "utt/s",
    "train_loss_epoch1": "nats",
    "infer_b1_ms_p50": "ms",
    "infer_b1_ms_p90": "ms",
    "infer_b32_utts_per_s": "utt/s",
    "peak_rss_mb": "MB",
}

TENSOR_OPS = ("conv1d_same", "matmul", "linear", "sigmoid", "tanh", "relu", "hadamard",
              "add", "add_bias", "concat_rows", "slice_rows", "slice_cols", "mean_cols",
              "pad_stack_time_major", "maxpool_steps", "softmax_columns", "cross_entropy")


@dataclasses.dataclass(frozen=True)
class Spec:
    mode: str
    epochs: int               # per train_fold call / per fit
    train_set: Callable       # (dir, seed) -> gen.InputSet, extracted to .emt
    held_out: Callable | None = None   # (dir, seed) -> gen.InputSet, kept as WAV


SPECS = {
    # One epoch per train-utt call (training-set accuracy still ~0.98): short
    # calls give ~3x the rounds, so its ~2.5 ms cold calls sample many more
    # sub-second phases of the machine's speed and their p50/p90 repeat.
    "train-utt": Spec("uttconcat", 1, lambda d, s: gen.short_set(d, 40, s)),
    "train-word": Spec("tempalign-cme", 2, lambda d, s: gen.long_set(d, 64, s, "tw")),
    "infer": Spec("tempalign-cme", 3, lambda d, s: gen.long_set(d, 32, s, "infit"),
                  lambda d, s: gen.long_set(d, 160, s, "inheld")),
}


class Ledger:
    """Counts operations and the ones that failed, with a reason for each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.failed += 1
            self.errors.append(reason)
        return ok


@dataclasses.dataclass
class Setup:
    seconds: float
    work: Path
    records: list              # feature-backed training records
    table: data.EmbeddingTable
    inputs: dict               # name -> gen.InputSet, for the input summary
    held_out: list | None = None
    estimator: EmotionRecognizer | None = None
    fit_rate: float | None = None
    fit_curve: list | None = None


def set_up(name: str, seed: int, work: Path, ledger: Ledger) -> Setup:
    """Generate the inputs, extract training features to .emt, fit for infer."""
    spec = SPECS[name]
    if work.exists():
        shutil.rmtree(work)
    ledger.op()
    start = time.perf_counter()
    train_in = spec.train_set(work / "train", seed)
    records, frame_errors = gen.extract_to_emt(train_in, work / "train" / "features")
    ledger.check(not frame_errors, "; ".join(frame_errors[:3]))
    table = data.load_embeddings(train_in.embeddings_path)
    setup = Setup(0.0, work, records, table, {"train": train_in})
    if spec.held_out is not None:
        held = spec.held_out(work / "held", seed)
        setup.held_out, setup.inputs["held_out"] = held.records, held
        ledger.op()
        estimator = EmotionRecognizer(embeddings=table, fusion_mode=spec.mode,
                                      epochs=spec.epochs, batch_size=BATCH, seed=TRAIN_SEED)
        fit_start = time.perf_counter()
        estimator.fit(records)
        setup.fit_rate = len(records) * spec.epochs / (time.perf_counter() - fit_start)
        setup.fit_curve = list(estimator.loss_curve_)
        ledger.check(all(math.isfinite(v) for v in setup.fit_curve), "fit loss not finite")
        setup.estimator = estimator
    setup.seconds = time.perf_counter() - start
    return setup


# ---------------------------------------------------------------------------
# phases


@dataclasses.dataclass
class Samples:
    """What one run measured; the end-to-end metrics are medians of these."""

    train_s: list = dataclasses.field(default_factory=list)      # per train_fold call
    train_rates: list = dataclasses.field(default_factory=list)  # utterance-epochs/s
    curve: list | None = None
    cold_ms: dict = dataclasses.field(default_factory=dict)      # record id -> [ms per cold call]
    warm_rates: list = dataclasses.field(default_factory=list)   # utterances/s per pass
    busy_s: float = 0.0                                          # time in measured calls
    correct: int = 0                  # served records whose warm label is the true one
    labelled: int = 0


def cold_calls(out: Samples) -> int:
    return sum(map(len, out.cold_ms.values()))


def chunks(records: list) -> list:
    return [records[i:i + BATCH] for i in range(0, len(records), BATCH)]


def train_config(name: str) -> TrainConfig:
    spec = SPECS[name]
    return TrainConfig(epochs=spec.epochs, batch_size=BATCH, seed=TRAIN_SEED,
                       fusion_mode=spec.mode)


def train_once(setup: Setup, config: TrainConfig, ledger: Ledger, out: Samples):
    """One timed ``train_fold`` call; every call must give the first call's curve."""
    ledger.op()
    start = time.perf_counter()
    checkpoint, curve = training.train_fold(setup.records, config, setup.table)
    elapsed = time.perf_counter() - start
    out.train_s.append(elapsed)
    out.train_rates.append(len(setup.records) * config.epochs / elapsed)
    out.busy_s += elapsed
    if ledger.check(all(math.isfinite(v) for v in curve), f"loss curve not finite: {curve}"):
        out.curve = out.curve or curve
        ledger.check(curve == out.curve, f"loss curve changed between identical calls: {curve}")
    return checkpoint


def serve_chunk(estimator: EmotionRecognizer, chunk: list, ledger: Ledger, out: Samples) -> list:
    """Cold batch-1 ``predict`` per record, then WARM_PASSES warm passes.

    The estimator must not have seen the chunk's records, so every cold call
    reads, extracts and prepares its features. Returns the cold labels.
    """
    cold = []
    for record in chunk:
        ledger.op()
        start = time.perf_counter()
        cold.append(int(estimator.predict([record])[0]))
        elapsed = time.perf_counter() - start
        out.cold_ms.setdefault(record.id, []).append(1000.0 * elapsed)
        out.busy_s += elapsed
    for _ in range(WARM_PASSES):
        labels = warm_pass(estimator, chunk, cold, ledger, out)
    out.correct += sum(int(label) == r.label for r, label in zip(chunk, labels))
    out.labelled += len(chunk)
    return cold


def warm_pass(estimator: EmotionRecognizer, chunk: list, cold: list, ledger: Ledger,
              out: Samples) -> np.ndarray:
    """One ``predict_proba`` over the chunk (a single batch of up to 32), which
    hits the estimator's feature cache. Checks: probability rows sum to 1,
    and each label equals the cold batch-1 label (padding invariance)."""
    ledger.op()
    start = time.perf_counter()
    probs = estimator.predict_proba(chunk)
    elapsed = time.perf_counter() - start
    out.warm_rates.append(len(chunk) / elapsed)
    out.busy_s += elapsed
    labels = probs.argmax(axis=1)
    if ledger.check(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-5)),
                    "probability rows do not sum to 1"):
        flips = [r.id for r, a, b in zip(chunk, cold, labels) if a != b]
        ledger.check(not flips, f"batch-1 and batch-{len(chunk)} labels differ for {flips[:3]}")
    return labels


def train_segments(name: str, setup: Setup, ledger: Ledger):
    """Measuring segments for a train workload: rounds of one train_fold call,
    then serving a chunk of the training set from the checkpoint it returned.

    ``segment(out, until, left)`` runs rounds until the clock passes
    ``until``; the last segment (``left == 1``) goes on until MIN_CALLS calls
    ran and every training record was served cold MIN_COLD_REPEATS times.
    """
    config = train_config(name)
    path = setup.work / "trained.emc"
    rounds = itertools.cycle(chunks(setup.records))

    def segment(out: Samples, until: float, left: int) -> None:
        while True:
            model.save_checkpoint(train_once(setup, config, ledger, out), path)
            fresh = EmotionRecognizer.load(path, embeddings=setup.table)
            serve_chunk(fresh, next(rounds), ledger, out)
            short = (len(out.train_s) < MIN_CALLS or len(out.cold_ms) < len(setup.records)
                     or min(map(len, out.cold_ms.values())) < MIN_COLD_REPEATS)
            if time.perf_counter() >= until and not (left == 1 and short):
                return

    return segment


def serve_segments(setup: Setup, ledger: Ledger):
    """Measuring segments for infer: each labels its share of the held-out
    chunks cold with the fitted estimator (the last segment all that remain),
    then runs warm passes over the chunks served so far until the clock
    passes ``until``."""
    pending, served = chunks(setup.held_out), []

    def segment(out: Samples, until: float, left: int) -> None:
        take = -(-len(pending) // left)
        for chunk in pending[:take]:
            served.append((chunk, serve_chunk(setup.estimator, chunk, ledger, out)))
        del pending[:take]
        rounds = itertools.cycle(served)
        while time.perf_counter() < until:
            warm_pass(setup.estimator, *next(rounds), ledger, out)

    return segment


# ---------------------------------------------------------------------------
# entry points


def end_to_end(name: str, seed: int, seconds: float, work: Path, ledger: Ledger):
    """SETUP_REPEATS set-ups alternate with as many measuring segments, so the
    samples of every metric spread over the whole run rather than its tail.
    The first set-up's inputs are measured; the others only time set-up."""
    setup = set_up(name, seed, work / "0", ledger)
    setups = [setup]
    segment = (serve_segments(setup, ledger) if name == "infer"
               else train_segments(name, setup, ledger))
    out = Samples()
    for left in range(SETUP_REPEATS, 0, -1):
        segment(out, time.perf_counter() + seconds / SETUP_REPEATS, left)
        if left > 1:
            setups.append(set_up(name, seed, work / str(left), ledger))
            shutil.rmtree(setups[-1].work)
    if name == "infer":
        out.train_rates = [s.fit_rate for s in setups]
        out.curve = setup.fit_curve
        ledger.check(all(s.fit_curve == out.curve for s in setups),
                     "fit loss curve changed between identical set-ups")
    else:
        accuracy = out.correct / out.labelled
        ledger.check(accuracy >= ACCURACY_FLOOR,
                     f"training-set accuracy {accuracy:.3f} is below the floor {ACCURACY_FLOOR}")
    # Batch-1 latency per record is the median of its cold calls (one each in
    # infer, several in the train workloads), so the percentiles are over
    # inputs and a stall of the shared machine in a minority of calls drops out.
    record_ms = [statistics.median(v) for v in out.cold_ms.values()]
    values = {
        "setup_s": statistics.median(s.seconds for s in setups),
        "train_utts_per_s": statistics.median(out.train_rates),
        "train_loss_epoch1": out.curve[0],
        "infer_b1_ms_p50": statistics.median(record_ms),
        "infer_b1_ms_p90": statistics.quantiles(record_ms, n=10)[8],
        "infer_b32_utts_per_s": statistics.median(out.warm_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"train_samples": len(out.train_rates), "cold_samples": cold_calls(out),
              "cold_records": len(out.cold_ms),
              "warm_samples": len(out.warm_rates),
              "served_accuracy": out.correct / out.labelled}
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, setup, detail


def traced(name: str, seed: int, seconds: float, work: Path, ledger: Ledger):
    """The main phase's work, each unit run untraced and then traced.

    Units are train_fold calls (after one untraced warm-up call) for the
    train workloads, and held-out chunks for infer, where the traced copy
    is served by a reloaded estimator so that it is cold as well. The
    overhead is the traced time over the untraced time, minus one.
    """
    setup = set_up(name, seed, work / "0", ledger)
    tracer = layer_tracer()
    plain, seen = Samples(), Samples()
    if name == "infer":
        path = setup.work / "fitted.emc"
        setup.estimator.save(path)
        fresh = EmotionRecognizer.load(path, embeddings=setup.table)
        for chunk in chunks(setup.held_out):
            serve_chunk(setup.estimator, chunk, ledger, plain)
            with tracer:
                serve_chunk(fresh, chunk, ledger, seen)
        overhead = seen.busy_s / plain.busy_s - 1.0
    else:
        config = train_config(name)
        train_once(setup, config, ledger, Samples())
        for _ in range(TRACED_EPOCHS // config.epochs):
            train_once(setup, config, ledger, plain)
            with tracer:
                train_once(setup, config, ledger, seen)
        overhead = statistics.median(seen.train_s) / statistics.median(plain.train_s) - 1.0
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, setup, {"traced_calls": len(seen.train_s) + cold_calls(seen)
                            + len(seen.warm_rates)}


# ---------------------------------------------------------------------------
# per-layer metrics


def _count_frames(counters, args, kwargs, result):
    counters["frames"] += result.n_frames


def _count_assigned(counters, args, kwargs, result):
    a = args[1]
    mat = a.matrix if isinstance(a, alignment.AlignmentMatrix) else np.asarray(a)
    counters["frames_pooled"] += mat.shape[0]
    counters["frames_assigned"] += int(np.count_nonzero(mat.sum(axis=1)))


def _count_steps(counters, args, kwargs, result):
    samples, mode = args[0], model.FusionMode.parse(args[2] if len(args) > 2 else kwargs["mode"])
    words = [1] * len(samples) if mode is model.FusionMode.UTT_CONCAT else [s.n_words for s in samples]
    counters["lstm_steps"] += max(words)
    counters["lstm_cells"] += max(words) * len(samples)
    counters["lstm_real_cells"] += sum(words)


def _count_requested(counters, args, kwargs, result):
    counters["features_requested"] += len(args[0])


def _count_clips(counters, args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    counters["clipped"] += bool(max_norm > 0 and result > max_norm)


SPANS = {
    "dsp.read_wav": ("calls", "busy_s", "self_s"),
    "dsp.utterance_features": ("calls", "busy_s", "self_s"),
    "data.load_record_features": ("calls",),
    "data.load_array": ("calls", "busy_s"),
    "data.prepare_record": ("calls", "busy_s", "self_s"),
    "alignment.build_alignment": ("calls", "busy_s"),
    "alignment.temporal_align_pool": ("calls", "busy_s", "self_s"),
    "model.forward_batch": ("calls", "busy_s", "self_s"),
    "model.acoustic_encode": ("calls", "busy_s"),
    "model.cross_modality_excite": ("calls", "busy_s"),
    **{f"tensor.{op}": ("calls", "fwd_s") for op in TENSOR_OPS},
    "tensor.backward": ("calls", "busy_s"),
    "training.gather_features": ("calls", "busy_s", "self_s"),
    "training.clip_gradients": ("calls", "busy_s", "self_s"),
    "training.adam_step": ("calls", "busy_s", "self_s"),
}

DERIVED = {
    "dsp.frames_per_s": "1/s",
    "alignment.assigned_frame_ratio": "ratio",
    "model.lstm_steps_per_batch": "count",
    "model.lstm_pad_ratio": "ratio",
    "tensor.ops_per_step": "count",
    "training.clip_rate": "ratio",
    "training.feature_cache_hit_ratio": "ratio",
}


def layer_tracer() -> Tracer:
    modules = {"dsp": dsp, "data": data, "alignment": alignment, "model": model,
               "tensor": tensor, "training": training}
    observers = {
        "dsp.utterance_features": _count_frames,
        "alignment.temporal_align_pool": _count_assigned,
        "model.forward_batch": _count_steps,
        "training.gather_features": _count_requested,
        "training.clip_gradients": _count_clips,
    }
    tracer = Tracer()
    for span in SPANS:
        module, attr = span.split(".")
        tracer.add(span, modules[module], attr, observers.get(span))
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    spans, c = tracer.spans, tracer.counters
    out = {}
    for span, stats in SPANS.items():
        s = spans[span]
        for stat in stats:
            value = s.calls if stat == "calls" else (s.self_s if stat == "self_s" else s.busy_s)
            out[f"{span}.{stat}"] = (value, "count" if stat == "calls" else "s")
    forwards = spans["model.forward_batch"].calls
    op_calls = sum(spans[f"tensor.{op}"].calls for op in TENSOR_OPS)
    derived = {
        "dsp.frames_per_s": _ratio(c["frames"], spans["dsp.utterance_features"].busy_s),
        "alignment.assigned_frame_ratio": _ratio(c["frames_assigned"], c["frames_pooled"]),
        "model.lstm_steps_per_batch": _ratio(c["lstm_steps"], forwards),
        "model.lstm_pad_ratio": _ratio(c["lstm_real_cells"], c["lstm_cells"]),
        "tensor.ops_per_step": _ratio(op_calls, forwards),
        "training.clip_rate": _ratio(c["clipped"], spans["training.clip_gradients"].calls),
        "training.feature_cache_hit_ratio": _ratio(
            c["features_requested"] - spans["data.load_record_features"].calls,
            c["features_requested"]),
    }
    out.update({k: (v, DERIVED[k]) for k, v in derived.items()})
    return out


def input_summary(setup: Setup) -> dict:
    """Word-count and frame-count distribution of each generated input set."""
    out = {}
    for label, inputs in setup.inputs.items():
        words = [len(r.words) for r in inputs.records]
        frames = [gen.expected_frames(inputs.samples[r.id]) for r in inputs.records]
        out[label] = {
            "records": len(words),
            "words": {"min": min(words), "mean": statistics.fmean(words), "max": max(words)},
            "frames": {"min": min(frames), "mean": statistics.fmean(frames), "max": max(frames)},
        }
    return out
