"""Dataset manifests, embedding tables, fold plans, tensor files and the
synthetic desk-scale dataset generator.

Manifests are JSON-lines: one self-contained record per line with fields
``id``, ``audio_path`` or ``features_path`` (exactly one), ``words`` (list
of [token, start_ms, end_ms]) and ``label``. Relative paths resolve
against the manifest's directory.
"""

from __future__ import annotations

import json
import logging
import math
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dsp
from .alignment import WordSpan, build_alignment
from .errors import InputError

logger = logging.getLogger(__name__)

EMOTIONS = ("angry", "happy", "neutral", "sad")
EMBEDDING_DIM = 300


@dataclass
class UtteranceRecord:
    """One sample: audio (or precomputed features), word spans and a label."""

    id: str
    words: list[WordSpan]
    label: int
    audio_path: str | None = None
    features_path: str | None = None

    def __post_init__(self):
        if not self.id:
            raise InputError("record id must be nonempty")
        if (self.audio_path is None) == (self.features_path is None):
            raise InputError(
                f"record {self.id!r} must set exactly one of audio_path/features_path")
        source = self.features_path if self.audio_path is None else self.audio_path
        if not isinstance(source, str):
            raise InputError(f"record {self.id!r} has a source path that is not a string")
        if not self.words:
            raise InputError(f"record {self.id!r} has no words")
        if not 0 <= self.label < len(EMOTIONS):
            raise InputError(
                f"record {self.id!r} has label {self.label}, expected 0..{len(EMOTIONS) - 1}")


def _record_to_json(record: UtteranceRecord) -> str:
    payload: dict = {"id": record.id}
    if record.audio_path is not None:
        payload["audio_path"] = record.audio_path
    else:
        payload["features_path"] = record.features_path
    payload["words"] = [[w.token, w.start_ms, w.end_ms] for w in record.words]
    payload["label"] = record.label
    return json.dumps(payload, sort_keys=True)


def save_manifest(records: Sequence[UtteranceRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_record_to_json(record) + "\n")


def _text_lines(path):
    """(line number, text) for each line of a UTF-8 file; a line that does
    not decode raises InputError naming it."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from exc


def _json_int(value, what: str) -> int:
    # int() would truncate 1.9 to 1 and accept true and "3"
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def load_manifest(path) -> list[UtteranceRecord]:
    """Parse and validate a manifest; raises InputError naming the bad line."""
    path = Path(path)
    base = path.parent
    records: list[UtteranceRecord] = []
    seen: set[str] = set()
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            words = [WordSpan(str(t), _json_int(s, "span start"), _json_int(e, "span end"))
                     for t, s, e in payload["words"]]
            record = UtteranceRecord(
                id=str(payload["id"]),
                words=words,
                label=_json_int(payload["label"], "label"),
                audio_path=payload.get("audio_path"),
                features_path=payload.get("features_path"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: invalid record ({exc})") from exc
        if record.id in seen:
            raise InputError(f"{path}:{lineno}: duplicate record id {record.id!r}")
        seen.add(record.id)
        for attr in ("audio_path", "features_path"):
            value = getattr(record, attr)
            if value is None:
                continue
            if not Path(value).is_absolute():
                value = str(base / value)
                setattr(record, attr, value)
            if not Path(value).is_file():
                raise InputError(f"{path}:{lineno}: referenced file {value} does not exist")
        records.append(record)
    if not records:
        logger.warning("manifest %s is empty", path)
    return records


# ---------------------------------------------------------------------------
# embeddings


class EmbeddingTable:
    """token -> 300-d vector; unknown tokens map to zeros with an OOV flag."""

    def __init__(self, vectors: dict[str, np.ndarray], dimension: int = EMBEDDING_DIM):
        self.dimension = dimension
        self._vectors: dict[str, np.ndarray] = {}
        for token, vec in vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (dimension,):
                raise InputError(
                    f"embedding for {token!r} has shape {vec.shape}, expected ({dimension},)")
            self._vectors[token] = vec
        self._zero = np.zeros(dimension, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def lookup(self, token: str) -> tuple[np.ndarray, bool]:
        """Returns (vector, is_oov)."""
        vec = self._vectors.get(token)
        if vec is None:
            return self._zero, True
        return vec, False

    def matrix(self, tokens: Sequence[str]) -> tuple[np.ndarray, int]:
        """Column per token: [dimension × m] plus the OOV count."""
        if not tokens:
            raise InputError("token list must be nonempty")
        out = np.empty((self.dimension, len(tokens)), dtype=np.float64)
        oov = 0
        for j, token in enumerate(tokens):
            vec, is_oov = self.lookup(token)
            out[:, j] = vec
            oov += is_oov
        return out, oov


def load_embeddings(path, dimension: int = EMBEDDING_DIM) -> EmbeddingTable:
    """Read a text table: one line per token, token then `dimension` floats."""
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in _text_lines(path):
        parts = line.split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if len(values) != dimension:
            raise InputError(
                f"{path}:{lineno}: token {token!r} has {len(values)} values, "
                f"expected {dimension}")
        try:
            vectors[token] = np.array([float(v) for v in values])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
        if not np.all(np.isfinite(vectors[token])):
            raise InputError(f"{path}:{lineno}: token {token!r} has a non-finite value")
    return EmbeddingTable(vectors, dimension)


def save_embeddings(table: EmbeddingTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token in sorted(table._vectors):
            vec = table._vectors[token]
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


# ---------------------------------------------------------------------------
# fold plans


@dataclass
class FoldPlan:
    """k disjoint test folds covering the dataset exactly once."""

    k: int
    folds: list[dict[str, list[str]]] = field(default_factory=list)

    def check_partition(self, all_ids: Sequence[str]) -> None:
        test_ids = [rid for fold in self.folds for rid in fold["test"]]
        if sorted(test_ids) != sorted(all_ids):
            raise InputError("fold test sets do not partition the dataset")


def kfold_split(records: Sequence[UtteranceRecord], k: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded shuffle then round-robin assignment of records to test folds."""
    if len(records) < k:
        raise InputError(f"need at least k={k} records, got {len(records)}")
    ids = [r.id for r in records]
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    plan = FoldPlan(k=k)
    for i in range(k):
        test = shuffled[i::k]
        test_set = set(test)
        train = [rid for rid in ids if rid not in test_set]
        plan.folds.append({"train": train, "test": test})
    return plan


# ---------------------------------------------------------------------------
# tensor files

_TENSOR_MAGIC = b"EMOT"
_TENSOR_VERSION = 1
_DTYPE_TAGS = {1: "<f4", 2: "<f8"}
_DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def save_array(path, array: np.ndarray) -> None:
    """Write an array: magic, version, dtype tag, rank, dims, raw LE values."""
    array = np.asarray(array)
    if array.dtype not in _DTYPE_CODES:
        array = array.astype(np.float64)
    code = _DTYPE_CODES[array.dtype]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _TENSOR_MAGIC, _TENSOR_VERSION, code, array.ndim))
        fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
        fh.write(np.ascontiguousarray(array).astype(_DTYPE_TAGS[code]).tobytes())


def load_array(path) -> np.ndarray:
    """Read a tensor file; truncated, oversized, corrupt or non-finite
    content raises InputError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise InputError(f"{path}: truncated tensor file")
    magic, version, code, rank = struct.unpack_from("<4sIII", blob)
    if magic != _TENSOR_MAGIC:
        raise InputError(f"{path}: not a tensor file (bad magic {magic!r})")
    if version != _TENSOR_VERSION:
        raise InputError(f"{path}: unsupported tensor file version {version}")
    if code not in _DTYPE_TAGS or rank > 8:
        raise InputError(f"{path}: corrupt tensor header")
    start = 16 + 4 * rank
    if len(blob) < start:
        raise InputError(f"{path}: truncated tensor header")
    dims = struct.unpack_from(f"<{rank}I", blob, 16)
    dtype = np.dtype(_DTYPE_TAGS[code])
    expected = math.prod(dims) * dtype.itemsize
    if len(blob) - start != expected:
        raise InputError(f"{path}: truncated or oversized tensor payload "
                         f"({len(blob) - start} bytes, the header says {expected})")
    array = np.frombuffer(blob, dtype=dtype, offset=start).reshape(dims).astype(np.float64)
    if not np.all(np.isfinite(array)):
        raise InputError(f"{path}: tensor holds non-finite values")
    return array


# ---------------------------------------------------------------------------
# prepared samples


@dataclass
class PreparedSample:
    """Everything the model needs for one utterance, in numpy form."""

    id: str
    features: np.ndarray        # [34 × n], normalized if stats were given
    alignment: np.ndarray       # [n × m] binary
    token_vectors: np.ndarray   # [300 × m]
    tokens: list[str]
    label: int
    oov_count: int = 0

    @property
    def n_frames(self) -> int:
        return self.features.shape[1]

    @property
    def n_words(self) -> int:
        return self.alignment.shape[1]


def load_record_features(record: UtteranceRecord) -> np.ndarray:
    """Raw (unnormalized) [34 × n] feature matrix for a record."""
    if record.audio_path is not None:
        clip = dsp.read_wav(record.audio_path)
        return dsp.utterance_features(clip).features
    features = load_array(record.features_path)
    if features.ndim != 2 or features.shape[0] != dsp.N_FEATURES:
        raise InputError(
            f"{record.features_path}: expected a [{dsp.N_FEATURES} × n] matrix, "
            f"got shape {features.shape}")
    return features


def prepare_record(record: UtteranceRecord, table: EmbeddingTable,
                   stats: tuple[np.ndarray, np.ndarray] | None = None,
                   features: np.ndarray | None = None) -> PreparedSample:
    """Build the model-ready sample: features, alignment matrix, token vectors.

    ``stats`` is (mean, std) per feature dimension, applied as z-normalization.
    ``features`` short-circuits feature loading (per-dataset cache).
    """
    if features is None:
        features = load_record_features(record)
    if stats is not None:
        mean, std = stats
        features = (features - mean[:, None]) / std[:, None]
    align = build_alignment(record.words, features.shape[1],
                            dsp.FRAME_STEP_MS, dsp.FRAME_WIDTH_MS)
    tokens = [w.token for w in record.words]
    vectors, oov = table.matrix(tokens)
    return PreparedSample(
        id=record.id,
        features=features,
        alignment=align.matrix,
        token_vectors=vectors,
        tokens=tokens,
        label=record.label,
        oov_count=oov,
    )


# ---------------------------------------------------------------------------
# synthetic dataset

_VOCAB_A = ("amber", "birch", "cedar", "delta", "ember", "fjord")
_VOCAB_B = ("onyx", "prism", "quill", "raven", "slate", "tundra")
_WORD_MS = 160
_GAP_MS = 40
_SLOT_MS = _WORD_MS + _GAP_MS
_TONE_BANDS = ((350.0, 650.0), (1900.0, 2800.0))


@dataclass
class SynthDataset:
    records: list[UtteranceRecord]
    manifest_path: str
    embeddings_path: str


def synth_factors(record_id: str) -> tuple[int, int]:
    """Recover the (tone, content) generating bits from a synthetic id."""
    tag = record_id.rsplit("-", 1)[-1]
    if len(tag) != 4 or tag[0] != "t" or tag[2] != "c":
        raise InputError(f"{record_id!r} is not a synthetic record id")
    return int(tag[1]), int(tag[3])


def synth_dataset(out_dir, n_per_class: int, seed: int = 0) -> SynthDataset:
    """Generate a balanced 4-class dataset whose label needs both modalities.

    The label is 2*tone + content: tone picks the sine carrier band of the
    audio (low vs high), content picks the token vocabulary (A vs B).
    Either factor alone narrows the label to two candidates at best, so a
    single-modality classifier tops out near 50% while the joint rule is
    deterministic. Words sit on a fixed 200 ms grid. The matching toy
    embedding table is written next to the manifest.
    """
    if n_per_class < 1:
        raise InputError(f"n_per_class must be >= 1, got {n_per_class}")
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)

    emb_rng = np.random.default_rng(seed + 104729)
    vocab = sorted(_VOCAB_A + _VOCAB_B)
    table = EmbeddingTable({tok: emb_rng.normal(0.0, 0.4, EMBEDDING_DIM) for tok in vocab})
    embeddings_path = out_dir / "embeddings.txt"
    save_embeddings(table, embeddings_path)

    rng = np.random.default_rng(seed)
    sr = dsp.SAMPLE_RATE
    records: list[UtteranceRecord] = []
    idx = 0
    for _ in range(n_per_class):
        for label in range(len(EMOTIONS)):
            tone, content = label >> 1, label & 1
            words = list(_VOCAB_B if content else _VOCAB_A)
            m = int(rng.integers(3, 6))
            tokens = [words[int(rng.integers(0, len(words)))] for _ in range(m)]
            spans = [WordSpan(tok, i * _SLOT_MS, i * _SLOT_MS + _WORD_MS)
                     for i, tok in enumerate(tokens)]

            total_ms = m * _SLOT_MS + 20
            num_samples = sr * total_ms // 1000
            samples = rng.normal(0.0, 0.008, num_samples)
            low, high = _TONE_BANDS[tone]
            base_hz = rng.uniform(low, high)
            for i in range(m):
                start = sr * (i * _SLOT_MS) // 1000
                stop = start + sr * _WORD_MS // 1000
                t = np.arange(stop - start) / sr
                hz = base_hz * (1.0 + rng.uniform(-0.03, 0.03))
                amp = rng.uniform(0.35, 0.6)
                samples[start:stop] += amp * np.sin(2 * np.pi * hz * t) * np.hanning(stop - start)
            samples = np.clip(samples, -0.95, 0.95)

            record_id = f"synth-{idx:04d}-t{tone}c{content}"
            dsp.write_wav(wav_dir / f"{record_id}.wav", samples, sr)
            # manifest paths stay relative so the dataset is relocatable and
            # byte-identical for a given seed regardless of out_dir
            records.append(UtteranceRecord(
                id=record_id,
                words=spans,
                label=label,
                audio_path=f"wavs/{record_id}.wav",
            ))
            idx += 1

    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(records, manifest_path)
    return SynthDataset(load_manifest(manifest_path), str(manifest_path), str(embeddings_path))


def factor_probe_accuracy(train: Sequence[UtteranceRecord],
                          test: Sequence[UtteranceRecord],
                          factor: str) -> float:
    """Accuracy of the best classifier that sees only one generating factor.

    factor is "tone", "content" or "both"; the probe predicts the majority
    training label per factor value (ties to the lowest label), which upper
    bounds anything a learned single-factor model can do.
    """
    def key(record: UtteranceRecord):
        tone, content = synth_factors(record.id)
        return {"tone": tone, "content": content, "both": (tone, content)}[factor]

    counts: dict = {}
    for record in train:
        counts.setdefault(key(record), [0] * len(EMOTIONS))[record.label] += 1
    majority = {k: int(np.argmax(v)) for k, v in counts.items()}
    default = int(np.argmax(np.sum(list(counts.values()), axis=0)))
    hits = sum(majority.get(key(r), default) == r.label for r in test)
    return hits / len(test)
