"""Seeded benchmark inputs, written through the package's public functions.

Two recipes share the synthetic label rule (label = 2*tone + content: the
tone picks the sine carrier band, the content picks the token vocabulary)
and the 200 ms word grid:

- ``short_set`` is ``emofuse.synth_dataset`` itself: 3-5 words per utterance.
- ``long_set`` stretches the recipe to 8-24 words (1.6-4.8 s), like an
  IEMOCAP turn. Word counts are drawn without replacement from a balanced
  multiset, so every seed gives the same length mix in a new order and the
  amount of work does not depend on the seed.

``extract_to_emt`` mirrors ``emofuse extract``: features are computed once
and stored as ``.emt`` files, and the returned records point at them.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from emofuse import UtteranceRecord, WordSpan, data, dsp

WORD_MS = 160
SLOT_MS = 200
LONG_WORDS = range(8, 25)
VOCAB = (("amber", "birch", "cedar", "delta", "ember", "fjord"),
         ("onyx", "prism", "quill", "raven", "slate", "tundra"))
TONE_BANDS = ((350.0, 650.0), (1900.0, 2800.0))


@dataclasses.dataclass
class InputSet:
    records: list[UtteranceRecord]
    embeddings_path: str
    samples: dict[str, int]      # record id -> WAV length in samples


def short_set(out_dir: Path, n_per_class: int, seed: int) -> InputSet:
    """The ``synth_dataset`` recipe: 4 * n_per_class utterances of 3-5 words."""
    ds = data.synth_dataset(out_dir, n_per_class, seed=seed)
    samples = {r.id: dsp.read_wav(r.audio_path).samples.size for r in ds.records}
    return InputSet(ds.records, ds.embeddings_path, samples)


def write_embeddings(out_dir: Path, seed: int) -> str:
    rng = np.random.default_rng(seed + 104729)
    tokens = sorted(VOCAB[0] + VOCAB[1])
    table = data.EmbeddingTable({tok: rng.normal(0.0, 0.4, data.EMBEDDING_DIM)
                                 for tok in tokens})
    path = Path(out_dir) / "embeddings.txt"
    data.save_embeddings(table, path)
    return str(path)


def long_set(out_dir: Path, n: int, seed: int, tag: str) -> InputSet:
    """n utterances of 8-24 words with balanced labels and word counts.

    ``tag`` prefixes every record id, so sets built for different purposes
    never share an id.
    """
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(tag.encode())])
    counts = rng.permutation([LONG_WORDS[i % len(LONG_WORDS)] for i in range(n)])
    sr = dsp.SAMPLE_RATE
    records, samples = [], {}
    for idx, m in enumerate(counts):
        label = idx % 4
        tone, content = label >> 1, label & 1
        vocab = VOCAB[content]
        tokens = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(m)]
        spans = [WordSpan(tok, i * SLOT_MS, i * SLOT_MS + WORD_MS)
                 for i, tok in enumerate(tokens)]
        wave = rng.normal(0.0, 0.008, sr * (m * SLOT_MS + 20) // 1000)
        base_hz = rng.uniform(*TONE_BANDS[tone])
        for i in range(m):
            start = sr * i * SLOT_MS // 1000
            stop = start + sr * WORD_MS // 1000
            t = np.arange(stop - start) / sr
            hz = base_hz * (1.0 + rng.uniform(-0.03, 0.03))
            amp = rng.uniform(0.35, 0.6)
            wave[start:stop] += amp * np.sin(2 * np.pi * hz * t) * np.hanning(stop - start)
        record_id = f"{tag}-{idx:04d}-t{tone}c{content}"
        path = wav_dir / f"{record_id}.wav"
        dsp.write_wav(path, np.clip(wave, -0.95, 0.95), sr)
        records.append(UtteranceRecord(record_id, spans, label, audio_path=str(path)))
        samples[record_id] = wave.size
    return InputSet(records, write_embeddings(out_dir, seed), samples)


def expected_frames(n_samples: int) -> int:
    """Frame count of a clip: 25 ms windows (400 samples) every 10 ms (160)."""
    return (n_samples - 400) // 160 + 1


def extract_to_emt(inputs: InputSet, out_dir: Path) -> tuple[list[UtteranceRecord], list[str]]:
    """Extract every record to ``.emt`` and reload them through a manifest.

    Returns the feature-backed records and one message per record whose
    frame count breaks the framing rule (empty when all is well).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    converted, errors = [], []
    for record in inputs.records:
        features = data.load_record_features(record)
        want = expected_frames(inputs.samples[record.id])
        if features.shape[1] != want:
            errors.append(f"{record.id}: {features.shape[1]} frames, expected {want}")
        path = out_dir / f"{record.id}.emt"
        data.save_array(path, features)
        converted.append(dataclasses.replace(record, audio_path=None,
                                             features_path=path.name))
    manifest = out_dir / "manifest.jsonl"
    data.save_manifest(converted, manifest)
    return data.load_manifest(manifest), errors
