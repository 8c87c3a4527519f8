"""Frame-to-word alignment and temporal alignment pooling.

Word time spans come from an external forced aligner and are consumed as
input. ``build_alignment`` turns them into a binary block-diagonal matrix
mapping the n frames of an utterance onto its m words; multiplying the
frame-level embedding by that matrix pools each word's frames into one
column. The spans are sorted and disjoint, so each frame belongs to at most
one word and each word's frames form one contiguous block by construction;
``AlignmentMatrix`` checks only that every entry is 0 or 1.
``word_entries`` lists a batch's matrices as pooling entries, checking that
each matrix has one row per frame of its utterance; the model hands them
to its CNN op, which pools inside, and ``temporal_align_pool`` pools one
utterance's embedding with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import DimensionError, InputError


@dataclass(frozen=True)
class WordSpan:
    """One transcript word with its start/end time in milliseconds."""

    token: str
    start_ms: int
    end_ms: int

    def __post_init__(self):
        if not self.token:
            raise InputError("word token must be nonempty")
        if self.start_ms < 0 or self.end_ms <= self.start_ms:
            raise InputError(
                f"word {self.token!r} has invalid span [{self.start_ms}, {self.end_ms})")


@dataclass
class AlignmentMatrix:
    """Binary [n × m] matrix; entry (i, j) = 1 iff frame i belongs to word j."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise InputError(f"alignment matrix must be 2-d, got shape {self.matrix.shape}")
        # every nonzero entry (NaN included) must be a 1
        if np.count_nonzero(self.matrix) != np.count_nonzero(self.matrix == 1.0):
            raise InputError("alignment matrix entries must be 0 or 1")


def check_spans(spans: Sequence[WordSpan]) -> None:
    """Spans must be sorted by start and non-overlapping."""
    for prev, cur in zip(spans, spans[1:]):
        if cur.start_ms < prev.end_ms:
            raise InputError(
                f"word spans overlap or are unsorted: {prev.token!r} [{prev.start_ms},{prev.end_ms}) "
                f"then {cur.token!r} [{cur.start_ms},{cur.end_ms})")


def build_alignment(spans: Sequence[WordSpan], n: int, step_ms: int,
                    width_ms: int) -> AlignmentMatrix:
    """Assign each of n frames to the word whose span contains its center.

    Frame i has center i*step_ms + width_ms/2; it maps to word j iff
    start_ms <= center < end_ms. Frames in gaps get all-zero rows and a
    word that captures no frame centers yields an all-zero column.
    """
    if n < 1:
        raise InputError(f"need at least one frame, got n={n}")
    if not spans:
        raise InputError("need at least one word span")
    check_spans(spans)
    matrix = np.zeros((n, len(spans)), dtype=np.float64)
    centers = np.arange(n) * step_ms + width_ms / 2.0
    # spans are sorted and disjoint: only the last one starting by a center can hold it
    word = np.searchsorted([s.start_ms for s in spans], centers, side="right") - 1
    inside = (word >= 0) & (centers < np.array([s.end_ms for s in spans])[word])
    matrix[inside, word[inside]] = 1.0
    return AlignmentMatrix(matrix)


def word_entries(alignments: Sequence[AlignmentMatrix | np.ndarray], starts: Sequence[int],
                 n_frames: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The pooling entries (cols, words, weights, n_words) of B utterances
    packed side by side: utterance b's n_frames[b] frames start at column
    starts[b], and alignments[b] [n_frames[b] × m_b] maps them to its words.
    Entries run word-major, frames ascending within a word, so each word
    sums its frames in time order."""
    cols, words, weights, n_words = [], [], [], 0
    for b, (a, start, n) in enumerate(zip(alignments, starts, n_frames, strict=True)):
        mat = a.matrix if isinstance(a, AlignmentMatrix) else np.asarray(a)
        # a longer alignment would pool the next utterance's frames
        if mat.ndim != 2 or mat.shape[0] != n:
            raise DimensionError(f"utterance {b}: alignment {mat.shape} needs one row "
                                 f"for each of its {n} frames")
        word, frame = np.nonzero(mat.T)  # word-major, frames ascending per word
        cols.append(start + frame)
        words.append(n_words + word)
        weights.append(mat[frame, word])
        n_words += mat.shape[1]
    return np.concatenate(cols), np.concatenate(words), np.concatenate(weights), n_words


def temporal_align_pool(z: T.Tensor, a: AlignmentMatrix | np.ndarray) -> T.Tensor:
    """Pool frame columns of z [q × n] into word columns [q × m] via z @ A.
    Each word sums its frames in time order, bit-identical to a per-word
    loop and to the model's pooling inside its CNN op."""
    if z.data.ndim != 2:
        raise DimensionError(f"pooling needs a 2-d z, got shape {z.shape}")
    return T.pool_cols(z, *word_entries([a], [0], [z.shape[1]]))
