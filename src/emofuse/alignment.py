"""Frame-to-word alignment and temporal alignment pooling.

Word time spans come from an external forced aligner and are consumed as
input. ``build_alignment`` turns them into a binary block-diagonal matrix
mapping the n frames of an utterance onto its m words; multiplying the
frame-level embedding by that matrix pools each word's frames into one
column.
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

    @property
    def n_frames(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_words(self) -> int:
        return self.matrix.shape[1]


@dataclass
class AlignmentDiagnostics:
    unassigned_frames: int
    empty_words: int


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


def pool_words(z: T.Tensor, alignments: Sequence[AlignmentMatrix | np.ndarray],
               starts: Sequence[int], mode: str = "sum") -> T.Tensor:
    """Word columns [q × Σ m_b] of B utterances whose frames are packed in
    z [q × N]: utterance b's n_b frames start at column starts[b], and
    alignments[b] [n_b × m_b] maps them to its words. Mode "sum" uses each
    binary matrix as-is; "mean" first divides each nonzero column by its
    number of ones. Each word sums its frames in time order, bit-identical
    to a per-word loop and to pooling its utterance alone."""
    if mode not in ("sum", "mean"):
        raise InputError(f"pool mode must be 'sum' or 'mean', got {mode!r}")
    cols, words, weights, n_words = [], [], [], 0
    for a, start in zip(alignments, starts, strict=True):
        mat = a.matrix if isinstance(a, AlignmentMatrix) else np.asarray(a, dtype=np.float64)
        if z.data.ndim != 2 or mat.ndim != 2 or start + mat.shape[0] > z.shape[1]:
            raise DimensionError(f"pooling shapes disagree: z {z.shape} vs alignment "
                                 f"{mat.shape} from column {start}")
        if mode == "mean":
            counts = mat.sum(axis=0)
            mat = mat / np.where(counts > 0, counts, 1.0)
        word, frame = np.nonzero(mat.T)  # word-major, frames ascending per word
        cols.append(start + frame)
        words.append(n_words + word)
        weights.append(mat[frame, word])
        n_words += mat.shape[1]
    return T.pool_cols(z, np.concatenate(cols), np.concatenate(words),
                       np.concatenate(weights), n_words)


def temporal_align_pool(z: T.Tensor, a: AlignmentMatrix | np.ndarray,
                        mode: str = "sum") -> T.Tensor:
    """Pool frame columns of z [q × n] into word columns [q × m] via z @ A:
    the one-utterance case of ``pool_words``."""
    n = (a.matrix if isinstance(a, AlignmentMatrix) else np.asarray(a)).shape[0]
    if z.data.ndim != 2 or z.shape[1] != n:
        raise DimensionError(f"pooling shapes disagree: z {z.shape} vs alignment with {n} frames")
    return pool_words(z, [a], [0], mode)


def validate_alignment(a: AlignmentMatrix) -> AlignmentDiagnostics:
    """Count silence frames and empty words; reject non-block structure.

    A valid matrix has at most one 1 per row, one contiguous row block per
    nonzero column, and blocks ordered left to right with word order.
    """
    mat = a.matrix
    row_sums = mat.sum(axis=1)
    if np.any(row_sums > 1):
        raise InputError("a frame is assigned to more than one word")
    last_end = -1
    for j in range(mat.shape[1]):
        rows = np.flatnonzero(mat[:, j])
        if rows.size == 0:
            continue
        if rows[-1] - rows[0] + 1 != rows.size:
            raise InputError(f"word column {j} has a non-contiguous frame block")
        if rows[0] <= last_end:
            raise InputError(f"word column {j} overlaps or precedes an earlier block")
        last_end = rows[-1]
    return AlignmentDiagnostics(
        unassigned_frames=int((row_sums == 0).sum()),
        empty_words=int((mat.sum(axis=0) == 0).sum()),
    )
