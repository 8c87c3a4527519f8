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
        if not np.all(np.isin(self.matrix, (0.0, 1.0))):
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
    for j, span in enumerate(spans):
        inside = (centers >= span.start_ms) & (centers < span.end_ms)
        matrix[inside, j] = 1.0
    return AlignmentMatrix(matrix)


def temporal_align_pool(z: T.Tensor, a: AlignmentMatrix | np.ndarray,
                        mode: str = "sum") -> T.Tensor:
    """Pool frame columns of z [q × n] into word columns [q × m] via z @ A.

    mode "sum" multiplies by the binary matrix as-is; mode "mean" divides
    each nonzero column of A by its number of ones first. Each word column
    accumulates its frames sequentially in time order, so the result is
    bit-identical to an explicit per-word summation loop. The words run
    side by side: the k-th frame of every word is gathered at once (a zero
    frame stands in for words with fewer frames), and the loop is over k.
    """
    mat = a.matrix if isinstance(a, AlignmentMatrix) else np.asarray(a, dtype=np.float64)
    if z.data.ndim != 2 or z.shape[1] != mat.shape[0]:
        raise DimensionError(
            f"pooling shapes disagree: z {z.shape} vs alignment {mat.shape}")
    if mode == "mean":
        counts = mat.sum(axis=0)
        mat = mat / np.where(counts > 0, counts, 1.0)
    elif mode != "sum":
        raise InputError(f"pool mode must be 'sum' or 'mean', got {mode!r}")

    weights = mat.astype(z.data.dtype)
    n, m = weights.shape
    words, frames = np.nonzero(weights.T)  # word-major, frames ascending per word
    counts = np.bincount(words, minlength=m)
    offset = np.arange(words.size) - np.repeat(np.cumsum(counts) - counts, counts)
    depth = int(counts.max(initial=0))
    index = np.full((depth, m), n)         # row n of frames_by_row stays zero
    index[offset, words] = frames
    scale = np.zeros((depth, m, 1), dtype=weights.dtype)
    scale[offset, words, 0] = weights[frames, words]
    frames_by_row = np.zeros((n + 1, z.shape[0]), dtype=z.data.dtype)
    frames_by_row[:n] = z.data.T
    gathered = frames_by_row[index]        # [depth × m × q]: k-th frame of each word
    gathered *= scale
    out_t = np.zeros((m, z.shape[0]), dtype=z.data.dtype)
    for k in range(depth):
        out_t += gathered[k]
    out_data = np.ascontiguousarray(out_t.T)

    def grad_fn(g: np.ndarray) -> None:
        z.grad += g @ weights.T

    return T._result(out_data, (z,), grad_fn, "temporal_align_pool")


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
