"""Frame-wise low-level acoustic feature extraction.

Audio is cut into 25 ms frames advanced by 10 ms and each frame is mapped
to a 34-dimensional feature vector. The feature set and its order are
frozen (checkpoints depend on them):

    [0]      zero crossing rate
    [1]      short-time energy (mean square)
    [2]      entropy of energy over 8 sub-blocks
    [3]      spectral centroid (fraction of Nyquist)
    [4]      spectral spread (fraction of Nyquist)
    [5]      spectral entropy over 8 bands
    [6]      spectral flux vs the previous frame (0 for the first)
    [7]      spectral rolloff at 0.90 of total power
    [8..20]  13 MFCCs (Hamming window, 40 HTK mel filters, orthonormal DCT-II)
    [21..32] 12 chroma-class energies (A440 reference, power-normalized)
    [33]     chroma deviation (population std of the 12 chroma values)

Frames are a read-only strided view of the samples, never copied. One
batched real FFT per clip (Hamming window, zero-padded to the next power of
two) gives the [n × bins] magnitude matrix that every spectral feature
shares; each feature is then a row operation over the frame or spectrum
matrix, so a whole clip costs one FFT call and no per-frame Python loop.
``extract_llf``, the features of one frame, runs the same code with n = 1.
"""

from __future__ import annotations

import hashlib
import wave
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError

SAMPLE_RATE = 16000
FRAME_WIDTH_MS = 25
FRAME_STEP_MS = 10
N_FEATURES = 34

FEATURE_NAMES: tuple[str, ...] = (
    "zcr", "energy", "energy_entropy", "spectral_centroid", "spectral_spread",
    "spectral_entropy", "spectral_flux", "spectral_rolloff",
    *(f"mfcc_{i}" for i in range(13)),
    *(f"chroma_{i}" for i in range(12)),
    "chroma_deviation",
)

_EPS = 1e-10
_MEL_BANDS = 40


def feature_order_hash() -> str:
    """Stable fingerprint of the feature list; stored in checkpoints."""
    return hashlib.sha256(",".join(FEATURE_NAMES).encode()).hexdigest()[:16]


@dataclass
class AudioClip:
    """Mono audio samples in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise InputError(f"audio must be a nonempty 1-d array, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise InputError("audio contains non-finite samples")
        if np.abs(self.samples).max() > 1.0:
            raise InputError("audio samples must lie in [-1, 1]; normalize before loading")
        if self.sample_rate <= 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate}")


@dataclass
class FrameFeatureMatrix:
    """Feature column per frame: shape [34 × n]."""

    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != N_FEATURES:
            raise InputError(
                f"feature matrix must be [{N_FEATURES} × n], got shape {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise InputError("feature matrix contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.features.shape[1]


def read_wav(path) -> AudioClip:
    """Read a RIFF WAV file; only 16 kHz mono 16-bit PCM is accepted."""
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError, RuntimeError) as exc:  # RuntimeError: a chunk size past the end
        raise InputError(f"not a readable WAV file: {path} ({exc!r})") from exc
    if channels != 1:
        raise InputError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise InputError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate != SAMPLE_RATE:
        raise InputError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz; resample first")
    if len(raw) % 2:
        raise InputError(f"{path}: truncated inside a sample")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples, rate)


def write_wav(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE) -> None:
    """Write mono 16-bit PCM; samples are clipped to [-1, 1]."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(pcm.tobytes())


def frame_signal(clip: AudioClip) -> np.ndarray:
    """Cut the clip into 25 ms frames advanced by 10 ms; returns a read-only
    [n × win] view of the samples with trailing samples dropped.

    n = (num_samples - win) // hop + 1 with win/hop in samples.
    """
    win = clip.sample_rate * FRAME_WIDTH_MS // 1000
    hop = clip.sample_rate * FRAME_STEP_MS // 1000
    if hop < 1:
        raise InputError(f"a {FRAME_STEP_MS} ms step is under one sample at {clip.sample_rate} Hz")
    if clip.samples.size < win:
        raise InputError(
            f"clip of {clip.samples.size} samples is shorter than one {win}-sample frame")
    return np.lib.stride_tricks.sliding_window_view(clip.samples, win)[::hop]


# ---------------------------------------------------------------------------
# features of a [n × win] frame matrix; extract_llf is its n=1 case


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


@lru_cache(maxsize=8)
def _hamming(length: int) -> np.ndarray:
    return np.hamming(length)


@lru_cache(maxsize=8)
def _mel_filterbank(nfft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters [40 × nfft//2+1] on the HTK mel scale, 0..Nyquist."""
    def to_mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    def to_hz(mel):
        return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

    edges = to_hz(np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), _MEL_BANDS + 2))
    bin_hz = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_hz - left) / (center - left)
    falling = (right - bin_hz) / (right - center)
    return np.maximum(0.0, np.minimum(rising, falling))


@lru_cache(maxsize=1)
def _dct_matrix() -> np.ndarray:
    """The first 13 orthonormal DCT-II rows over the mel bands:
    D[k, i] = s_k cos(pi (2i+1) k / 2n), n = 40."""
    n = _MEL_BANDS
    i = np.arange(n)
    mat = np.cos(np.pi * np.outer(np.arange(13), 2 * i + 1) / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


@lru_cache(maxsize=8)
def _chroma_indicator(nfft: int, sample_rate: int) -> np.ndarray:
    """[12 × nfft//2+1]: 1 where a bin belongs to a pitch class (A440
    reference); the DC column is all zero."""
    bin_hz = np.arange(1, nfft // 2 + 1) * (sample_rate / nfft)
    classes = np.round(12.0 * np.log2(bin_hz / 440.0)).astype(np.int64) % 12
    indicator = np.zeros((12, nfft // 2 + 1))
    indicator[classes, np.arange(1, nfft // 2 + 1)] = 1.0
    return indicator


def _magnitudes(frames: np.ndarray) -> np.ndarray:
    """|rFFT| of every Hamming-windowed, zero-padded row: [n × nfft//2+1]."""
    win = frames.shape[1]
    return np.abs(np.fft.rfft(frames * _hamming(win), _next_pow2(win), axis=1))


def _normalize_rows(x: np.ndarray, totals: np.ndarray | None = None) -> np.ndarray:
    """Rows divided by their totals (default: their sums); zero-total rows stay 0."""
    totals = x.sum(axis=1, keepdims=True) if totals is None else totals[:, None]
    return np.divide(x, totals, out=np.zeros_like(x), where=totals > 0.0)


def _entropy_rows(parts: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row's share of its total; 0 for zero rows."""
    p = _normalize_rows(parts)
    return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=1)


def _frame_features(frames: np.ndarray, sample_rate: int,
                    prev_frame: np.ndarray | None = None) -> np.ndarray:
    """The [34 × n] feature matrix of a [n × win] frame matrix.

    Row i's spectral flux compares against row i-1; row 0's against
    prev_frame, or is 0 when prev_frame is None.
    """
    n, win = frames.shape
    if win < 2:
        raise InputError(f"need a frame of at least 2 samples, got {win}")
    mag = _magnitudes(frames)
    power = mag * mag
    total_power = power.sum(axis=1)
    nfft = _next_pow2(win)
    n_bins = mag.shape[1]
    bin_hz = np.arange(n_bins) * (sample_rate / nfft)
    out = np.empty((N_FEATURES, n), dtype=np.float64)

    squares = frames * frames
    # sign changes per adjacent pair; sign(0) counts as +1
    out[0] = np.count_nonzero(np.diff(frames >= 0.0, axis=1), axis=1) / (win - 1)
    out[1] = squares.mean(axis=1)
    n_blocks = min(8, win)
    blocks = squares[:, :n_blocks * (win // n_blocks)].reshape(n, n_blocks, -1)
    out[2] = _entropy_rows(blocks.sum(axis=2))

    # centroid and spread are moments of the L1-normalised magnitudes
    mag_l1 = _normalize_rows(mag)
    centroid_hz = mag_l1 @ bin_hz
    out[3] = centroid_hz / (sample_rate / 2.0)
    out[4] = np.sqrt((((bin_hz - centroid_hz[:, None]) ** 2) * mag_l1).sum(axis=1)) \
        / (sample_rate / 2.0)

    n_bands = min(8, n_bins)
    bands = power[:, :n_bands * (n_bins // n_bands)].reshape(n, n_bands, -1)
    out[5] = _entropy_rows(bands.sum(axis=2))

    prev_l1 = np.empty_like(mag_l1)
    prev_l1[1:] = mag_l1[:-1]
    prev_l1[0] = mag_l1[0] if prev_frame is None else \
        _normalize_rows(_magnitudes(np.asarray(prev_frame, dtype=np.float64)[None]))[0]
    out[6] = np.sqrt(((mag_l1 - prev_l1) ** 2).sum(axis=1))

    # a silent row's cumsum is all >= 0, so argmax gives it rolloff 0
    reached = np.cumsum(power, axis=1) >= 0.90 * total_power[:, None]
    out[7] = np.argmax(reached, axis=1) / n_bins

    mel_energies = power @ _mel_filterbank(nfft, sample_rate).T
    out[8:21] = (np.log(np.maximum(mel_energies, _EPS)) @ _dct_matrix().T).T
    chroma = _normalize_rows(power @ _chroma_indicator(nfft, sample_rate).T, total_power)
    out[21:33] = chroma.T
    out[33] = chroma.std(axis=1)
    return out


def extract_llf(frame: np.ndarray, sample_rate: int,
                prev_frame: np.ndarray | None = None) -> np.ndarray:
    """The 34-dimensional feature vector of one frame.

    Spectral flux compares against prev_frame; pass None for the first
    frame of an utterance (flux is then 0).
    """
    frame = np.asarray(frame, dtype=np.float64).reshape(1, -1)
    return _frame_features(frame, sample_rate, prev_frame)[:, 0]


def utterance_features(clip: AudioClip) -> FrameFeatureMatrix:
    """Feature matrix [34 × n] for a whole clip; column i describes frame i."""
    return FrameFeatureMatrix(_frame_features(frame_signal(clip), clip.sample_rate))
