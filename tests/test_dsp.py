"""Tests for audio framing and low-level feature extraction.

The reference implementations here recompute every feature straight from
its stated definition (direct DFT sums, explicit filter loops) and never
call into the production helpers, so they stand as an independent oracle.
"""

import numpy as np
import pytest

from emofuse import dsp
from emofuse.errors import InputError


# ---------------------------------------------------------------------------
# straight-from-definition reference implementations


def ref_hamming(length):
    i = np.arange(length)
    return 0.54 - 0.46 * np.cos(2 * np.pi * i / (length - 1))


def ref_next_pow2(n):
    size = 1
    while size < n:
        size *= 2
    return size


def ref_dft_magnitude(frame):
    """|DFT| of the Hamming-windowed frame via direct cosine/sine sums."""
    x = frame * ref_hamming(frame.size)
    nfft = ref_next_pow2(frame.size)
    n = np.arange(x.size)
    mags = np.empty(nfft // 2 + 1)
    for k in range(nfft // 2 + 1):
        angle = 2 * np.pi * k * n / nfft
        re = (x * np.cos(angle)).sum()
        im = -(x * np.sin(angle)).sum()
        mags[k] = np.hypot(re, im)
    return mags


def ref_mel(hz):
    return 2595.0 * np.log10(1.0 + hz / 700.0)


def ref_mel_inv(mel):
    return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)


def ref_mfcc(frame, sample_rate, n_mels=40, n_coeffs=13):
    mag = ref_dft_magnitude(frame)
    nfft = ref_next_pow2(frame.size)
    power = mag ** 2
    edges = [ref_mel_inv(m) for m in
             np.linspace(0.0, ref_mel(sample_rate / 2.0), n_mels + 2)]
    energies = np.zeros(n_mels)
    for j in range(n_mels):
        for k in range(mag.size):
            f = k * sample_rate / nfft
            left, center, right = edges[j], edges[j + 1], edges[j + 2]
            if left < f < right:
                w = (f - left) / (center - left) if f <= center else (right - f) / (right - center)
                energies[j] += w * power[k]
    log_e = np.log(np.maximum(energies, 1e-10))
    coeffs = np.zeros(n_coeffs)
    for k in range(n_coeffs):
        s = np.sqrt(1.0 / n_mels) if k == 0 else np.sqrt(2.0 / n_mels)
        coeffs[k] = s * sum(log_e[i] * np.cos(np.pi * (2 * i + 1) * k / (2 * n_mels))
                            for i in range(n_mels))
    return coeffs


def ref_entropy(parts):
    total = sum(parts)
    if total <= 0:
        return 0.0
    h = 0.0
    for e in parts:
        p = e / total
        if p > 0:
            h -= p * np.log2(p)
    return h


def ref_llf(frame, sample_rate, prev_frame=None):
    out = np.zeros(34)
    mag = ref_dft_magnitude(frame)
    power = mag ** 2
    nfft = ref_next_pow2(frame.size)
    freqs = np.array([k * sample_rate / nfft for k in range(mag.size)])

    signs = [1.0 if s >= 0 else -1.0 for s in frame]
    out[0] = sum(abs(signs[i] - signs[i - 1]) for i in range(1, len(signs))) \
        / (2.0 * (len(frame) - 1))
    out[1] = sum(s * s for s in frame) / len(frame)

    n_blocks = min(8, frame.size)
    block = frame.size // n_blocks
    out[2] = ref_entropy([sum(s * s for s in frame[j * block:(j + 1) * block])
                          for j in range(n_blocks)])

    if mag.sum() > 0:
        centroid = (freqs * mag).sum() / mag.sum()
        spread = np.sqrt((((freqs - centroid) ** 2) * mag).sum() / mag.sum())
        out[3] = centroid / (sample_rate / 2.0)
        out[4] = spread / (sample_rate / 2.0)

    n_bands = min(8, mag.size)
    band = mag.size // n_bands
    out[5] = ref_entropy([power[j * band:(j + 1) * band].sum() for j in range(n_bands)])

    if prev_frame is not None:
        prev_mag = ref_dft_magnitude(prev_frame)
        cur = mag / mag.sum() if mag.sum() > 0 else mag * 0.0
        prv = prev_mag / prev_mag.sum() if prev_mag.sum() > 0 else prev_mag * 0.0
        out[6] = np.sqrt(((cur - prv) ** 2).sum())

    if power.sum() > 0:
        running, k_roll = 0.0, 0
        for k in range(power.size):
            running += power[k]
            if running >= 0.90 * power.sum():
                k_roll = k
                break
        out[7] = k_roll / mag.size

    out[8:21] = ref_mfcc(frame, sample_rate)

    chroma = np.zeros(12)
    if power.sum() > 0:
        for k in range(1, mag.size):
            pc = int(round(12 * np.log2(freqs[k] / 440.0))) % 12
            chroma[pc] += power[k]
        chroma /= power.sum()
    out[21:33] = chroma
    out[33] = np.sqrt(((chroma - chroma.mean()) ** 2).mean())
    return out


def random_frame(rng, length=400):
    return rng.uniform(-0.5, 0.5, length)


# ---------------------------------------------------------------------------


class TestFraming:
    def test_one_second_clip(self):
        clip = dsp.AudioClip(np.zeros(16000))
        frames = dsp.frame_signal(clip)
        assert frames.shape == (98, 400)  # (16000-400)//160 + 1

    def test_exactly_one_frame(self):
        frames = dsp.frame_signal(dsp.AudioClip(np.zeros(400)))
        assert frames.shape == (1, 400)

    def test_too_short_clip(self):
        with pytest.raises(InputError):
            dsp.frame_signal(dsp.AudioClip(np.zeros(399)))

    def test_step_under_one_sample(self):
        with pytest.raises(InputError):
            dsp.frame_signal(dsp.AudioClip(np.zeros(200), sample_rate=50))

    def test_frames_are_contiguous_windows(self):
        clip = dsp.AudioClip(np.linspace(-1, 1, 1000))
        frames = dsp.frame_signal(clip)
        np.testing.assert_array_equal(frames[2], clip.samples[320:720])

    def test_count_formula_random_lengths(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_samples = int(rng.integers(400, 40000))
            frames = dsp.frame_signal(dsp.AudioClip(np.zeros(n_samples)))
            assert frames.shape[0] == (n_samples - 400) // 160 + 1


class TestZeroCrossingRate:
    """Row 0 of the one-frame feature vector."""

    def test_constant_positive(self):
        assert dsp.extract_llf(np.ones(100), 16000)[0] == 0.0

    def test_alternating_is_max(self):
        frame = np.tile([1.0, -1.0], 200)
        assert dsp.extract_llf(frame, 16000)[0] == 1.0

    def test_single_crossing(self):
        frame = np.concatenate([np.ones(200), -np.ones(200)])
        assert dsp.extract_llf(frame, 16000)[0] == pytest.approx(2.0 / (2.0 * 399))


class TestShortTimeEnergy:
    """Row 1 of the one-frame feature vector."""

    def test_zeros(self):
        assert dsp.extract_llf(np.zeros(64), 16000)[1] == 0.0

    def test_full_scale(self):
        assert dsp.extract_llf(np.tile([1.0, -1.0], 32), 16000)[1] == 1.0

    def test_half_scale(self):
        assert dsp.extract_llf(np.array([0.5, 0.5]), 16000)[1] == 0.25


class TestMfcc:
    """Rows 8..20 of the one-frame feature vector."""

    def test_silence_is_dct_of_constant(self):
        coeffs = dsp.extract_llf(np.zeros(400), 16000)[8:21]
        assert coeffs[0] == pytest.approx(np.sqrt(40) * np.log(1e-10), rel=1e-12)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_pure_sine_matches_reference(self):
        t = np.arange(400) / 16000
        frame = 0.7 * np.sin(2 * np.pi * 1000 * t)
        np.testing.assert_allclose(dsp.extract_llf(frame, 16000)[8:21], ref_mfcc(frame, 16000),
                                   atol=1e-6)

    def test_amplitude_doubling_shifts_only_coefficient_zero(self):
        frame = random_frame(np.random.default_rng(1))
        base = dsp.extract_llf(frame, 16000)[8:21]
        doubled = dsp.extract_llf(2 * frame, 16000)[8:21]
        assert doubled[0] - base[0] == pytest.approx(np.sqrt(1 / 40) * 40 * np.log(4), rel=1e-9)
        np.testing.assert_allclose(doubled[1:], base[1:], atol=1e-8)

    def test_too_short_frame(self):
        with pytest.raises(InputError):
            dsp.extract_llf(np.array([0.1]), 16000)


class TestExtractLlf:
    def test_length_is_34(self):
        vec = dsp.extract_llf(random_frame(np.random.default_rng(2)), 16000)
        assert vec.shape == (34,)
        assert len(dsp.FEATURE_NAMES) == 34

    def test_silence_frame(self):
        vec = dsp.extract_llf(np.zeros(400), 16000)
        assert vec[0] == 0.0   # zcr
        assert vec[1] == 0.0   # energy
        assert vec[6] == 0.0   # flux
        assert np.all(np.isfinite(vec))

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(3)
        prev = None
        for _ in range(10):
            frame = random_frame(rng)
            got = dsp.extract_llf(frame, 16000, prev_frame=prev)
            want = ref_llf(frame, 16000, prev_frame=prev)
            np.testing.assert_allclose(got, want, atol=1e-6)
            prev = frame

    def test_finite_on_extreme_inputs(self):
        for frame in (np.zeros(64), np.ones(64), np.full(64, -1.0),
                      np.concatenate([np.zeros(32), np.ones(32)])):
            assert np.all(np.isfinite(dsp.extract_llf(frame, 16000)))


class TestUtteranceFeatures:
    def test_one_second_shape(self):
        clip = dsp.AudioClip(np.random.default_rng(4).uniform(-0.5, 0.5, 16000))
        feats = dsp.utterance_features(clip)
        assert feats.features.shape == (34, 98)

    def test_deterministic(self):
        samples = np.random.default_rng(5).uniform(-0.5, 0.5, 8000)
        a = dsp.utterance_features(dsp.AudioClip(samples)).features
        b = dsp.utterance_features(dsp.AudioClip(samples.copy())).features
        np.testing.assert_array_equal(a, b)

    def test_column_count_matches_framing(self):
        clip = dsp.AudioClip(np.zeros(12345))
        assert dsp.utterance_features(clip).n_frames == dsp.frame_signal(clip).shape[0]

    def test_flux_chains_across_frames(self):
        rng = np.random.default_rng(6)
        clip = dsp.AudioClip(rng.uniform(-0.5, 0.5, 1200))
        frames = dsp.frame_signal(clip)
        feats = dsp.utterance_features(clip).features
        assert feats[6, 0] == 0.0
        want = ref_llf(frames[1], 16000, prev_frame=frames[0])[6]
        assert feats[6, 1] == pytest.approx(want, abs=1e-9)

    def test_every_column_matches_oracle_across_silence_and_dc(self):
        # noise, silence, a constant offset, noise: the batch holds rows with
        # zero magnitude and power and flux into and out of them
        rng = np.random.default_rng(8)
        samples = np.concatenate([rng.uniform(-0.5, 0.5, 1200), np.zeros(1600),
                                  np.full(1600, 0.25), rng.uniform(-0.5, 0.5, 800)])
        clip = dsp.AudioClip(samples)
        frames = dsp.frame_signal(clip)
        assert any(not f.any() for f in frames)
        assert any(f.any() and np.ptp(f) == 0.0 for f in frames)
        feats = dsp.utterance_features(clip).features
        for i in range(frames.shape[0]):
            prev = frames[i - 1] if i > 0 else None
            np.testing.assert_allclose(feats[:, i], ref_llf(frames[i], 16000, prev_frame=prev),
                                       atol=1e-6, err_msg=f"frame {i}")


class TestWavIo:
    def test_round_trip(self, tmp_path):
        samples = np.random.default_rng(7).uniform(-0.9, 0.9, 4000)
        path = tmp_path / "clip.wav"
        dsp.write_wav(path, samples)
        clip = dsp.read_wav(path)
        assert clip.sample_rate == 16000
        np.testing.assert_allclose(clip.samples, samples, atol=2.0 / 32768)

    def test_rejects_wrong_sample_rate(self, tmp_path):
        path = tmp_path / "slow.wav"
        dsp.write_wav(path, np.zeros(800), sample_rate=8000)
        with pytest.raises(InputError, match="8000"):
            dsp.read_wav(path)

    def test_rejects_non_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not audio at all")
        with pytest.raises(InputError):
            dsp.read_wav(path)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda blob: blob[:-1], id="truncated-inside-a-sample"),
        pytest.param(lambda blob: blob[:16] + bytes([blob[16] ^ 1]) + blob[17:],
                     id="fmt-chunk-size-past-its-end"),
    ])
    def test_rejects_corrupt_file(self, tmp_path, corrupt):
        path = tmp_path / "clip.wav"
        dsp.write_wav(path, np.full(800, 0.1))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(InputError):
            dsp.read_wav(path)

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(InputError):
            dsp.AudioClip(np.array([0.0, 1.5]))


class TestFeatureOrderHash:
    def test_stable_and_short(self):
        assert dsp.feature_order_hash() == dsp.feature_order_hash()
        assert len(dsp.feature_order_hash()) == 16
