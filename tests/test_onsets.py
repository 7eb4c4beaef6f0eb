import numpy as np
import pytest

from printdex.audio import FRAME_PERIOD, AudioBuffer, Spectrogram
from printdex.onsets import (
    MEAN_LAG,
    N_FILTER,
    SMOOTHER,
    _local_maxima,
    _onset_function,
    _smooth,
    select_analysis_times,
)

from stft_oracle import frame_norms, magnitude_stft, spectrogram

SR = 11025
# half-width in frames of the sliding-maximum window
HALF = int(round(MEAN_LAG * Spectrogram.frame_rate)) // 2


def _maxima_oracle(phi):
    """Frames equal to the maximum over [i - HALF, i + HALF], for series without equal neighbours."""
    return [i for i in range(len(phi)) if phi[i] == max(phi[max(0, i - HALF) : i + HALF + 1])]


class TestDiffSpectralNorms:
    def test_constant_energy(self):
        norms = np.outer(np.arange(1, 5), np.ones(6)).sum(axis=0)
        assert np.allclose(_onset_function(norms), 0.0)

    def test_decreasing_energy_rectified_away(self):
        assert np.allclose(_onset_function([5.0, 3.0]), [0.0, 0.0])

    def test_increasing_energy(self):
        assert np.allclose(_onset_function([3.0, 5.0]), [0.0, 2.0])

    def test_equals_abs_form_on_real_spectrogram(self):
        from corpus import synth_track

        buf = synth_track(5, duration_s=10.0)
        m = magnitude_stft(buf)
        norms = frame_norms(np.abs(m))
        phi = np.zeros(m.shape[1])
        diff = norms[1:] - norms[:-1]
        phi[1:] = np.abs((diff + np.abs(diff)) / 2.0)  # half-wave rectifier (x + |x|) / 2
        assert np.array_equal(_onset_function(spectrogram(buf).norms), phi)


class TestSmoother:
    def test_symmetric_and_normalized(self):
        assert len(SMOOTHER) == N_FILTER + 1
        assert np.allclose(SMOOTHER, SMOOTHER[::-1])
        assert SMOOTHER.sum() == pytest.approx(1.0)

    def test_lowpass_response(self):
        frame_rate = Spectrogram.frame_rate
        freqs = np.fft.rfftfreq(4096, d=1.0 / frame_rate)
        gain = np.abs(np.fft.rfft(SMOOTHER, n=4096))
        assert gain[0] == pytest.approx(1.0)
        assert gain[np.argmin(np.abs(freqs - frame_rate / 2))] < 0.1


class TestPostFilter:
    def test_identity(self):
        """The sum-normalized smoother with reflected edges leaves a constant series as it is."""
        assert np.allclose(_smooth(np.full(50, 0.7)), 0.7)

    def test_impulse_gives_coefficients(self):
        half = N_FILTER // 2
        phi = np.zeros(4 * half + 1)
        phi[2 * half] = 1.0
        out = _smooth(phi)
        assert np.allclose(out[half : 3 * half + 1], SMOOTHER)


class TestSelectTimes:
    def test_impulse_train(self):
        t = 2 * HALF
        phi = np.zeros(20 * t)
        impulses = np.arange(t, 19 * t, 2 * t)
        phi[impulses] = 1.0 + 0.01 * np.arange(len(impulses))
        assert set(impulses).issubset(set(_local_maxima(phi)))

    def test_strictly_increasing(self):
        phi = np.arange(100, dtype=float)
        frames = _local_maxima(phi)
        assert np.array_equal(frames, _maxima_oracle(phi))
        # only frames inside the final window can survive an increasing series
        assert len(frames) >= 1
        assert all(f >= 99 - HALF for f in frames)

    def test_constant_series_first_frame_only(self):
        assert np.array_equal(_local_maxima(np.ones(50)), [0])

    def test_empty_series(self):
        spec = Spectrogram(logfreq=np.zeros((1, 0), dtype=np.float32), norms=np.zeros(0))
        with pytest.raises(ValueError, match=r"^series too short \(0\) for filter support \(10\)$"):
            select_analysis_times(spec)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(7)
        phi = rng.uniform(0, 1, 500)
        assert np.array_equal(_local_maxima(phi), _maxima_oracle(phi))


def _noise_modulated_signal(duration, seed=0):
    """Music-like test signal: noise bursts with a beat plus tonal content."""
    rng = np.random.default_rng(seed)
    n = int(duration * SR)
    t = np.arange(n) / SR
    env = 0.2 + np.clip(np.sin(2 * np.pi * 2.1 * t) + 0.4 * np.sin(2 * np.pi * 0.37 * t), 0, None)
    x = env * rng.standard_normal(n) * 0.2 + 0.3 * np.sin(2 * np.pi * 330 * t) * (env > 0.5)
    return AudioBuffer(samples=x / np.abs(x).max(), sample_rate=SR)


class TestPipelineProperties:
    def test_shift_covariance(self):
        buf = _noise_modulated_signal(12.0, seed=4)
        spec = spectrogram(buf)
        t_frames = int(round(0.25 * spec.frame_rate))
        shift_samples = t_frames * spec.hop_samples
        shifted = AudioBuffer(samples=np.concatenate([np.zeros(shift_samples), buf.samples]), sample_rate=SR)
        sel0 = select_analysis_times(spec)
        sel1 = select_analysis_times(spectrogram(shifted))
        # compare interior selections (away from both boundaries)
        lo, hi = 3 * t_frames, spec.n_frames - 3 * t_frames
        interior0 = set(f + t_frames for f in sel0.frames if lo < f < hi)
        interior1 = set(f for f in sel1.frames if lo + t_frames < f < hi + t_frames)
        matched = sum(1 for f in interior0 if any(abs(f - g) <= 1 for g in interior1))
        assert matched >= 0.9 * len(interior0)

    def test_density_on_music_like_signal(self):
        buf = _noise_modulated_signal(60.0, seed=9)
        sel = select_analysis_times(spectrogram(buf))
        density = len(sel.frames) / buf.duration
        assert 2.0 <= density <= 8.0

    def test_selection_robustness_under_noise(self):
        """Tracked metric: >= 70% of anchors within 40 ms at SNR 12 dB."""
        rates = []
        for seed in range(3):
            buf = _noise_modulated_signal(20.0, seed=seed)
            spec = spectrogram(buf)
            clean = select_analysis_times(spec).frames * FRAME_PERIOD
            rng = np.random.default_rng(100 + seed)
            noise = rng.standard_normal(len(buf.samples))
            noise *= np.sqrt(np.mean(buf.samples**2) / np.mean(noise**2)) * 10 ** (-12 / 20)
            noisy_sel = select_analysis_times(spectrogram(AudioBuffer(samples=buf.samples + noise, sample_rate=SR)))
            matched = sum(1 for t in clean if np.min(np.abs(noisy_sel.frames * FRAME_PERIOD - t)) <= 0.040)
            rates.append(matched / len(clean))
        assert np.mean(rates) >= 0.70
