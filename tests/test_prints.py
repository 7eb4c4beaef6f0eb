import numpy as np
import pytest
import scipy.signal

from printdex.audio import FRAME_PERIOD, AudioBuffer, Spectrogram
from printdex.prints import BAND_STARTS, F_MAX, F_MIN, FLOOR_RATIO, N_LOGFREQ, SEGMENT_FRAMES, analyze, print_matrix

from conftest import make_sine
from stft_oracle import (
    LogLogSpectrogram,
    WindowPastEnd,
    dft2_magnitude,
    extract_window,
    loglog_convert,
    magnitude_stft,
    modify_amplitudes,
    spectrogram,
    split_bands,
)

SR = 11025
N_SEG = SEGMENT_FRAMES
BIN_HZ, PERIOD = Spectrogram.bin_hz, FRAME_PERIOD


def _tone_magnitudes(freq, duration=4.0):
    return magnitude_stft(make_sine(freq, duration=duration))


class TestExtractWindow:
    def test_anchor_zero(self):
        mags = _tone_magnitudes(440)
        seg = extract_window(mags, 0)
        assert seg.shape == (Spectrogram.n_bins, N_SEG)
        assert np.array_equal(seg, mags[:, :N_SEG])

    def test_anchor_too_late_dropped(self):
        mags = _tone_magnitudes(440)
        with pytest.raises(WindowPastEnd):
            extract_window(mags, mags.shape[1] - 10)

    def test_close_anchors_share_columns(self):
        mags = _tone_magnitudes(440)
        offset = int(round(0.25 * Spectrogram.frame_rate))
        assert offset in (12, 13)
        a = extract_window(mags, 0)
        b = extract_window(mags, offset)
        shared = N_SEG - offset
        assert 137 <= shared <= 138
        assert np.array_equal(a[:, offset:], b[:, :shared])


class TestLogLogConvert:
    def test_constant_preserved(self):
        seg = np.full((Spectrogram.n_bins, N_SEG), 2.5)
        h = loglog_convert(seg, BIN_HZ, PERIOD)
        assert h.values.shape == (94, 64)
        assert np.max(np.abs(h.values - 2.5)) < 1e-12

    def test_content_above_range_ignored(self):
        seg = np.zeros((Spectrogram.n_bins, N_SEG))
        first_high_bin = int(np.ceil(5150.0 / BIN_HZ))
        seg[first_high_bin:, :] = 7.0
        h = loglog_convert(seg, BIN_HZ, PERIOD)
        assert np.all(h.values == 0.0)

    def test_pitch_scaling_is_translation(self):
        """Scaling tonal spectra by 18 geometric bins translates the grid.

        The tonal spectrum is built directly on the linear grid with lobe
        widths proportional to frequency, which is what a true scale
        transform produces; matrices are compared max-normalized since pitch
        shift carries a global amplitude scale that the amplitude
        modification removes before the DFT.
        """
        f = np.arange(Spectrogram.n_bins) * BIN_HZ
        t = np.arange(N_SEG) * PERIOD

        def tonal_segment(f0):
            g = np.zeros_like(f)
            for harm in range(1, 6):
                fc = f0 * harm
                if fc < 5300:
                    g += harm**-0.8 * np.exp(-0.5 * ((f - fc) / (0.02 * fc)) ** 2)
            env = 0.6 + 0.4 * np.cos(2 * np.pi * 1.3 * (t - 0.5))
            return np.outer(g, env)

        ratio = (F_MAX / F_MIN) ** (1.0 / (N_LOGFREQ - 1))
        factor = ratio**18  # == 93/log2(f_max/f_min) bins per octave, 18 bins exactly
        h1 = loglog_convert(tonal_segment(300.0), BIN_HZ, PERIOD).values
        h2 = loglog_convert(tonal_segment(300.0 * factor), BIN_HZ, PERIOD).values
        assert np.argmax(h2[:, 5]) - np.argmax(h1[:, 5]) == 18
        interior = slice(25, 70)
        shifted = h1[np.arange(interior.start, interior.stop) - 18, :] / h1.max()
        target = h2[interior] / h2.max()
        err = np.linalg.norm(target - shifted) / np.linalg.norm(target)
        assert err < 0.05

    def test_pitch_shifted_sine_peak_translates(self):
        """Real STFT peaks land on the translated rows (location invariance)."""
        ratio = (F_MAX / F_MIN) ** (1.0 / (N_LOGFREQ - 1))
        factor = ratio**18
        h1 = loglog_convert(extract_window(_tone_magnitudes(280.0), 5), BIN_HZ, PERIOD).values
        h2 = loglog_convert(extract_window(_tone_magnitudes(280.0 * factor), 5), BIN_HZ, PERIOD).values
        assert abs((np.argmax(h2[:, 30]) - np.argmax(h1[:, 30])) - 18) <= 1


class TestSplitBands:
    def test_band_rows(self):
        h = np.arange(94 * 64, dtype=float).reshape(94, 64)
        bands = split_bands(LogLogSpectrogram(h))
        assert len(bands) == 5
        assert np.array_equal(bands[0], h[0:32])
        assert np.array_equal(bands[4], h[62:94])  # the last band ends at row 93

    def test_overlap(self):
        assert BAND_STARTS == (0, 16, 31, 47, 62)
        for a, b in zip(BAND_STARTS, BAND_STARTS[1:]):
            assert a + 32 - b >= 15


class TestModifyAmplitudes:
    def test_all_zero_guard(self):
        out = modify_amplitudes(np.zeros((32, 64)))
        assert np.all(out == 0.0)

    def test_constant_band_normalized(self):
        out = modify_amplitudes(np.full((32, 64), 3.0))
        assert out.max() == pytest.approx(1.0)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_hand_evaluated_toy(self):
        rng = np.random.default_rng(2)
        h = rng.uniform(0, 1, (4, 4))
        h[2, 2] = 5.0
        w = np.outer(scipy.signal.windows.hamming(4), scipy.signal.windows.hamming(4))
        sigma = 0.15 * (h * w).max()
        g = np.maximum(sigma, h) * w
        g = g / g.max()
        expected = np.log(1 + 10 * g) / np.log(11.0)
        got = modify_amplitudes(h)
        assert np.allclose(got, expected)
        assert got.max() == pytest.approx(1.0)

    def test_floor_property(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(0, 2, (32, 64))
        w = np.outer(scipy.signal.windows.hamming(32), scipy.signal.windows.hamming(64))
        sigma = FLOOR_RATIO * (h * w).max()
        floored = np.maximum(sigma, h)
        assert floored.min() >= sigma

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            modify_amplitudes(-np.ones((4, 4)))


class TestDft2:
    def test_all_zero(self):
        p = dft2_magnitude(np.zeros((32, 64)))
        assert p.coeffs.shape == (1056,)
        assert np.all(p.coeffs == 0.0)

    def test_constant_dc_only(self):
        p = dft2_magnitude(np.full((32, 64), 0.5))
        assert p.coeffs[0] == pytest.approx(32 * 64 * 0.5)
        assert np.max(np.abs(p.coeffs[1:])) < 1e-9

    def test_circular_shift_invariance(self):
        rng = np.random.default_rng(4)
        f = rng.uniform(0, 1, (32, 64))
        a = dft2_magnitude(f).coeffs
        b = dft2_magnitude(np.roll(np.roll(f, 7, axis=0), 13, axis=1)).coeffs
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, a.max())


def _music_like(duration, seed=0):
    rng = np.random.default_rng(seed)
    n = int(duration * SR)
    t = np.arange(n) / SR
    env = 0.2 + np.clip(np.sin(2 * np.pi * 2.0 * t), 0, None)
    x = env * rng.standard_normal(n) * 0.3 + 0.4 * env * np.sin(2 * np.pi * 523 * t)
    return AudioBuffer(samples=x / np.abs(x).max(), sample_rate=SR)


class TestComputePrints:
    def test_count_oracle(self):
        from corpus import synth_track

        from printdex.onsets import select_analysis_times

        buf = synth_track(55, duration_s=10.0)
        spec = spectrogram(buf)
        times = select_analysis_times(spec)
        kept, coeffs = print_matrix(spec, times.frames)
        usable = [f for f in times.frames if f + N_SEG <= spec.n_frames]
        assert len(kept) == len(usable)
        assert coeffs.shape == (len(kept), 5, 1056)
        assert 15 <= len(kept) <= 40  # ~28 at 4 anchors/s over 7 usable seconds

    def test_silence_gives_zero_prints(self):
        buf = AudioBuffer(samples=np.zeros(10 * SR), sample_rate=SR)
        spec = spectrogram(buf)
        kept, coeffs = print_matrix(spec, np.array([0, 50]))
        assert len(kept) == 2
        assert np.all(coeffs == 0.0)

    def test_determinism(self):
        buf = _music_like(8.0, seed=6)
        spec = spectrogram(buf)
        k1, c1 = print_matrix(spec, np.array([0, 10, 20]))
        k2, c2 = print_matrix(spec, np.array([0, 10, 20]))
        assert np.array_equal(c1, c2)

    def test_bulk_matches_single_op_path(self):
        """The blocked STFT, the trimmed time map and scipy's rfft2 change no bit."""
        buf = _music_like(6.0, seed=7)
        spec = spectrogram(buf)
        mags = magnitude_stft(buf)
        kept, coeffs = print_matrix(spec, np.array([0, 12, 143]))
        assert kept.tolist() == [0, 12, 143]
        for i, ell in enumerate(kept):
            seg = extract_window(mags, ell)
            h = loglog_convert(seg, BIN_HZ, PERIOD)
            for b, band in enumerate(split_bands(h)):
                assert np.array_equal(coeffs[i, b], dft2_magnitude(modify_amplitudes(band)).coeffs)


class TestMemory:
    def test_analyze_peak_below_10_mb(self):
        """The front end never holds a (bins, frames) matrix: 24.6 MB for 30 s."""
        import tracemalloc

        from corpus import synth_track

        buf = synth_track(12, duration_s=30.0)
        analyze(buf)  # build the cached maps outside the measurement
        tracemalloc.start()
        try:
            analyze(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"analyze peaked at {peak / 1e6:.1f} MB on 30 s"


class TestInvarianceProperties:
    def _smooth_band(self, seed=0):
        """Band matrix with inactive flooring (values well above the floor)."""
        rng = np.random.default_rng(seed)
        # smooth field within [1, ~1.5] so the sigma floor never fires
        bump = np.outer(np.sin(np.linspace(0, np.pi, 32)), np.cos(np.linspace(0, 2, 64))) ** 2
        noise = rng.uniform(0, 0.2, (32, 64))
        smooth = scipy.signal.convolve2d(noise, np.ones((5, 9)) / 45.0, mode="same", boundary="symm")
        return 1.0 + 0.3 * smooth + 0.05 * bump

    def test_filtering_contained_in_first_column(self):
        h = self._smooth_band(seed=8)
        response = np.exp(0.05 * np.sin(np.linspace(0, 3, 32)))  # time-constant filter
        y0 = dft2_magnitude(modify_amplitudes(h)).coeffs.reshape(32, 33)
        y1 = dft2_magnitude(modify_amplitudes(h * response[:, None])).coeffs.reshape(32, 33)
        rest = np.linalg.norm(y1[:, 1:] - y0[:, 1:]) / np.linalg.norm(y0[:, 1:])
        assert rest < 0.10

    def test_modulation_contained_in_first_row(self):
        h = self._smooth_band(seed=9)
        modulation = np.exp(0.05 * np.sin(np.linspace(0, 4, 64)))  # slow amplitude modulation
        y0 = dft2_magnitude(modify_amplitudes(h)).coeffs.reshape(32, 33)
        y1 = dft2_magnitude(modify_amplitudes(h * modulation[None, :])).coeffs.reshape(32, 33)
        rest = np.linalg.norm(y1[1:, :] - y0[1:, :]) / np.linalg.norm(y0[1:, :])
        assert rest < 0.10

    def test_pitch_shift_print_similarity(self):
        """+1 semitone print closer to its original than to 95% of a pool."""
        from corpus import synth_track

        from printdex.degrade import pitch_shift

        def band3_print(buf):
            spec = spectrogram(buf)
            kept, coeffs = print_matrix(spec, np.array([10]))
            return coeffs[0, 2]

        original = synth_track(777, duration_s=5.0)
        shifted_buf = AudioBuffer(samples=pitch_shift(original.samples, SR, 1.0), sample_rate=SR)
        target = band3_print(original)
        shifted = band3_print(shifted_buf)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        sim_target = cosine(shifted, target)
        beats = sum(
            1 for i in range(100) if cosine(shifted, band3_print(synth_track(3000 + i, duration_s=5.0))) < sim_target
        )
        assert beats >= 95
