import numpy as np
import pytest
import scipy.io.wavfile
import scipy.signal

from printdex import audio
from printdex.audio import FFT_SIZE, HOP_SAMPLES, WINDOW_SAMPLES, AudioBuffer, AudioError, load_audio, normalize, resample, save_wav
from printdex.prints import N_LOGFREQ, frequency_map

from conftest import make_sine
from stft_oracle import magnitude_stft, spectrogram

SR = 11025


class TestLoadAudio:
    def test_stereo_int16_scaling(self, tmp_path):
        data = np.full((1000, 2), 16384, dtype=np.int16)
        path = tmp_path / "s.wav"
        scipy.io.wavfile.write(path, 44100, data)
        buf = load_audio(path)
        assert buf.sample_rate == 44100
        assert np.allclose(buf.samples, 0.5)

    def test_all_zero_file(self, tmp_path):
        path = tmp_path / "z.wav"
        scipy.io.wavfile.write(path, SR, np.zeros(500, dtype=np.int16))
        buf = load_audio(path)
        assert np.all(buf.samples == 0.0)

    def test_sine_rms(self, tmp_path):
        t = np.arange(44100) / 44100
        x = 0.8 * np.sin(2 * np.pi * 440 * t)
        path = tmp_path / "sine.wav"
        scipy.io.wavfile.write(path, 44100, (x * 32767).astype(np.int16))
        buf = load_audio(path)
        rms = np.sqrt(np.mean(buf.samples**2))
        assert abs(rms - 0.8 / np.sqrt(2)) < 1e-3

    def test_float32_roundtrip(self, tmp_path):
        x = np.linspace(-0.9, 0.9, 777).astype(np.float32)
        path = tmp_path / "f.wav"
        scipy.io.wavfile.write(path, SR, x)
        buf = load_audio(path)
        assert np.allclose(buf.samples, x, atol=1e-7)

    def test_uint8(self, tmp_path):
        path = tmp_path / "u8.wav"
        scipy.io.wavfile.write(path, SR, np.array([128, 255, 0], dtype=np.uint8))
        buf = load_audio(path)
        assert np.allclose(buf.samples, [0.0, 127 / 128, -1.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_audio(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(AudioError):
            load_audio(path)

    def test_save_roundtrip(self, tmp_path):
        buf = make_sine(440, duration=0.5)
        path = tmp_path / "rt.wav"
        save_wav(path, buf)
        back = load_audio(path)
        assert back.sample_rate == buf.sample_rate
        assert np.max(np.abs(back.samples - buf.samples)) < 1e-4


class TestResample:
    def test_same_rate_passthrough(self):
        buf = make_sine(440)
        assert resample(buf, SR) is buf

    def test_sine_survives(self):
        buf = make_sine(1000, duration=1.0, sr=44100, amp=0.5)
        out = resample(buf, SR)
        assert out.sample_rate == SR
        assert abs(len(out.samples) - len(buf.samples) / 4) <= 1
        # sine-fit oracle on the interior
        t = np.arange(len(out.samples)) / SR
        core = slice(500, len(t) - 500)
        basis = np.column_stack([np.sin(2 * np.pi * 1000 * t[core]), np.cos(2 * np.pi * 1000 * t[core])])
        coeffs, *_ = np.linalg.lstsq(basis, out.samples[core], rcond=None)
        amplitude = np.hypot(*coeffs)
        assert abs(amplitude - 0.5) < 0.005

    def test_above_target_nyquist_rejected(self):
        buf = make_sine(7000, duration=1.0, sr=44100)
        out = resample(buf, SR)
        rms_in = np.sqrt(np.mean(buf.samples**2))
        rms_out = np.sqrt(np.mean(out.samples**2))
        assert rms_out < 0.05 * rms_in

    def test_invalid_target(self):
        with pytest.raises(AudioError):
            resample(make_sine(440), 0)


class TestNormalize:
    def test_scaling(self):
        buf = AudioBuffer(samples=np.array([0.5, -0.25]), sample_rate=SR)
        assert np.allclose(normalize(buf).samples, [1.0, -0.5])

    def test_all_zero_unchanged(self):
        buf = AudioBuffer(samples=np.zeros(10), sample_rate=SR)
        assert np.all(normalize(buf).samples == 0.0)

    def test_negative_peak(self):
        buf = AudioBuffer(samples=np.array([-0.8]), sample_rate=SR)
        assert np.allclose(normalize(buf).samples, [-1.0])


class TestStft:
    """Magnitude properties, checked on the oracle that ``stft``'s reductions equal exactly."""

    def test_all_zero(self):
        buf = AudioBuffer(samples=np.zeros(SR), sample_rate=SR)
        assert np.all(magnitude_stft(buf) == 0.0)
        spec = spectrogram(buf)
        assert np.all(spec.logfreq == 0.0) and np.all(spec.norms == 0.0)
        assert spec.n_bins == FFT_SIZE // 2 + 1

    def test_fft_size_power_of_two(self):
        assert (WINDOW_SAMPLES, HOP_SAMPLES) == (1654, 220)  # 150 ms and 20 ms at 11025 Hz
        assert FFT_SIZE == 4096  # 2049 unilateral bins
        assert FFT_SIZE & (FFT_SIZE - 1) == 0
        assert FFT_SIZE >= 2 * WINDOW_SAMPLES

    def test_bin_centered_sine_argmax(self):
        target_bin = 300
        freq = target_bin * audio.Spectrogram.bin_hz
        interior = magnitude_stft(make_sine(freq, duration=1.0))[:, 3:-3]
        assert np.all(np.argmax(interior, axis=0) == target_bin)

    def test_impulse_flat_spectrum(self):
        win = WINDOW_SAMPLES
        x = np.zeros(2 * win)
        x[win // 2] = 1.0  # center of frame 0
        # impulse through a Hann window: |X[k]| = window value at the impulse
        frame0 = magnitude_stft(AudioBuffer(samples=x, sample_rate=SR))[:, 0]
        assert np.allclose(frame0, frame0[0], rtol=1e-6)

    def test_too_short_buffer(self):
        with pytest.raises(AudioError):
            spectrogram(AudioBuffer(samples=np.zeros(100), sample_rate=SR))

    def test_hop_shift_moves_columns(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(SR)
        mags = magnitude_stft(AudioBuffer(samples=x, sample_rate=SR))
        shifted = magnitude_stft(AudioBuffer(samples=np.concatenate([np.zeros(HOP_SAMPLES), x]), sample_rate=SR))
        n = min(mags.shape[1], shifted.shape[1] - 1)
        assert np.allclose(shifted[:, 1 : n + 1], mags[:, :n], rtol=1e-6, atol=1e-12)

    def test_energy_bound_and_finiteness(self):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, SR), sample_rate=SR)
        mags = magnitude_stft(buf)
        assert np.all(np.isfinite(mags))
        assert np.all(mags >= 0.0)
        win_energy = np.sum(np.hanning(WINDOW_SAMPLES) ** 2)
        bound = FFT_SIZE * win_energy * np.max(np.abs(buf.samples)) ** 2
        assert np.all(np.sum(mags**2, axis=0) <= bound)

    def test_other_rate_rejected(self):
        with pytest.raises(AudioError, match="stft needs audio at 11025 Hz, got 8000 Hz"):
            spectrogram(make_sine(440, duration=1.0, sr=8000))

    def test_matches_float64_reference(self):
        rng = np.random.default_rng(2)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, 3 * SR), sample_rate=SR)
        frames = np.lib.stride_tricks.sliding_window_view(buf.samples, WINDOW_SAMPLES)[::HOP_SAMPLES]
        window = scipy.signal.windows.hann(WINDOW_SAMPLES, sym=False)
        ref = np.abs(np.fft.rfft(frames * window, n=FFT_SIZE, axis=1)).T
        # the FFT runs in float32: allow a few dozen roundings of the peak
        atol = 64 * np.finfo(np.float32).eps * ref.max()
        mags = magnitude_stft(buf)
        assert mags.shape == ref.shape
        np.testing.assert_allclose(mags, ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, 0), (1, 1), (3, 5)])
    def test_blocking_matches_one_call(self, monkeypatch, blocks, extra):
        n_frames = blocks * audio.STFT_BLOCK_FRAMES + extra
        rng = np.random.default_rng(n_frames)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, WINDOW_SAMPLES + (n_frames - 1) * HOP_SAMPLES), sample_rate=SR)
        blocked = magnitude_stft(buf)
        monkeypatch.setattr(audio, "STFT_BLOCK_FRAMES", n_frames)
        whole = magnitude_stft(buf)
        assert blocked.shape[1] == n_frames
        # a frame's FFT may take a vectorized or a scalar path depending on its block
        atol = 4 * np.finfo(np.float32).eps * whole.max()
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=atol)

    def test_logfreq_c_contiguous_float64(self):
        # print_matrix multiplies column slices of these rows once per anchor
        spec = spectrogram(make_sine(440, duration=1.0))
        assert spec.logfreq.shape == (N_LOGFREQ, spec.n_frames)
        assert spec.logfreq.dtype == np.float64
        assert spec.logfreq.flags.c_contiguous


def _frames_buffer(n_frames, seed):
    rng = np.random.default_rng(seed)
    return AudioBuffer(samples=rng.uniform(-1, 1, WINDOW_SAMPLES + (n_frames - 1) * HOP_SAMPLES), sample_rate=SR)


class TestStftReductions:
    """``stft``'s block-by-block reductions equal the oracle's full-matrix ones bit for bit."""

    @pytest.mark.parametrize(
        "make_buf",
        [
            lambda: _frames_buffer(1, 0),
            lambda: _frames_buffer(63, 1),
            lambda: _frames_buffer(64, 2),
            lambda: _frames_buffer(65, 3),
            lambda: make_sine(523, duration=7.0),
            lambda: AudioBuffer(samples=np.zeros(7 * SR), sample_rate=SR),
        ],
        ids=["one_window", "63_frames", "64_frames", "65_frames", "7s", "silence"],
    )
    def test_exact_against_oracle(self, make_buf):
        buf = make_buf()
        freq_map = frequency_map()
        mags = magnitude_stft(buf)
        spec = audio.stft(buf, freq_map)
        assert spec.n_frames == mags.shape[1]
        assert np.array_equal(spec.logfreq, freq_map @ mags)
        assert np.array_equal(spec.norms, mags.sum(axis=0))
