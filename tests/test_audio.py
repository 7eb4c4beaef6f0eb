import numpy as np
import pytest
import scipy.io.wavfile
import scipy.signal

from printdex import audio
from printdex.audio import AudioBuffer, AudioError, SpectrogramConfig, load_audio, normalize, resample, save_wav, stft

from conftest import make_sine

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
    def test_all_zero(self):
        buf = AudioBuffer(samples=np.zeros(SR), sample_rate=SR)
        spec = stft(buf)
        assert np.all(spec.magnitudes == 0.0)
        assert spec.n_bins == spec.config.fft_size(SR) // 2 + 1

    def test_fft_size_power_of_two(self):
        cfg = SpectrogramConfig()
        size = cfg.fft_size(SR)
        assert size == 4096  # 2049 unilateral bins at the production setting
        assert size & (size - 1) == 0
        assert size >= cfg.window_samples(SR)
        assert SpectrogramConfig(fft_factor=1).fft_size(SR) == 2048

    def test_bin_centered_sine_argmax(self):
        spec0 = stft(make_sine(440, duration=1.0))
        target_bin = 300
        freq = target_bin * spec0.bin_hz
        spec = stft(make_sine(freq, duration=1.0))
        interior = spec.magnitudes[:, 3:-3]
        assert np.all(np.argmax(interior, axis=0) == target_bin)

    def test_impulse_flat_spectrum(self):
        cfg = SpectrogramConfig()
        win = cfg.window_samples(SR)
        x = np.zeros(2 * win)
        x[win // 2] = 1.0  # center of frame 0
        spec = stft(AudioBuffer(samples=x, sample_rate=SR), cfg)
        # impulse through a Hann window: |X[k]| = window value at the impulse
        frame0 = spec.magnitudes[:, 0]
        assert np.allclose(frame0, frame0[0], rtol=1e-6)

    def test_too_short_buffer(self):
        with pytest.raises(AudioError):
            stft(AudioBuffer(samples=np.zeros(100), sample_rate=SR))

    def test_hop_shift_moves_columns(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(SR)
        buf = AudioBuffer(samples=x, sample_rate=SR)
        spec = stft(buf)
        hop = spec.hop_samples
        shifted = stft(AudioBuffer(samples=np.concatenate([np.zeros(hop), x]), sample_rate=SR))
        n = min(spec.n_frames, shifted.n_frames - 1)
        assert np.allclose(shifted.magnitudes[:, 1 : n + 1], spec.magnitudes[:, :n], rtol=1e-6, atol=1e-12)

    def test_energy_bound_and_finiteness(self):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, SR), sample_rate=SR)
        spec = stft(buf)
        assert np.all(np.isfinite(spec.magnitudes))
        assert np.all(spec.magnitudes >= 0.0)
        cfg = spec.config
        win_energy = np.sum(np.hanning(cfg.window_samples(SR)) ** 2)
        bound = cfg.fft_size(SR) * win_energy * np.max(np.abs(buf.samples)) ** 2
        assert np.all(np.sum(spec.magnitudes**2, axis=0) <= bound)

    def test_frame_rate_independent_of_input_rate(self):
        cfg = SpectrogramConfig()
        for sr in (11025, 22050, 44100):
            buf = make_sine(440, duration=1.0, sr=sr)
            spec = stft(buf, cfg)
            assert abs(spec.frame_rate - 1.0 / cfg.hop_s) / (1.0 / cfg.hop_s) < 0.005

    def test_matches_float64_reference(self):
        rng = np.random.default_rng(2)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, 3 * SR), sample_rate=SR)
        cfg = SpectrogramConfig()
        win, hop = cfg.window_samples(SR), cfg.hop_samples(SR)
        frames = np.lib.stride_tricks.sliding_window_view(buf.samples, win)[::hop]
        window = scipy.signal.windows.hann(win, sym=False)
        ref = np.abs(np.fft.rfft(frames * window, n=cfg.fft_size(SR), axis=1)).T
        # the FFT runs in float32: allow a few dozen roundings of the peak
        atol = 64 * np.finfo(np.float32).eps * ref.max()
        spec = stft(buf, cfg)
        assert spec.magnitudes.shape == ref.shape
        np.testing.assert_allclose(spec.magnitudes, ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, 0), (1, 1), (3, 5)])
    def test_blocking_matches_one_call(self, monkeypatch, blocks, extra):
        n_frames = blocks * audio.STFT_BLOCK_FRAMES + extra
        cfg = SpectrogramConfig()
        win, hop = cfg.window_samples(SR), cfg.hop_samples(SR)
        rng = np.random.default_rng(n_frames)
        buf = AudioBuffer(samples=rng.uniform(-1, 1, win + (n_frames - 1) * hop), sample_rate=SR)
        blocked = stft(buf, cfg)
        monkeypatch.setattr(audio, "STFT_BLOCK_FRAMES", n_frames)
        whole = stft(buf, cfg)
        assert blocked.n_frames == n_frames
        # a frame's FFT may take a vectorized or a scalar path depending on its block
        atol = 4 * np.finfo(np.float32).eps * whole.magnitudes.max()
        np.testing.assert_allclose(blocked.magnitudes, whole.magnitudes, rtol=0, atol=atol)

    def test_magnitudes_c_contiguous_float64(self):
        # print_matrix's sparse product is several times slower on a Fortran-order view
        spec = stft(make_sine(440, duration=1.0))
        assert spec.magnitudes.dtype == np.float64
        assert spec.magnitudes.flags.c_contiguous
