import re
import warnings

import numpy as np
import pytest
import scipy.signal

from printdex.audio import AudioBuffer, save_wav
from printdex.degrade import (
    DegradationError,
    DegradationSpec,
    _istft_frames,
    _stft_frames,
    apply,
    parse_spec,
    pitch_shift,
    scenario,
    time_stretch,
)
from printdex.pipeline import DEFAULT_TRAINING_PLAN

from conftest import make_sine

SR = 11025


def _music(duration=4.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * SR)) / SR
    env = 0.3 + np.clip(np.sin(2 * np.pi * 1.7 * t), 0, None)
    x = env * (np.sin(2 * np.pi * 330 * t) + 0.5 * np.sin(2 * np.pi * 523 * t) + 0.2 * rng.standard_normal(len(t)))
    return AudioBuffer(samples=0.6 * x / np.abs(x).max(), sample_rate=SR)


def _snr_db(clean, degraded):
    noise = degraded - clean
    return 10 * np.log10(np.mean(clean**2) / np.mean(noise**2))


class TestParseSpec:
    def test_simple(self):
        spec = parse_spec("white_noise:snr_db=12")
        assert spec.kind == "white_noise" and spec.params["snr_db"] == 12.0

    def test_chain(self):
        spec = parse_spec("time_stretch:cents=30+white_noise:snr_db=18", seed=5)
        assert spec.kind == "chain"
        assert [s.kind for s in spec.params["steps"]] == ["time_stretch", "white_noise"]

    def test_unknown_kind(self):
        with pytest.raises(DegradationError):
            parse_spec("reverse:confusion=1")

    def test_malformed_param(self):
        with pytest.raises(DegradationError):
            parse_spec("white_noise:snr12")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("white_noise", "white_noise needs parameter 'snr_db'"),
            ("white_noise:snr=12", "white_noise has no parameter 'snr'"),
            ("white_noise:snr_db=abc", "white_noise parameter 'snr_db' must be a number, got 'abc'"),
            ("pitch_shift", "pitch_shift needs parameter 'semitones'"),
            ("tremolo", "tremolo needs parameter 'depth_db'"),
            ("tremolo:rate_hz=2", "tremolo needs parameter 'depth_db'"),
            ("graphic_eq:gain_db=3+time_stretch:cent=30", "time_stretch has no parameter 'cent'"),
            ("chain:steps=white_noise", "chain steps are written joined by '+'"),
            ("graphic_eq:gains_db=1/x/3", "graphic_eq parameter 'gains_db' must be 10 numbers joined by '/', got '1/x/3'"),
            ("graphic_eq:gains_db=1/2/3", "graphic_eq parameter 'gains_db' must be 10 numbers joined by '/', got '1/2/3'"),
            ("white_noise:snr_db=nan", "white_noise parameter 'snr_db' must be finite, got nan"),
            ("time_stretch:cents=-inf", "time_stretch parameter 'cents' must be finite, got -inf"),
            ("dyn_compress:ratio=0", "dyn_compress parameter 'ratio' must be positive, got 0.0"),
            ("dyn_compress:ratio=-1", "dyn_compress parameter 'ratio' must be positive, got -1.0"),
            ("reverb_synthetic:mix_db=3,rt60_s=0", "reverb_synthetic parameter 'rt60_s' must be positive, got 0.0"),
            ("reverb_synthetic:mix_db=3,rt60_s=-1", "reverb_synthetic parameter 'rt60_s' must be positive, got -1.0"),
            ("pitch_shift:semitones=100000", "pitch_shift parameter 'semitones' must be in [-24, 24], got 100000.0"),
            ("pitch_shift:semitones=-200", "pitch_shift parameter 'semitones' must be in [-24, 24], got -200.0"),
            ("white_noise:snr_db=6+pitch_shift:semitones=24.5", "pitch_shift parameter 'semitones' must be in [-24, 24], got 24.5"),
            ("time_stretch:cents=1200", "time_stretch parameter 'cents' must be in [-200, 200], got 1200.0"),
            ("time_stretch:cents=-1200", "time_stretch parameter 'cents' must be in [-200, 200], got -1200.0"),
            ("time_stretch:cents=-100000", "time_stretch parameter 'cents' must be in [-200, 200], got -100000.0"),
        ],
    )
    def test_params_checked_for_kind(self, text, message):
        with pytest.raises(DegradationError, match=f"^{re.escape(message)}$"):
            parse_spec(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("reverb_synthetic:mix_db=3,rt60_s=5e-5", "reverb_synthetic rt60_s=5e-05 gives an impulse response with no samples at 11025 Hz"),
        ],
    )
    def test_empty_output_rejected_when_applied(self, text, message):
        """A spec that parses but leaves an impulse response or an output without samples fails in one line."""
        spec = parse_spec(text)
        with pytest.raises(DegradationError, match=f"^{re.escape(message)}$"):
            apply(spec, _music(duration=1.0, seed=15))

    def test_stretch_leaving_no_samples_rejected_when_applied(self):
        """The largest shrink in range, a quarter, leaves no samples of a one-sample input."""
        spec = parse_spec("time_stretch:cents=-200")
        with pytest.raises(DegradationError, match=r"^time_stretch factor 0\.25 leaves no samples of a 1-sample input$"):
            apply(spec, AudioBuffer(samples=np.ones(1), sample_rate=11025))

    def test_direct_construction_checked(self):
        with pytest.raises(DegradationError, match="^dyn_compress parameter 'ratio' must be a number, got '8'$"):
            DegradationSpec(kind="dyn_compress", params={"ratio": "8"})

    def test_optional_params_keep_defaults(self):
        buf = _music(duration=1.0, seed=14)
        for short, full in [
            ("tremolo:depth_db=6", "tremolo:depth_db=6,rate_hz=4"),
            ("dyn_compress:ratio=8", "dyn_compress:ratio=8,release_ms=100"),
            ("reverb_synthetic:mix_db=3", "reverb_synthetic:mix_db=3,rt60_s=0.8"),
            ("graphic_eq", "graphic_eq:gain_db=0"),
        ]:
            assert np.array_equal(apply(parse_spec(short, seed=3), buf).samples, apply(parse_spec(full, seed=3), buf).samples)

    def test_shipped_specs_construct(self):
        for _, text in DEFAULT_TRAINING_PLAN:
            parse_spec(text).reseeded(7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for name in ("gsm_like", "slowdown", "noise"):
                for level in (1, 2, 3):
                    for codec in (None, "cat"):
                        assert scenario(name, level, codec_command=codec).kind == "chain"


class TestNoise:
    @pytest.mark.parametrize("kind", ["white_noise", "pink_noise"])
    @pytest.mark.parametrize("snr", [0.0, 6.0, 18.0])
    def test_snr_accuracy(self, kind, snr):
        buf = _music(seed=1)
        out = apply(DegradationSpec(kind=kind, params={"snr_db": snr}, seed=3), buf)
        assert abs(_snr_db(buf.samples, out.samples) - snr) < 0.2

    def test_file_noise_snr(self, tmp_path):
        noise = AudioBuffer(samples=0.4 * np.random.default_rng(2).standard_normal(SR), sample_rate=SR)
        path = tmp_path / "noise.wav"
        save_wav(path, noise)
        buf = _music(seed=3)
        out = apply(DegradationSpec(kind="file_noise", params={"path": str(path), "snr_db": 12.0}, seed=0), buf)
        assert abs(_snr_db(buf.samples, out.samples) - 12.0) < 0.2

    def test_missing_noise_file(self, tmp_path):
        buf = _music()
        spec = DegradationSpec(kind="file_noise", params={"path": str(tmp_path / "nope.wav"), "snr_db": 6.0}, seed=0)
        with pytest.raises(DegradationError):
            apply(spec, buf)

    def test_pink_noise_slope(self):
        rng_buf = AudioBuffer(samples=np.zeros(SR * 8) + 1e-6, sample_rate=SR)
        out = apply(DegradationSpec(kind="pink_noise", params={"snr_db": -40.0}, seed=7), rng_buf)
        noise = out.samples - rng_buf.samples
        freqs, psd = scipy.signal.welch(noise, fs=SR, nperseg=4096)
        band = (freqs >= 100) & (freqs <= 4000)
        slope = np.polyfit(np.log2(freqs[band]), 10 * np.log10(psd[band]), 1)[0]
        assert abs(slope - (-3.0)) < 0.5

    def test_determinism(self):
        buf = _music(seed=4)
        spec = DegradationSpec(kind="white_noise", params={"snr_db": 6.0}, seed=11)
        a = apply(spec, buf)
        b = apply(spec, buf)
        assert np.array_equal(a.samples, b.samples)
        c = apply(DegradationSpec(kind="white_noise", params={"snr_db": 6.0}, seed=12), buf)
        assert not np.array_equal(a.samples, c.samples)


class TestEq:
    def test_identity_at_zero_gain(self):
        buf = _music(seed=5)
        out = apply(DegradationSpec(kind="graphic_eq", params={"gain_db": 0.0}, seed=0), buf)
        err = np.sqrt(np.mean((out.samples - buf.samples) ** 2) / np.mean(buf.samples**2))
        assert 20 * np.log10(err + 1e-300) < -40

    def test_alternating_gains_change_spectrum(self):
        buf = _music(seed=6)
        out = apply(DegradationSpec(kind="graphic_eq", params={"gain_db": 9.0}, seed=0), buf)
        assert not np.allclose(out.samples, buf.samples, atol=1e-3)

    def test_explicit_gain_list(self):
        buf = _music(seed=7)
        out = apply(DegradationSpec(kind="graphic_eq", params={"gains_db": "0/0/0/0/0/0/0/0/0/0"}, seed=0), buf)
        assert np.allclose(out.samples, buf.samples, atol=1e-9)

    def test_wrong_gain_count(self):
        with pytest.raises(DegradationError):
            apply(DegradationSpec(kind="graphic_eq", params={"gains_db": "1/2/3"}, seed=0), _music())


class TestDistortion:
    def test_thd_on_full_scale_sine(self):
        buf = make_sine(440, duration=2.0, amp=1.0)
        out = apply(DegradationSpec(kind="distortion", params={"input_gain_db": 24.0}, seed=0), buf)
        spectrum = np.abs(np.fft.rfft(out.samples * np.hanning(len(out.samples))))
        freqs = np.fft.rfftfreq(len(out.samples), 1 / SR)
        fund = spectrum[np.argmin(np.abs(freqs - 440))]
        harmonics = sum(spectrum[np.argmin(np.abs(freqs - 440 * k))] ** 2 for k in range(2, 8))
        thd = np.sqrt(harmonics) / fund
        assert thd > 0.10

    def test_mild_gain_nearly_linear(self):
        buf = make_sine(440, duration=0.5, amp=0.1)
        out = apply(DegradationSpec(kind="distortion", params={"input_gain_db": 0.0}, seed=0), buf)
        assert np.corrcoef(buf.samples, out.samples)[0, 1] > 0.999


class TestTremoloCompressReverb:
    def test_tremolo_depth(self):
        buf = make_sine(880, duration=2.0, amp=0.5)
        out = apply(DegradationSpec(kind="tremolo", params={"depth_db": 6.0}, seed=0), buf)
        env = np.abs(scipy.signal.hilbert(out.samples))
        core = env[SR // 2 : -SR // 2]
        swing_db = 20 * np.log10(core.max() / core.min())
        assert 10.0 < swing_db < 14.0  # +-6 dB swing

    def test_compressor_reduces_dynamics(self):
        t = np.arange(2 * SR) / SR
        amp = np.where(t < 1.0, 0.05, 0.9)
        buf = AudioBuffer(samples=amp * np.sin(2 * np.pi * 440 * t), sample_rate=SR)
        out = apply(DegradationSpec(kind="dyn_compress", params={"ratio": 8.0, "release_ms": 100.0}, seed=0), buf)
        loud_in = np.abs(buf.samples[int(1.5 * SR) :]).max()
        loud_out = np.abs(out.samples[int(1.5 * SR) :]).max()
        quiet_out = np.abs(out.samples[: SR // 2]).max()
        assert loud_out < loud_in  # loud part compressed
        assert quiet_out == pytest.approx(0.05, rel=0.05)  # below threshold untouched

    def test_reverb_adds_tail_energy(self):
        x = np.zeros(2 * SR)
        x[: SR // 4] = np.sin(2 * np.pi * 440 * np.arange(SR // 4) / SR)
        buf = AudioBuffer(samples=0.8 * x, sample_rate=SR)
        out = apply(DegradationSpec(kind="reverb_synthetic", params={"mix_db": 3.0}, seed=5), buf)
        tail_in = np.sqrt(np.mean(buf.samples[SR // 2 : SR] ** 2))
        tail_out = np.sqrt(np.mean(out.samples[SR // 2 : SR] ** 2))
        assert tail_out > 10 * max(tail_in, 1e-12)


class TestScaleTransforms:
    def test_stretch_duration_law(self):
        buf = _music(duration=3.0, seed=8)
        for cents in (-45.0, -15.0, 15.0, 45.0):
            out = apply(DegradationSpec(kind="time_stretch", params={"cents": cents}, seed=0), buf)
            expected = len(buf.samples) * 2.0 ** (cents / 100.0)
            assert abs(len(out.samples) - expected) <= 256  # one synthesis hop

    def test_stretch_preserves_pitch(self):
        buf = make_sine(523, duration=2.0)
        out = time_stretch(buf.samples, SR, 2 ** (30 / 100))
        spectrum = np.abs(np.fft.rfft(out * np.hanning(len(out))))
        peak = np.argmax(spectrum) * SR / len(out)
        assert abs(peak - 523) < 5

    def test_pitch_shift_moves_pitch_keeps_duration(self):
        buf = make_sine(440, duration=2.0)
        out = apply(DegradationSpec(kind="pitch_shift", params={"semitones": 1.0}, seed=0), buf)
        assert len(out.samples) == len(buf.samples)
        spectrum = np.abs(np.fft.rfft(out.samples * np.hanning(len(out.samples))))
        peak = np.argmax(spectrum) * SR / len(out.samples)
        assert abs(peak - 440 * 2 ** (1 / 12)) < 5

    @pytest.mark.parametrize("semitones", [-24.0, 24.0])
    def test_pitch_shift_range_edges_apply(self, semitones):
        out = apply(parse_spec(f"pitch_shift:semitones={semitones}"), make_sine(440, duration=2.0))
        spectrum = np.abs(np.fft.rfft(out.samples * np.hanning(len(out.samples))))
        assert abs(np.argmax(spectrum) * SR / len(out.samples) - 440 * 2 ** (semitones / 12)) < 5

    def test_pitch_shift_inversion_restores_centroid(self):
        # band-limited harmonic fixture: content must stay below Nyquist
        # through the round trip, else the anti-alias cut dominates
        t = np.arange(3 * SR) / SR
        x = sum(h**-0.7 * np.sin(2 * np.pi * 392 * h * t + h) for h in range(1, 9))
        env = 0.4 + 0.3 * np.clip(np.sin(2 * np.pi * 1.9 * t), 0, None)
        x = 0.6 * env * x / np.abs(x).max()
        up = pitch_shift(x, SR, 1.0)
        back = pitch_shift(up, SR, -1.0)

        def centroid(y):
            spectrum = np.abs(np.fft.rfft(y * np.hanning(len(y))))
            freqs = np.fft.rfftfreq(len(y), 1 / SR)
            return (freqs * spectrum).sum() / spectrum.sum()

        ref = centroid(x)
        assert centroid(up) > ref * 1.02  # pitch went up
        assert abs(centroid(back) - ref) / ref < 0.02


def _istft_frames_loop(spec, n_fft, hop, window):
    """Frame-by-frame overlap-add: the oracle for ``_istft_frames``."""
    frames = np.fft.irfft(spec.T, n=n_fft, axis=1) * window
    n_out = (spec.shape[1] - 1) * hop + n_fft
    out = np.zeros(n_out)
    norm = np.zeros(n_out)
    for m in range(spec.shape[1]):
        out[m * hop : m * hop + n_fft] += frames[m]
        norm[m * hop : m * hop + n_fft] += window**2
    good = norm > 1e-3 * norm.max()
    out[good] /= norm[good]
    out[~good] = 0.0
    return out


# 100 samples is zero-padded to n_fft + hop as time_stretch pads short input
@pytest.mark.parametrize("n", [100, 1280, 5000, 33075])
def test_istft_overlap_add_equals_frame_loop(n):
    n_fft, hop = 1024, 256
    x = np.pad(_music(n / SR + 0.01, seed=n).samples[:n], (0, max(0, n_fft + hop - n)))
    window = scipy.signal.windows.hann(n_fft, sym=False)
    spec = _stft_frames(x, n_fft, hop, window)
    spec = spec * np.exp(1j * np.random.default_rng(n).uniform(-np.pi, np.pi, spec.shape))
    assert np.array_equal(_istft_frames(spec, n_fft, hop, window), _istft_frames_loop(spec, n_fft, hop, window))


class TestChainAndScenario:
    def test_chain_runs_all_steps(self):
        buf = _music(seed=10)
        spec = parse_spec("graphic_eq:gain_db=3+white_noise:snr_db=18", seed=4)
        out = apply(spec, buf)
        assert len(out.samples) == len(buf.samples)
        assert not np.allclose(out.samples, buf.samples, atol=1e-4)

    def test_chain_seed_propagation(self):
        buf = _music(seed=11)
        spec = parse_spec("white_noise:snr_db=18+white_noise:snr_db=18", seed=4)
        out1 = apply(spec, buf)
        out2 = apply(spec, buf)
        assert np.array_equal(out1.samples, out2.samples)
        # the two chained noise steps must not reuse the same noise
        single = apply(DegradationSpec(kind="white_noise", params={"snr_db": 18.0}, seed=4), buf)
        assert not np.allclose(out1.samples - single.samples, single.samples - buf.samples)

    def test_slowdown_scenario_level1(self):
        with pytest.warns(UserWarning):
            spec = scenario("slowdown", 1)
        kinds = [s.kind for s in spec.params["steps"]]
        assert kinds == ["time_stretch", "graphic_eq", "dyn_compress", "reverb_synthetic", "white_noise"]
        assert spec.params["steps"][0].params["cents"] == 4.0
        assert spec.params["steps"][-1].params["snr_db"] == 18.0
        buf = _music(duration=3.0, seed=12)
        out = apply(spec, buf)
        assert len(out.samples) > len(buf.samples)  # slowed down

    def test_noise_scenario_level3(self):
        with pytest.warns(UserWarning):
            spec = scenario("noise", 3)
        assert spec.params["steps"][-1].kind == "white_noise"
        assert spec.params["steps"][-1].params["snr_db"] == 6.0

    def test_gsm_scenario_with_codec_command(self):
        spec = scenario("gsm_like", 2, codec_command="cat")
        kinds = [s.kind for s in spec.params["steps"]]
        assert kinds[-1] == "external_command"

    def test_bad_level(self):
        with pytest.raises(DegradationError):
            scenario("slowdown", 4)

    def test_unknown_scenario(self):
        with pytest.raises(DegradationError):
            scenario("tape_wobble", 1)


class TestExternalCommand:
    def test_passthrough_command(self):
        buf = _music(duration=1.0, seed=13)
        out = apply(DegradationSpec(kind="external_command", params={"command": "cat"}, seed=0), buf)
        assert len(out.samples) == len(buf.samples)
        assert np.max(np.abs(out.samples - buf.samples)) < 1.0 / 32000  # 16-bit quantization

    def test_failing_command_surfaced(self):
        buf = _music(duration=0.5)
        spec = DegradationSpec(kind="external_command", params={"command": "false"}, seed=0)
        with pytest.raises(DegradationError):
            apply(spec, buf)

    def test_missing_command_surfaced(self):
        buf = _music(duration=0.5)
        spec = DegradationSpec(kind="external_command", params={"command": "definitely-not-a-real-binary-xyz"}, seed=0)
        with pytest.raises(DegradationError):
            apply(spec, buf)
