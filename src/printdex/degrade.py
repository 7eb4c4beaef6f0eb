"""Deterministic, seedable audio degradations for training and evaluation.

Every degradation is a pure function of (spec, seed, input): the same seed
always produces bit-identical output. Codec steps (MP3, GSM) are not
implemented; the external_command hook pipes raw PCM through a user-supplied
encoder when one is available, and scenarios skip the step with a warning
otherwise.
"""

from __future__ import annotations

import numbers
import shlex
import subprocess
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.ndimage
import scipy.signal

from printdex.audio import AudioBuffer, load_audio
from printdex.hashing import _MASK64, _splitmix64

EQ_CENTERS_HZ = (31.5, 63.0, 125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0)
TREMOLO_RATE_HZ = 4.0
REVERB_RT60_S = 0.8
COMPRESSOR_THRESHOLD_DB = -20.0

# (required, optional) parameter names of each kind; a parameter not in
# TEXT_PARAMS must be a number.
PARAMS = {
    "white_noise": (("snr_db",), ()),
    "pink_noise": (("snr_db",), ()),
    "file_noise": (("path", "snr_db"), ()),
    "graphic_eq": ((), ("gain_db", "gains_db")),
    "distortion": (("input_gain_db",), ()),
    "tremolo": (("depth_db",), ("rate_hz",)),
    "dyn_compress": (("ratio",), ("release_ms",)),
    "reverb_synthetic": (("mix_db",), ("rt60_s",)),
    "pitch_shift": (("semitones",), ()),
    "time_stretch": (("cents",), ()),
    "chain": (("steps",), ()),
    "external_command": (("command",), ()),
}
TEXT_PARAMS = ("path", "gains_db", "steps", "command")
# Numeric parameters that must be positive: the compressor divides by its
# ratio, and the reverb's impulse response lasts rt60_s.
POSITIVE_PARAMS = ("ratio", "rt60_s")
# pitch_shift's phase vocoder runs on the input resampled to 2 ** (-semitones
# / 12) times its length, so its work and memory grow as the shift goes down;
# two octaves keep them within 4x those of the input.
PITCH_SHIFT_MAX_SEMITONES = 24.0
# time_stretch's output is 2 ** (cents / 100) times its input; two octaves
# either way keep that factor in [1/4, 4], the same 4x bound.
TIME_STRETCH_MAX_CENTS = 200.0
# Numeric parameters bounded in magnitude, checked when a spec is built.
MAX_ABS_PARAMS = {"semitones": PITCH_SHIFT_MAX_SEMITONES, "cents": TIME_STRETCH_MAX_CENTS}


class DegradationError(RuntimeError):
    """A degradation could not be applied (bad spec, missing file, failed command)."""


@dataclass(frozen=True)
class DegradationSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise DegradationError(f"unknown degradation kind {self.kind!r}")
        required, optional = PARAMS[self.kind]
        for name, value in self.params.items():
            if name not in required + optional:
                raise DegradationError(f"{self.kind} has no parameter {name!r}")
            if name in TEXT_PARAMS:
                continue
            if not isinstance(value, numbers.Real):
                raise DegradationError(f"{self.kind} parameter {name!r} must be a number, got {value!r}")
            if not np.isfinite(value):
                raise DegradationError(f"{self.kind} parameter {name!r} must be finite, got {value!r}")
            if name in POSITIVE_PARAMS and value <= 0:
                raise DegradationError(f"{self.kind} parameter {name!r} must be positive, got {value!r}")
            limit = MAX_ABS_PARAMS.get(name)
            if limit is not None and abs(value) > limit:
                raise DegradationError(f"{self.kind} parameter {name!r} must be in [-{limit:g}, {limit:g}], got {value!r}")
        for name in required:
            if name not in self.params:
                raise DegradationError(f"{self.kind} needs parameter {name!r}")
        if self.kind == "graphic_eq":
            _eq_gains(self.params)

    def reseeded(self, seed: int) -> "DegradationSpec":
        return DegradationSpec(kind=self.kind, params=self.params, seed=seed)


def _eq_gains(params: dict) -> np.ndarray:
    """The dB gain at each of EQ_CENTERS_HZ of a graphic_eq's parameters."""
    if "gains_db" not in params:
        return float(params.get("gain_db", 0.0)) * np.array([1.0, -1.0] * 5)
    text = str(params["gains_db"])
    try:
        gains = [float(v) for v in text.split("/")]
    except ValueError:
        gains = []
    if len(gains) != len(EQ_CENTERS_HZ):
        raise DegradationError(f"graphic_eq parameter 'gains_db' must be {len(EQ_CENTERS_HZ)} numbers joined by '/', got {text!r}")
    return np.array(gains)


def parse_spec(text: str, seed: int = 0) -> DegradationSpec:
    """Parse 'kind:key=val,key=val'; chains use '+' between steps.

    Examples: 'white_noise:snr_db=12', 'pitch_shift:semitones=-0.5',
    'time_stretch:cents=30+white_noise:snr_db=18'.
    """
    parts = [p.strip() for p in text.split("+") if p.strip()]
    if not parts:
        raise DegradationError("empty degradation spec")
    specs = []
    for part in parts:
        kind, _, args = part.partition(":")
        if kind.strip() == "chain":
            raise DegradationError("chain steps are written joined by '+'")
        params = {}
        if args:
            for item in args.split(","):
                key, _, value = item.partition("=")
                if not _:
                    raise DegradationError(f"malformed parameter {item!r}")
                try:
                    params[key.strip()] = float(value)
                except ValueError:
                    params[key.strip()] = value.strip()
        specs.append(DegradationSpec(kind=kind.strip(), params=params, seed=seed))
    if len(specs) == 1:
        return specs[0]
    return DegradationSpec(kind="chain", params={"steps": tuple(specs)}, seed=seed)


def _scaled_noise(noise: np.ndarray, signal: np.ndarray, snr_db: float) -> np.ndarray:
    rms_sig = np.sqrt(np.mean(signal**2))
    rms_noise = np.sqrt(np.mean(noise**2))
    if rms_noise == 0.0 or rms_sig == 0.0:
        return np.zeros_like(noise)
    return noise * (rms_sig / (rms_noise * 10.0 ** (snr_db / 20.0)))


def _pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    f = np.arange(len(spectrum), dtype=np.float64)
    shaping = np.zeros_like(f)
    shaping[1:] = 1.0 / np.sqrt(f[1:])
    return np.fft.irfft(spectrum * shaping, n=n)


def _eq_gain_curve(freqs: np.ndarray, gains_db: np.ndarray) -> np.ndarray:
    """dB gains interpolated linearly over log frequency, flat beyond the ends."""
    centers = np.array(EQ_CENTERS_HZ)
    logf = np.log(np.maximum(freqs, 1e-6))
    db = np.interp(logf, np.log(centers), gains_db, left=gains_db[0], right=gains_db[-1])
    return 10.0 ** (db / 20.0)


def _apply_eq(x: np.ndarray, sr: int, gains_db: np.ndarray) -> np.ndarray:
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(len(x), 1.0 / sr)
    return np.fft.irfft(spectrum * _eq_gain_curve(freqs, gains_db), n=len(x))


def _compress(x: np.ndarray, sr: int, ratio: float, release_ms: float) -> np.ndarray:
    release = max(1, int(round(release_ms * sr / 1000.0)))
    held = scipy.ndimage.maximum_filter1d(np.abs(x), size=release, mode="nearest")
    a = np.exp(-1.0 / release)
    env = scipy.signal.lfilter([1.0 - a], [1.0, -a], held)
    threshold = 10.0 ** (COMPRESSOR_THRESHOLD_DB / 20.0)
    gain = np.ones_like(env)
    above = env > threshold
    gain[above] = (env[above] / threshold) ** (1.0 / ratio - 1.0)
    return x * gain


def _reverb(x: np.ndarray, sr: int, mix_db: float, rng: np.random.Generator, rt60: float = REVERB_RT60_S) -> np.ndarray:
    n_ir = int(rt60 * sr)
    if n_ir < 1:
        raise DegradationError(f"reverb_synthetic rt60_s={rt60!r} gives an impulse response with no samples at {sr} Hz")
    t = np.arange(n_ir) / sr
    ir = rng.standard_normal(n_ir) * np.exp(-6.907755 * t / rt60)
    wet = scipy.signal.fftconvolve(x, ir)[: len(x)]
    p_dry = np.mean(x**2)
    p_wet = np.mean(wet**2)
    if p_wet == 0.0:
        return x.copy()
    wet *= np.sqrt(p_dry / p_wet) * 10.0 ** (-mix_db / 20.0)
    return x + wet


def _stft_frames(x: np.ndarray, n_fft: int, hop: int, window: np.ndarray) -> np.ndarray:
    n_frames = 1 + (len(x) - n_fft) // hop
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop][:n_frames]
    return np.fft.rfft(frames * window, axis=1).T


def _istft_frames(spec: np.ndarray, n_fft: int, hop: int, window: np.ndarray) -> np.ndarray:
    """Overlap-add the inverse frames, divided by the summed squared window.

    ``n_fft`` must be a multiple of ``hop``. The output is viewed as blocks
    of ``hop`` samples; chunk k of frame m lands in block m + k. Adding the
    chunks from the last k to the first sums each sample's frames in
    ascending order.
    """
    frames = np.fft.irfft(spec.T, n=n_fft, axis=1) * window
    n_frames = spec.shape[1]
    overlap = n_fft // hop
    out = np.zeros((n_frames + overlap - 1, hop))
    norm = np.zeros_like(out)
    win_sq = (window**2).reshape(overlap, hop)
    for k in reversed(range(overlap)):
        out[k : k + n_frames] += frames[:, k * hop : (k + 1) * hop]
        norm[k : k + n_frames] += win_sq[k]
    out, norm = out.reshape(-1), norm.reshape(-1)
    good = norm > 1e-3 * norm.max()
    out[good] /= norm[good]
    out[~good] = 0.0
    return out


def time_stretch(x: np.ndarray, sr: int, factor: float) -> np.ndarray:
    """Phase-vocoder stretch: output duration = input duration * factor.

    Analysis frames (Hann 1024, hop 256) start at sample 0 with no centering
    padding; only an input shorter than n_fft + hop is zero-padded, at the
    end, to that length. The overlap-add is divided by the summed squared
    window, and output samples where that sum is below 1e-3 of its peak (the
    first and last few, covered only by a window's tail) are set to zero
    rather than amplified.
    The result is cut or zero-padded at the end to round(len(x) * factor).
    """
    target = int(round(len(x) * factor))
    if target < 1:
        raise DegradationError(f"time_stretch factor {factor!r} leaves no samples of a {len(x)}-sample input")
    n_fft, hop = 1024, 256
    if len(x) < n_fft + hop:
        x = np.pad(x, (0, n_fft + hop - len(x)))
    window = scipy.signal.windows.hann(n_fft, sym=False)
    spec = _stft_frames(x, n_fft, hop, window)
    n_frames = spec.shape[1]
    steps = np.arange(0.0, n_frames - 1, 1.0 / factor)
    low = np.floor(steps).astype(np.int64)
    frac = steps - low
    mags = np.abs(spec)
    mag_interp = mags[:, low] * (1.0 - frac) + mags[:, low + 1] * frac
    omega = 2.0 * np.pi * hop * np.arange(spec.shape[0]) / n_fft
    phases = np.angle(spec)
    dphase = phases[:, 1:] - phases[:, :-1] - omega[:, None]
    dphase = dphase - 2.0 * np.pi * np.round(dphase / (2.0 * np.pi))
    dphase += omega[:, None]
    advance = dphase[:, low]
    accum = np.concatenate([phases[:, :1], advance[:, :-1]], axis=1).cumsum(axis=1)
    out = _istft_frames(mag_interp * np.exp(1j * accum), n_fft, hop, window)
    if len(out) >= target:
        return out[:target]
    return np.pad(out, (0, target - len(out)))


def pitch_shift(x: np.ndarray, sr: int, semitones: float) -> np.ndarray:
    """Resample (shifting pitch and duration) then stretch the duration back."""
    factor = 2.0 ** (semitones / 12.0)
    frac = Fraction(factor).limit_denominator(499)
    resampled = scipy.signal.resample_poly(x, frac.denominator, frac.numerator)
    out = time_stretch(resampled, sr, factor)
    if len(out) >= len(x):
        return out[: len(x)]
    return np.pad(out, (0, len(x) - len(out)))


def _external_command(x: np.ndarray, sr: int, command: str) -> np.ndarray:
    pcm = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    cmd = command.replace("{rate}", str(sr))
    try:
        proc = subprocess.run(shlex.split(cmd), input=pcm, capture_output=True)
    except OSError as exc:
        raise DegradationError(f"external command failed to start: {exc}") from exc
    if proc.returncode != 0:
        raise DegradationError(f"external command exited with {proc.returncode}: {proc.stderr[:200]!r}")
    return np.frombuffer(proc.stdout, dtype="<i2").astype(np.float64) / 32768.0


def apply(spec: DegradationSpec, buf: AudioBuffer) -> AudioBuffer:
    """Apply one degradation (or chain). Same (spec, seed, input) -> same output."""
    x = buf.samples
    sr = buf.sample_rate
    rng = np.random.default_rng(spec.seed & _MASK64)
    p = spec.params
    kind = spec.kind
    if kind == "white_noise":
        out = x + _scaled_noise(rng.standard_normal(len(x)), x, p["snr_db"])
    elif kind == "pink_noise":
        out = x + _scaled_noise(_pink_noise(len(x), rng), x, p["snr_db"])
    elif kind == "file_noise":
        try:
            noise_buf = load_audio(str(p["path"]))
        except (OSError, ValueError) as exc:
            raise DegradationError(f"cannot load noise file: {exc}") from exc
        noise = noise_buf.samples
        if noise_buf.sample_rate != sr:
            from printdex.audio import resample

            noise = resample(noise_buf, sr).samples
        reps = int(np.ceil(len(x) / max(len(noise), 1)))
        noise = np.tile(noise, reps)[: len(x)]
        out = x + _scaled_noise(noise, x, p["snr_db"])
    elif kind == "graphic_eq":
        out = _apply_eq(x, sr, _eq_gains(p))
    elif kind == "distortion":
        g = 10.0 ** (p["input_gain_db"] / 20.0)
        out = np.arctan(g * x) / np.arctan(g)
    elif kind == "tremolo":
        t = np.arange(len(x)) / sr
        rate = float(p.get("rate_hz", TREMOLO_RATE_HZ))
        out = x * 10.0 ** (p["depth_db"] * np.sin(2.0 * np.pi * rate * t) / 20.0)
    elif kind == "dyn_compress":
        out = _compress(x, sr, float(p["ratio"]), float(p.get("release_ms", 100.0)))
    elif kind == "reverb_synthetic":
        out = _reverb(x, sr, float(p["mix_db"]), rng, float(p.get("rt60_s", REVERB_RT60_S)))
    elif kind == "pitch_shift":
        out = pitch_shift(x, sr, float(p["semitones"]))
    elif kind == "time_stretch":
        out = time_stretch(x, sr, 2.0 ** (float(p["cents"]) / 100.0))
    elif kind == "external_command":
        out = _external_command(x, sr, str(p["command"]))
    elif kind == "chain":
        state = spec.seed & _MASK64
        out_buf = buf
        for step in p["steps"]:
            state, sub_seed = _splitmix64(state)
            out_buf = apply(step.reseeded(sub_seed), out_buf)
        return out_buf
    else:  # pragma: no cover - guarded by DegradationSpec
        raise DegradationError(f"unknown kind {kind!r}")
    return AudioBuffer(samples=out, sample_rate=sr)


# ---------------------------------------------------------------------------
# Evaluation scenarios


def _level_value(values, level: int):
    if level not in (1, 2, 3):
        raise DegradationError(f"scenario level must be 1..3, got {level}")
    return values[level - 1]


def scenario(name: str, level: int, codec_command: str | None = None, seed: int = 0) -> DegradationSpec:
    """Chained degradation scenarios mirroring the evaluation protocol.

    Codec steps run through ``codec_command`` when supplied; otherwise they
    are omitted with a warning (results should be tagged partial).
    """

    def step(kind, **params):
        return DegradationSpec(kind=kind, params=params, seed=seed)

    steps: list
    if name == "gsm_like":
        snr = _level_value((18.0, 12.0, 6.0), level)
        steps = [
            step("graphic_eq", gains_db="-24/-24/-12/0/0/0/0/-12/-24/-24"),
            step("white_noise", snr_db=snr),
        ]
        codec_label = "GSM"
    elif name == "slowdown":
        cents = _level_value((4.0, 8.0, 12.0), level)
        steps = [
            step("time_stretch", cents=cents),
            step("graphic_eq", gain_db=3.0),
            step("dyn_compress", ratio=2.0, release_ms=100.0),
            None,  # codec slot
            step("reverb_synthetic", mix_db=3.0),
            step("white_noise", snr_db=18.0),
        ]
        codec_label = "MP3"
    elif name == "noise":
        snr = _level_value((18.0, 12.0, 6.0), level)
        steps = [
            step("time_stretch", cents=100.0 * np.log2(1.04)),
            step("graphic_eq", gain_db=3.0),
            step("dyn_compress", ratio=2.0, release_ms=100.0),
            None,  # codec slot
            step("reverb_synthetic", mix_db=3.0),
            step("white_noise", snr_db=snr),
        ]
        codec_label = "MP3"
    else:
        raise DegradationError(f"unknown scenario {name!r}")
    resolved = []
    for s in steps:
        if s is None:
            if codec_command:
                resolved.append(step("external_command", command=codec_command))
            else:
                warnings.warn(f"scenario {name!r}: no codec command, {codec_label} step omitted (partial)")
        else:
            resolved.append(s)
    if codec_command and name == "gsm_like":
        resolved.append(step("external_command", command=codec_command))
    return DegradationSpec(kind="chain", params={"steps": tuple(resolved)}, seed=seed)
