"""Deterministic, seedable audio degradations for training and evaluation.

Every degradation is a pure function of (spec, seed, input): the same seed
always produces bit-identical output. Codec steps (MP3, GSM) are not
implemented; the external_command hook pipes raw PCM through a user-supplied
encoder when one is available, and scenarios skip the step with a warning
otherwise.

``time_stretch``, and ``pitch_shift`` through it, is a phase vocoder that
takes no trigonometric function of a phase: the spectrum is kept
frames-major, (frames, bins), so the inverse FFT reads contiguous rows, and
each output frame's phasor is the previous one times the unit-phasor ratio
``u[k + 1] * conj(u[k])`` of the two analysis frames it reads. That product is
the exponential of the textbook principal-value phase advance (Laroche &
Dolson, IEEE TSAP 1999), so no phase is taken as an angle or accumulated
as a float.

``time_stretch:cents`` is not in musical cents. The stretch factor is
``2 ** (cents / 100)``, so one unit is 1/100 octave, which is 12 musical
cents: ``cents=30`` lengthens the input by x1.231 and ``cents=-30`` shortens
it to x0.812, and the ``slowdown`` scenario's levels 4/8/12 lengthen it by
2.8/5.7/8.7 %.
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
# time_stretch's output is 2 ** (cents / 100) times its input, so its cents
# are 1/100 octave (12 musical cents) each; two octaves either way keep that
# factor in [1/4, 4], the same 4x bound.
TIME_STRETCH_MAX_CENTS = 200.0
# Numeric parameters bounded in magnitude, checked when a spec is built.
MAX_ABS_PARAMS = {"semitones": PITCH_SHIFT_MAX_SEMITONES, "cents": TIME_STRETCH_MAX_CENTS}

# time_stretch's phase vocoder: a periodic Hann window of VOCODER_N_FFT
# samples every VOCODER_HOP samples; _istft_frames needs n_fft to be a
# multiple of the hop.
VOCODER_N_FFT = 1024
VOCODER_HOP = 256
VOCODER_WINDOW = scipy.signal.windows.hann(VOCODER_N_FFT, sym=False)
VOCODER_WINDOW.setflags(write=False)
# the squared window as (n_fft / hop, hop) blocks, the overlap-add's normaliser
_VOCODER_WINDOW_SQ = (VOCODER_WINDOW**2).reshape(-1, VOCODER_HOP)
_VOCODER_WINDOW_SQ.setflags(write=False)


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


def _stft_frames(x: np.ndarray) -> np.ndarray:
    """The (frames, bins) spectrum of ``VOCODER_WINDOW`` frames every ``VOCODER_HOP`` samples from sample 0."""
    n_frames = 1 + (len(x) - VOCODER_N_FFT) // VOCODER_HOP
    frames = np.lib.stride_tricks.sliding_window_view(x, VOCODER_N_FFT)[::VOCODER_HOP][:n_frames]
    return np.fft.rfft(frames * VOCODER_WINDOW, axis=1)


def _istft_frames(spec: np.ndarray) -> np.ndarray:
    """Overlap-add the inverse of a (frames, bins) spectrum, divided by the summed squared window.

    The output is viewed as blocks of ``VOCODER_HOP`` samples; chunk k of
    frame m lands in block m + k. Adding the chunks from the last k to the
    first sums each sample's frames in ascending order.
    """
    frames = np.fft.irfft(spec, n=VOCODER_N_FFT, axis=1)
    frames *= VOCODER_WINDOW
    n_frames = len(spec)
    overlap = VOCODER_N_FFT // VOCODER_HOP
    out = np.zeros((n_frames + overlap - 1, VOCODER_HOP))
    norm = np.zeros_like(out)
    for k in reversed(range(overlap)):
        out[k : k + n_frames] += frames[:, k * VOCODER_HOP : (k + 1) * VOCODER_HOP]
        norm[k : k + n_frames] += _VOCODER_WINDOW_SQ[k]
    out, norm = out.reshape(-1), norm.reshape(-1)
    good = norm > 1e-3 * norm.max()
    out[good] /= norm[good]
    out[~good] = 0.0
    return out


def time_stretch(x: np.ndarray, factor: float) -> np.ndarray:
    """Phase-vocoder stretch: output duration = input duration * factor.

    Analysis frames (``VOCODER_WINDOW``, hop ``VOCODER_HOP``) start at sample
    0 with no centering padding; only an input shorter than n_fft + hop is
    zero-padded, at the end, to that length. Output frame j reads the
    analysis frames at position j / factor: its magnitudes are interpolated
    between the two neighbours, and its phase advances by the phase
    difference between them.

    The spectrum is kept frames-major, (frames, bins), and no phase is ever
    taken as an angle. With unit phasors ``u = X / |X|`` (``u = 1`` where
    ``|X| = 0``, as ``angle(0) = 0``), the advance between frames k and k + 1
    is ``u[k + 1] * conj(u[k])``: the principal-value phase-advance estimate
    ``wrap(dphi - omega) + omega`` equals dphi modulo 2 pi, so its exponential is
    exactly that product. Output phasors are the running product of the
    advances from ``u[0]``.

    The overlap-add is divided by the summed squared window, and output
    samples where that sum is below 1e-3 of its peak (the first and last
    few, covered only by a window's tail) are set to zero rather than
    amplified. The result is cut or zero-padded at the end to
    round(len(x) * factor).
    """
    target = int(round(len(x) * factor))
    if target < 1:
        raise DegradationError(f"time_stretch factor {factor!r} leaves no samples of a {len(x)}-sample input")
    if len(x) < VOCODER_N_FFT + VOCODER_HOP:
        x = np.pad(x, (0, VOCODER_N_FFT + VOCODER_HOP - len(x)))
    spec = _stft_frames(x)
    steps = np.arange(0.0, len(spec) - 1, 1.0 / factor)
    low = np.floor(steps).astype(np.int64)
    frac = (steps - low)[:, None]
    mags = np.abs(spec)
    unit = np.divide(spec, mags, out=np.ones_like(spec), where=mags > 0.0)
    advance = unit[1:] * unit[:-1].conj()
    out = np.empty((len(steps), spec.shape[1]), dtype=spec.dtype)
    out[0] = unit[0]
    for j in range(1, len(steps)):
        np.multiply(out[j - 1], advance[low[j - 1]], out=out[j])
    out *= mags[low] * (1.0 - frac) + mags[low + 1] * frac
    samples = _istft_frames(out)
    if len(samples) >= target:
        return samples[:target]
    return np.pad(samples, (0, target - len(samples)))


def pitch_shift(x: np.ndarray, semitones: float) -> np.ndarray:
    """Resample (shifting pitch and duration) then stretch the duration back."""
    factor = 2.0 ** (semitones / 12.0)
    frac = Fraction(factor).limit_denominator(499)
    resampled = scipy.signal.resample_poly(x, frac.denominator, frac.numerator)
    out = time_stretch(resampled, factor)
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
        out = pitch_shift(x, float(p["semitones"]))
    elif kind == "time_stretch":
        out = time_stretch(x, 2.0 ** (float(p["cents"]) / 100.0))
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
        # 2 ** (cents / 100): 2.8, 5.7 and 8.7 % longer
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
