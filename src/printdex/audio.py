"""PCM front end: WAV loading, resampling, normalization, magnitude spectrogram.

Everything downstream (anchor selection, print computation) consumes the
magnitude spectrogram produced here, so the frame geometry is defined once:
frame ``ell`` covers samples starting at ``ell * hop_samples`` and the
effective frame rate is ``sample_rate / hop_samples`` (the nominal hop in
seconds is rounded to an integer sample count).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.fft
import scipy.io.wavfile
import scipy.signal

DEFAULT_SAMPLE_RATE = 11025
DEFAULT_WINDOW_S = 0.150
DEFAULT_HOP_S = 0.020

# Frames per FFT call in ``stft``: bounds the float32/complex64 temporaries to
# about 2 MB at the default geometry whatever the buffer length.
STFT_BLOCK_FRAMES = 64


class AudioError(ValueError):
    """Unreadable, unsupported or structurally invalid audio input."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float64 samples in [-1, 1] plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise AudioError(f"sample rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise AudioError("audio samples must be finite")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def load_audio(path) -> AudioBuffer:
    """Read a PCM WAV file (8/16/24-bit int or 32-bit float), downmix to mono.

    Channels are averaged; integer samples are scaled to [-1, 1]. The file's
    sample rate is preserved (resample separately if needed).
    """
    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise AudioError(f"cannot read WAV file {path!r}: {exc}") from exc
    if data.size == 0:
        raise AudioError(f"zero-length audio stream in {path!r}")
    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        # scipy returns 24-bit PCM shifted into the top bytes of int32, so a
        # single 2**31 scale covers both 24- and 32-bit files.
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    else:
        raise AudioError(f"unsupported WAV encoding {data.dtype} in {path!r}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioBuffer(samples=samples, sample_rate=int(rate))


def save_wav(path, buf: AudioBuffer) -> None:
    """Write a buffer as 16-bit PCM WAV."""
    clipped = np.clip(buf.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype(np.int16)
    scipy.io.wavfile.write(path, buf.sample_rate, pcm)


def resample(buf: AudioBuffer, target: int) -> AudioBuffer:
    """Polyphase windowed-sinc resampling to ``target`` Hz.

    Band limits below min of the two Nyquist frequencies; output length is
    len * target / rate within one sample. Same-rate input passes through
    untouched.
    """
    if target <= 0:
        raise AudioError(f"target rate must be positive, got {target}")
    if target == buf.sample_rate:
        return buf
    ratio = Fraction(int(target), int(buf.sample_rate))
    out = scipy.signal.resample_poly(buf.samples, ratio.numerator, ratio.denominator)
    return AudioBuffer(samples=out, sample_rate=int(target))


def normalize(buf: AudioBuffer) -> AudioBuffer:
    """Scale so the peak absolute sample is 1. All-zero input is returned as is."""
    peak = np.max(np.abs(buf.samples)) if len(buf.samples) else 0.0
    if peak == 0.0:
        return buf
    return AudioBuffer(samples=buf.samples / peak, sample_rate=buf.sample_rate)


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class SpectrogramConfig:
    """STFT geometry. The window is always a periodic Hann.

    ``fft_factor`` adds zero-padding beyond the next power of 2; the default
    of 2 yields 2049 frequency bins at 11025 Hz / 150 ms, fine enough that
    every log-frequency cell of the print grid is wider than two bins (the
    pitch-translation property needs a uniform resampling regime).
    """

    window_s: float = DEFAULT_WINDOW_S
    hop_s: float = DEFAULT_HOP_S
    fft_factor: int = 2

    def __post_init__(self):
        if self.window_s <= 0 or self.hop_s <= 0:
            raise AudioError("window_s and hop_s must be positive")
        if self.fft_factor < 1 or self.fft_factor & (self.fft_factor - 1):
            raise AudioError("fft_factor must be a power of 2")

    def window_samples(self, sample_rate: int) -> int:
        return max(1, int(round(self.window_s * sample_rate)))

    def hop_samples(self, sample_rate: int) -> int:
        return max(1, int(round(self.hop_s * sample_rate)))

    def fft_size(self, sample_rate: int) -> int:
        return _next_pow2(self.window_samples(sample_rate)) * self.fft_factor


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude time-frequency matrix, shape (fft_size // 2 + 1, n_frames)."""

    magnitudes: np.ndarray
    config: SpectrogramConfig
    sample_rate: int
    hop_samples: int

    @property
    def n_bins(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[1]

    @property
    def frame_rate(self) -> float:
        """Effective frames per second (sample_rate / integer hop)."""
        return self.sample_rate / self.hop_samples

    @property
    def bin_hz(self) -> float:
        fft_size = 2 * (self.n_bins - 1)
        return self.sample_rate / fft_size


def stft(buf: AudioBuffer, cfg: SpectrogramConfig | None = None) -> Spectrogram:
    """Magnitude STFT with a periodic Hann window, zero-padded to a power of 2.

    Frame ``ell`` starts at sample ``ell * hop``; phase is discarded. The FFT
    runs in single precision over blocks of ``STFT_BLOCK_FRAMES`` frames (the
    magnitudes are within ~2e-7 of the peak of a float64 transform); each
    block's magnitudes go straight into a C-contiguous float64 (bins, frames)
    matrix, which the sparse log-frequency map in ``print_matrix`` needs for
    speed.
    """
    cfg = cfg or SpectrogramConfig()
    sr = buf.sample_rate
    win = cfg.window_samples(sr)
    hop = cfg.hop_samples(sr)
    fft_size = cfg.fft_size(sr)
    x = buf.samples
    if len(x) < win:
        raise AudioError(f"buffer ({len(x)} samples) shorter than one window ({win})")
    window = scipy.signal.windows.hann(win, sym=False).astype(np.float32)
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]
    mags = np.empty((fft_size // 2 + 1, len(frames)))
    for start in range(0, len(frames), STFT_BLOCK_FRAMES):
        block = np.multiply(frames[start : start + STFT_BLOCK_FRAMES], window, dtype=np.float32)
        mags.T[start : start + STFT_BLOCK_FRAMES] = np.abs(scipy.fft.rfft(block, n=fft_size, axis=1))
    return Spectrogram(magnitudes=mags, config=cfg, sample_rate=sr, hop_samples=hop)
