"""PCM front end: WAV loading, resampling, normalization, STFT reductions.

The processing rate and the STFT geometry are module constants, because a
reduction model is valid only for the prints of the geometry it was trained
on: a 150 ms periodic Hann window and a 20 ms hop, each rounded once to whole
samples at ``SAMPLE_RATE``, and an FFT zero-padded to twice the next power of
two. Frame ``ell`` covers samples starting at ``ell * HOP_SAMPLES``. Callers
resample to ``SAMPLE_RATE`` first; ``stft`` rejects any other rate.

``stft`` never keeps the (bins, frames) magnitude matrix: the front end needs
only two reductions of each frame, its log-frequency rows (prints) and its
1-norm (onsets), and both are taken block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.fft
import scipy.io.wavfile
import scipy.signal

SAMPLE_RATE = 11025
WINDOW_SAMPLES = int(round(0.150 * SAMPLE_RATE))  # 1654
HOP_SAMPLES = int(round(0.020 * SAMPLE_RATE))  # 220
# Twice the next power of two: every log-frequency cell of the print grid
# spans more than two of the 2049 bins, which the pitch-translation property
# needs.
FFT_SIZE = 2 << (WINDOW_SAMPLES - 1).bit_length()  # 4096
FRAME_PERIOD = HOP_SAMPLES / SAMPLE_RATE

# Frames per FFT call in ``stft``: bounds the float32/complex64 temporaries to
# about 2 MB whatever the buffer length. On 2 vCPUs, 32 to 64 ran fastest of
# 16 to 128 frames; 16 took about 10 % longer and 128 about 20 %.
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


@dataclass(frozen=True)
class Spectrogram:
    """Per-frame reductions of a magnitude STFT of ``FFT_SIZE // 2 + 1`` bins.

    ``logfreq`` is the frequency map applied to the magnitudes, shape
    (map rows, n_frames); ``norms`` holds each frame's magnitude 1-norm.
    """

    logfreq: np.ndarray
    norms: np.ndarray
    sample_rate = SAMPLE_RATE
    hop_samples = HOP_SAMPLES
    frame_rate = SAMPLE_RATE / HOP_SAMPLES
    bin_hz = SAMPLE_RATE / FFT_SIZE
    n_bins = FFT_SIZE // 2 + 1

    @property
    def n_frames(self) -> int:
        return len(self.norms)


def stft(buf: AudioBuffer, freq_map) -> Spectrogram:
    """Magnitude STFT reduced to ``freq_map @ magnitudes`` and column 1-norms.

    ``buf`` must be at ``SAMPLE_RATE``; ``freq_map`` is a (rows, n_bins)
    matrix (``prints.frequency_map`` in the front end). Frame ``ell`` starts at sample
    ``ell * HOP_SAMPLES`` under a periodic Hann window, zero-padded to
    ``FFT_SIZE``; phase is discarded. The FFT runs in single precision over
    blocks of ``STFT_BLOCK_FRAMES`` frames (magnitudes within ~2e-7 of the
    peak of a float64 transform). Each block's magnitudes become a
    C-contiguous float64 (bins, block) array, which the sparse map needs for
    speed, and are dropped once both reductions are taken.
    """
    if buf.sample_rate != SAMPLE_RATE:
        raise AudioError(f"stft needs audio at {SAMPLE_RATE} Hz, got {buf.sample_rate} Hz: resample first")
    x = buf.samples
    if len(x) < WINDOW_SAMPLES:
        raise AudioError(f"buffer ({len(x)} samples) shorter than one window ({WINDOW_SAMPLES})")
    window = scipy.signal.windows.hann(WINDOW_SAMPLES, sym=False).astype(np.float32)
    # Cast each sample once, not once per overlapping frame; windowed frames go
    # into a zero-padded buffer, so the FFT makes no padded copy of its own.
    frames = np.lib.stride_tricks.sliding_window_view(x.astype(np.float32), WINDOW_SAMPLES)[::HOP_SAMPLES]
    padded = np.zeros((STFT_BLOCK_FRAMES, FFT_SIZE), dtype=np.float32)
    logfreq = np.empty((freq_map.shape[0], len(frames)))
    norms = np.empty(len(frames))
    for start in range(0, len(frames), STFT_BLOCK_FRAMES):
        block = frames[start : start + STFT_BLOCK_FRAMES]
        stop = start + len(block)
        np.multiply(block, window, out=padded[: len(block), :WINDOW_SAMPLES])
        mags = np.abs(scipy.fft.rfft(padded[: len(block)], axis=1)).T.astype(np.float64, order="C")
        norms[start:stop] = mags.sum(axis=0)
        logfreq[:, start:stop] = freq_map @ mags
    return Spectrogram(logfreq=logfreq, norms=norms)
