"""PCM front end: WAV loading, resampling, normalization, STFT reductions.

The processing rate and the STFT geometry are module constants, because a
reduction model is valid only for the prints of the geometry it was trained
on: a 150 ms periodic Hann window and a 20 ms hop, each rounded once to whole
samples at ``SAMPLE_RATE``, and an FFT zero-padded to twice the next power of
two. Frame ``ell`` covers samples starting at ``ell * HOP_SAMPLES``. Callers
resample to ``SAMPLE_RATE`` first; ``stft`` rejects any other rate.

``resample`` decimates by an integer ratio (44.1 or 22.05 kHz down to
11.025 kHz) with two matrix products that compute ``resample_poly``'s output
to rounding; every other ratio goes through ``resample_poly`` itself.

The front end's windows and decimator taps are computed here by scipy's own
formulas (``cosine_window``, ``_lowpass_taps``), to the bit, so that a query
never imports ``scipy.signal``: that import alone costs about 45 MB and half a
second at every process start. Only non-integer resampling loads it.

``stft`` never keeps the (bins, frames) magnitude matrix: the front end needs
only two reductions of each frame, its log-frequency rows (prints) and its
1-norm (onsets), and both are taken block by block. The FFT, the magnitudes
and the log-frequency rows are single precision; each frame's 1-norm is
summed in double precision, so the onset series and its anchors do not depend
on the precision of the prints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.fft
import scipy.io.wavfile
import scipy.special

SAMPLE_RATE = 11025
WINDOW_SAMPLES = int(round(0.150 * SAMPLE_RATE))  # 1654
HOP_SAMPLES = int(round(0.020 * SAMPLE_RATE))  # 220
# Twice the next power of two: every log-frequency cell of the print grid
# spans more than two of the 2049 bins, which the pitch-translation property
# needs.
FFT_SIZE = 2 << (WINDOW_SAMPLES - 1).bit_length()  # 4096
FRAME_PERIOD = HOP_SAMPLES / SAMPLE_RATE


def cosine_window(n: int, a0: float, sym: bool = True) -> np.ndarray:
    """The n-point window a0 + (1 - a0) cos(x), x = linspace(-pi, pi): Hann at a0 = 0.5, Hamming at 0.54.

    ``scipy.signal.windows.general_hamming(n, a0, sym)`` bit for bit, by its
    own cosine-sum formula; the periodic window (``sym=False``) is the first
    n of n + 1 points. ``n`` is at least 2.
    """
    w = a0 + (1.0 - a0) * np.cos(np.linspace(-np.pi, np.pi, n if sym else n + 1))
    return w[:n]


# Frames per FFT call in ``stft``: bounds the float32/complex64 temporaries to
# about 2 MB whatever the buffer length. On 2 vCPUs, 32 to 64 ran fastest of
# 16 to 128 frames; 16 took about 10 % longer and 128 about 20 %.
STFT_BLOCK_FRAMES = 64
# The periodic Hann window of every frame, in the FFT's precision.
HANN_WINDOW = cosine_window(WINDOW_SAMPLES, 0.5, sym=False).astype(np.float32)
HANN_WINDOW.setflags(write=False)

# Output samples per row of the decimator's matrix products (``_decimate``).
# Down-ratios above MAX_DECIMATION (the 176.4 kHz to 11.025 kHz ratio) go
# through ``resample_poly``: the two matrices take 43 kB per unit of ratio.
DECIMATE_BLOCK = 64
MAX_DECIMATION = 16


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
    # Scaling by a power of two is exact, so one multiply that casts as it
    # goes gives the same samples as a cast and then a division.
    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        samples = np.multiply(data, 2.0**-15, dtype=np.float64)
    elif data.dtype == np.int32:
        # scipy returns 24-bit PCM shifted into the top bytes of int32, so a
        # single 2**31 scale covers both 24- and 32-bit files.
        samples = np.multiply(data, 2.0**-31, dtype=np.float64)
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


def _lowpass_taps(q: int) -> np.ndarray:
    """``scipy.signal.firwin(20q + 1, 1 / q, window=("kaiser", 5.0))`` bit for bit, by firwin's formula.

    The ideal low-pass ``sinc`` at cut-off 1/q of Nyquist, times a Kaiser
    window with beta 5 (``i0`` ratio), scaled to sum 1.
    """
    n = 20 * q + 1
    m = np.arange(n, dtype=np.float64) - 0.5 * (n - 1)
    cutoff = 1.0 / q
    h = cutoff * np.sinc(cutoff * m)
    h *= scipy.special.i0(5.0 * np.sqrt(1 - (m / (0.5 * (n - 1))) ** 2.0)) / scipy.special.i0(5.0)
    return h / h.sum()


@functools.lru_cache(maxsize=None)
def _decimator(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(H_top, H_tail): ``resample_poly(x, 1, q)`` as matrices over rows of q * DECIMATE_BLOCK inputs.

    The filter is ``resample_poly``'s: 20q + 1 ``firwin`` taps
    (``_lowpass_taps``), cut-off at the output Nyquist frequency, Kaiser
    window with beta 5. Output column ``i`` of a row weights the row's
    zero-padded inputs ``i*q ... i*q + 20q`` with the taps; H_top holds the
    taps that fall inside the row and H_tail (20q rows) those that reach into
    the next row.
    """
    half = 10 * q
    taps = _lowpass_taps(q)
    width = q * DECIMATE_BLOCK
    h = np.zeros((width + 2 * half, DECIMATE_BLOCK))
    for i in range(DECIMATE_BLOCK):
        h[i * q : i * q + 2 * half + 1, i] = taps
    top, tail = h[:width], h[width:]
    top.setflags(write=False)
    tail.setflags(write=False)
    return top, tail


def _decimate(x: np.ndarray, q: int) -> np.ndarray:
    """``scipy.signal.resample_poly(x, 1, q)`` to rounding: ceil(len(x) / q) samples, zero-padded ends.

    The input, shifted by the filter's half length 10q, is cut into rows of
    q * DECIMATE_BLOCK samples; each row gives DECIMATE_BLOCK outputs as
    ``row @ H_top + next_row[:20q] @ H_tail``.
    """
    top, tail = _decimator(q)
    width, n_out = top.shape[0], -(-len(x) // q)
    n_rows = -(-n_out // DECIMATE_BLOCK)
    padded = np.zeros((n_rows + 1) * width)
    padded[10 * q : 10 * q + len(x)] = x
    rows = padded.reshape(n_rows + 1, width)
    out = rows[:-1] @ top + rows[1:, : tail.shape[0]] @ tail
    return out.reshape(-1)[:n_out]


def resample(buf: AudioBuffer, target: int) -> AudioBuffer:
    """Polyphase windowed-sinc resampling to ``target`` Hz.

    Band limits below min of the two Nyquist frequencies; output length is
    ceil(len * target / rate). Same-rate input passes through untouched.
    An integer down-ratio up to MAX_DECIMATION (44.1 or 22.05 kHz to
    11.025 kHz) is decimated by ``_decimate``, which agrees with
    ``scipy.signal.resample_poly`` to rounding; any other ratio (48 kHz,
    upsampling) runs ``resample_poly``.
    """
    if target <= 0:
        raise AudioError(f"target rate must be positive, got {target}")
    if target == buf.sample_rate:
        return buf
    ratio = Fraction(int(target), int(buf.sample_rate))
    if ratio.numerator == 1 and ratio.denominator <= MAX_DECIMATION:
        out = _decimate(buf.samples, ratio.denominator)
    else:
        from scipy.signal import resample_poly  # the front end's one use of scipy.signal, so a query only loads it here

        out = resample_poly(buf.samples, ratio.numerator, ratio.denominator)
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

    ``logfreq`` is the frequency map applied to the magnitudes, float32 of
    shape (map rows, n_frames); ``norms`` holds each frame's magnitude
    1-norm in float64.
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

    ``buf`` must be at ``SAMPLE_RATE``; ``freq_map`` is a float32 (rows,
    n_bins) sparse matrix (``prints.frequency_map`` in the front end). Frame
    ``ell`` starts at sample ``ell * HOP_SAMPLES`` under ``HANN_WINDOW``,
    zero-padded to ``FFT_SIZE``; phase is discarded. The FFT runs in single
    precision over blocks of ``STFT_BLOCK_FRAMES`` frames (magnitudes within
    ~2e-7 of the peak of a float64 transform). Each block's float32
    magnitudes give the frames' 1-norms, summed in float64, and, transposed
    to the C-contiguous (bins, block) layout the sparse map needs for speed,
    the float32 log-frequency rows; then they are dropped.
    """
    if buf.sample_rate != SAMPLE_RATE:
        raise AudioError(f"stft needs audio at {SAMPLE_RATE} Hz, got {buf.sample_rate} Hz: resample first")
    x = buf.samples
    if len(x) < WINDOW_SAMPLES:
        raise AudioError(f"buffer ({len(x)} samples) shorter than one window ({WINDOW_SAMPLES})")
    # Cast each sample once, not once per overlapping frame; windowed frames go
    # into a zero-padded buffer, so the FFT makes no padded copy of its own.
    frames = np.lib.stride_tricks.sliding_window_view(x.astype(np.float32), WINDOW_SAMPLES)[::HOP_SAMPLES]
    padded = np.zeros((STFT_BLOCK_FRAMES, FFT_SIZE), dtype=np.float32)
    logfreq = np.empty((freq_map.shape[0], len(frames)), dtype=np.float32)
    norms = np.empty(len(frames))
    for start in range(0, len(frames), STFT_BLOCK_FRAMES):
        block = frames[start : start + STFT_BLOCK_FRAMES]
        stop = start + len(block)
        np.multiply(block, HANN_WINDOW, out=padded[: len(block), :WINDOW_SAMPLES])
        mags = np.abs(scipy.fft.rfft(padded[: len(block)], axis=1))
        norms[start:stop] = mags.sum(axis=1, dtype=np.float64)
        logfreq[:, start:stop] = freq_map @ np.ascontiguousarray(mags.T)
    return Spectrogram(logfreq=logfreq, norms=norms)
