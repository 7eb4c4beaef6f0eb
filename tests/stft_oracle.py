"""Test-side oracles for the front end.

``audio.stft`` reduces each block of frames to its log-frequency rows and its
1-norms and never keeps the (bins, frames) magnitude matrix. The tests that
check magnitude properties (sine peaks, energy bounds, hop shifts, blocking)
and the single-op print path need that matrix, so it is rebuilt here with the
same blocked float32 FFT: ``spec.logfreq == freq_map @ magnitude_stft(buf)``
and ``spec.norms == magnitude_stft(buf).sum(axis=0)`` hold exactly.

The single-op print path computes one print at a time, one stage per call:
``loglog_convert`` (full frequency and time maps) -> ``split_bands`` ->
``modify_amplitudes`` -> ``dft2_magnitude``. ``prints.print_matrix`` must
agree with it bit for bit.
"""

from collections import namedtuple

import numpy as np
import scipy.fft
import scipy.signal
import scipy.sparse

from printdex import audio
from printdex import prints
from printdex.prints import _axis_weights, frequency_map


# the 94x64 matrix on geometric frequency/time grids, and the 1056 2D-DFT magnitudes of one band
LogLogSpectrogram = namedtuple("LogLogSpectrogram", "values")
HDPrint = namedtuple("HDPrint", "coeffs")


def spectrogram(buf) -> audio.Spectrogram:
    """``audio.stft`` with the prints' frequency map, as ``prints.analyze`` calls it."""
    return audio.stft(buf, frequency_map())


def magnitude_stft(buf) -> np.ndarray:
    """C-contiguous float64 (FFT_SIZE // 2 + 1, n_frames) magnitudes of ``buf``.

    The framing, window and block loop of ``audio.stft``, block size read at
    call time so a test can change it.
    """
    window = scipy.signal.windows.hann(audio.WINDOW_SAMPLES, sym=False).astype(np.float32)
    frames = np.lib.stride_tricks.sliding_window_view(buf.samples, audio.WINDOW_SAMPLES)[:: audio.HOP_SAMPLES]
    block_frames = audio.STFT_BLOCK_FRAMES
    mags = np.empty((audio.FFT_SIZE // 2 + 1, len(frames)))
    for start in range(0, len(frames), block_frames):
        block = np.multiply(frames[start : start + block_frames], window, dtype=np.float32)
        mags.T[start : start + block_frames] = np.abs(scipy.fft.rfft(block, n=audio.FFT_SIZE, axis=1))
    return mags


class WindowPastEnd(ValueError):
    """The 3 s analysis window would run past the end of the signal."""


def extract_window(mags: np.ndarray, anchor_frame: int) -> np.ndarray:
    """Magnitude columns covering the print window after the anchor."""
    n_seg = prints.SEGMENT_FRAMES
    if anchor_frame + n_seg > mags.shape[1]:
        raise WindowPastEnd(f"anchor {anchor_frame} + {n_seg} frames exceeds {mags.shape[1]}")
    return mags[:, anchor_frame : anchor_frame + n_seg]


def loglog_convert(segment: np.ndarray, bin_hz: float, frame_period: float) -> LogLogSpectrogram:
    """Resample a linear (bins x frames) segment, time 0 at the anchor, onto the geometric grid.

    Applies the full time map, where ``print_matrix`` skips the frames it does not weight.
    """
    segment = np.asarray(segment, dtype=np.float64)
    freq_map = scipy.sparse.csr_matrix(_axis_weights(prints.N_LOGFREQ, prints.F_MIN, prints.F_MAX, bin_hz, segment.shape[0]))
    n_seg = int(round(prints.WINDOW_S * (1.0 / frame_period)))
    time_map = _axis_weights(prints.N_LOGTIME, prints.T_MIN, prints.T_MAX, frame_period, n_seg)
    return LogLogSpectrogram(values=(freq_map @ segment) @ time_map.T)


def split_bands(h: LogLogSpectrogram) -> list[np.ndarray]:
    """The overlapping log-frequency bands of the log-log matrix, lowest first."""
    return [h.values[start : start + prints.BAND_WIDTH] for start in prints.BAND_STARTS]


def modify_amplitudes(h: np.ndarray) -> np.ndarray:
    """Floor, 2D-weight, max-normalize and log-convert one band matrix.

    The floor sigma = FLOOR_RATIO * max(h * w) inhibits low-level noise; the
    Hamming weighting tapers the borders (reducing DFT edge effects); the
    final log(1 + a g) / log(1 + a) maps [0, 1] to itself, linear near 0 and
    compressive near 1. All-zero input stays all-zero.
    """
    values = np.asarray(h, dtype=np.float64)
    if np.any(values < 0):
        raise ValueError("band magnitudes must be nonnegative")
    w = np.outer(*(scipy.signal.windows.hamming(n, sym=True) for n in values.shape))
    sigma = prints.FLOOR_RATIO * float((values * w).max())
    g = np.maximum(sigma, values) * w
    peak = g.max()
    if peak == 0.0:
        return np.zeros_like(g)
    g /= peak
    return np.log1p(prints.LOG_KNEE * g) / np.log1p(prints.LOG_KNEE)


def dft2_magnitude(f: np.ndarray) -> HDPrint:
    """2D-DFT magnitude of a modified band: all rows, the nonnegative log-time frequencies, row-major."""
    mags = np.abs(np.fft.rfft2(np.asarray(f, dtype=np.float64)))
    return HDPrint(coeffs=mags.reshape(-1))
