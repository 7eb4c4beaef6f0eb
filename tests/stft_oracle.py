"""Test-side oracles for the front end.

``audio.stft`` reduces each block of frames to its log-frequency rows and its
1-norms and never keeps the (bins, frames) magnitude matrix. The tests that
check magnitude properties (sine peaks, energy bounds, hop shifts, blocking)
and the single-op print path need that matrix, so it is rebuilt here with the
same blocked float32 FFT: ``spec.logfreq == freq_map @ magnitude_stft(buf)``
and ``spec.norms == magnitude_stft(buf).sum(axis=0)`` hold exactly.
"""

import numpy as np
import scipy.fft
import scipy.signal

from printdex import audio
from printdex.prints import HDPrint, PrintConfig, frequency_map, print_matrix


def spectrogram(buf, cfg: PrintConfig | None = None) -> audio.Spectrogram:
    """``audio.stft`` with the frequency map of ``cfg``, as ``prints.analyze`` calls it."""
    return audio.stft(buf, frequency_map(cfg or PrintConfig()))


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


def extract_window(mags: np.ndarray, anchor_frame: int, cfg: PrintConfig | None = None) -> np.ndarray:
    """Magnitude columns covering the print window after the anchor."""
    cfg = cfg or PrintConfig()
    n_seg = cfg.segment_frames(audio.SAMPLE_RATE / audio.HOP_SAMPLES)
    if anchor_frame + n_seg > mags.shape[1]:
        raise WindowPastEnd(f"anchor {anchor_frame} + {n_seg} frames exceeds {mags.shape[1]}")
    return mags[:, anchor_frame : anchor_frame + n_seg]


def compute_prints(spec, frames, cfg: PrintConfig | None = None) -> list[HDPrint]:
    """``print_matrix`` unrolled into one ``HDPrint`` per (anchor, band), ordered by (time, band)."""
    cfg = cfg or PrintConfig()
    kept, coeffs = print_matrix(spec, frames, cfg)
    return [
        HDPrint(coeffs=coeffs[i, b], time_index=int(ell), band_index=b + 1)
        for i, ell in enumerate(kept)
        for b in range(cfg.n_bands)
    ]
