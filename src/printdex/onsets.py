"""Anchor-time selection: onset function, smoothing and maximal filtering.

The goal is not onset detection: anchor times only have to land on the same
signal events with or without degradations, so that prints computed on a
reference track and on a degraded excerpt line up. The onset function is the
rectified difference of frame-wise spectral 1-norms, the member of the
generalized spectral-flux family that a robustness study selected. It is
smoothed by a zero-delay windowed-sinc filter, and the frames where the
smoothed series equals its sliding maximum are the anchors. The 1-norms
come from ``audio.stft`` (``Spectrogram.norms``), which sums each frame's
magnitudes as it goes, so this module never sees the magnitudes themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage

from printdex.audio import cosine_window

# The onset series is smoothed by an N_FILTER + 1-tap windowed-sinc low-pass
# with cut-off frequency 1 / T_C (T_C in s); an anchor is a frame equal to
# the maximum of the smoothed series over MEAN_LAG seconds centred on it.
T_C = 0.050
N_FILTER = 20
MEAN_LAG = 0.25


@dataclass(frozen=True)
class AnalysisTimes:
    """Selected anchor frames, strictly increasing; frame ``ell`` is at ``ell * audio.FRAME_PERIOD`` s."""

    frames: np.ndarray


def diff_spectral_norms(norms) -> np.ndarray:
    """Rectified difference of consecutive spectral 1-norms, one per frame.

    ``norms`` is the per-frame magnitude 1-norm series (``Spectrogram.norms``,
    which ``audio.stft`` sums block by block). Frame 0 (no predecessor) is 0.
    """
    norms = np.asarray(norms, dtype=np.float64)
    phi = np.zeros(len(norms))
    phi[1:] = np.maximum(norms[1:] - norms[:-1], 0.0)
    return phi


def design_smoother(t_c: float, n: int, frame_rate: float) -> np.ndarray:
    """Symmetric windowed-sinc low-pass smoother, sum-normalized.

    Ideal response 2*f_c*sinc(2*f_c*ell/F_r) with f_c = 1/t_c, weighted by a
    Hamming window over support [-n/2, n/2]. Zero group delay, so smoothed
    maxima are not shifted.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")
    if t_c <= 0:
        raise ValueError("t_c must be positive")
    if n == 0:
        return np.array([1.0])
    f_c = 1.0 / t_c
    ell = np.arange(-(n // 2), n // 2 + 1, dtype=np.float64)
    ideal = 2.0 * f_c * np.sinc(2.0 * f_c * ell / frame_rate)
    coeffs = ideal * cosine_window(n + 1, 0.54)
    return coeffs / coeffs.sum()


def post_filter(phi: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Convolve phi with the smoother, same length, reflect-padded edges."""
    phi = np.asarray(phi, dtype=np.float64)
    if np.any(phi < 0):
        raise ValueError("post_filter input must be nonnegative")
    half = (len(coeffs) - 1) // 2
    if half == 0:
        return phi * coeffs[0]
    if len(phi) <= half:
        raise ValueError(f"series too short ({len(phi)}) for filter support ({half})")
    padded = np.pad(phi, half, mode="reflect")
    return np.convolve(padded, coeffs, mode="valid")


def select_times(phi: np.ndarray, mean_lag: float, frame_rate: float) -> AnalysisTimes:
    """Pick frames where phi equals its sliding maximum.

    The window covers [-T//2, T//2] around each frame with
    T = round(mean_lag * F_r); runs of equal consecutive maxima yield only
    their first frame (deterministic plateau tie-break).
    """
    phi = np.asarray(phi, dtype=np.float64)
    if len(phi) == 0:
        raise ValueError("empty onset series")
    t_frames = int(round(mean_lag * frame_rate))
    if t_frames < 1:
        raise ValueError("mean_lag shorter than one frame")
    half = t_frames // 2
    sliding_max = scipy.ndimage.maximum_filter1d(phi, size=2 * half + 1, mode="nearest")
    mask = phi == sliding_max
    keep = mask.copy()
    keep[1:] &= ~(mask[:-1] & (phi[1:] == phi[:-1]))
    frames = np.flatnonzero(keep)
    return AnalysisTimes(frames=frames)


def select_analysis_times(spec) -> AnalysisTimes:
    """Full anchor-time selection on a spectrogram's frame norms (flux, smoothing, maxima)."""
    frame_rate = spec.frame_rate
    phi = diff_spectral_norms(spec.norms)
    smoothed = post_filter(phi, design_smoother(T_C, N_FILTER, frame_rate))
    return select_times(smoothed, MEAN_LAG, frame_rate)
