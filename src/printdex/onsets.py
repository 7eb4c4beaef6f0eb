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

from printdex.audio import Spectrogram, cosine_window

# The onset series is smoothed by an N_FILTER + 1-tap windowed-sinc low-pass
# with cut-off frequency 1 / T_C (T_C in s); an anchor is a frame equal to
# the maximum of the smoothed series over MEAN_LAG seconds centred on it.
T_C = 0.050
N_FILTER = 20
MEAN_LAG = 0.25


def _design_smoother() -> np.ndarray:
    """Symmetric windowed-sinc low-pass smoother, sum-normalized.

    Ideal response 2*f_c*sinc(2*f_c*ell/F_r) with f_c = 1/T_C, weighted by a
    Hamming window over support [-N_FILTER/2, N_FILTER/2]. Zero group delay,
    so smoothed maxima are not shifted.
    """
    f_c = 1.0 / T_C
    ell = np.arange(-(N_FILTER // 2), N_FILTER // 2 + 1, dtype=np.float64)
    ideal = 2.0 * f_c * np.sinc(2.0 * f_c * ell / Spectrogram.frame_rate)
    coeffs = ideal * cosine_window(N_FILTER + 1, 0.54)
    return coeffs / coeffs.sum()


SMOOTHER = _design_smoother()
# half-width in frames of the sliding-maximum window
_MAX_HALF = int(round(MEAN_LAG * Spectrogram.frame_rate)) // 2


@dataclass(frozen=True)
class AnalysisTimes:
    """Selected anchor frames, strictly increasing; frame ``ell`` is at ``ell * audio.FRAME_PERIOD`` s."""

    frames: np.ndarray


def _onset_function(norms) -> np.ndarray:
    """Rectified difference of consecutive spectral 1-norms, one per frame; frame 0 is 0."""
    norms = np.asarray(norms, dtype=np.float64)
    phi = np.zeros(len(norms))
    phi[1:] = np.maximum(norms[1:] - norms[:-1], 0.0)
    return phi


def _smooth(phi: np.ndarray) -> np.ndarray:
    """Convolve phi with ``SMOOTHER``, same length, reflect-padded edges."""
    half = N_FILTER // 2
    if len(phi) <= half:
        raise ValueError(f"series too short ({len(phi)}) for filter support ({half})")
    return np.convolve(np.pad(phi, half, mode="reflect"), SMOOTHER, mode="valid")


def _local_maxima(phi: np.ndarray) -> np.ndarray:
    """Frames where phi equals its maximum over [-_MAX_HALF, _MAX_HALF] around them.

    Runs of equal consecutive maxima yield only their first frame
    (deterministic plateau tie-break).
    """
    sliding_max = scipy.ndimage.maximum_filter1d(phi, size=2 * _MAX_HALF + 1, mode="nearest")
    mask = phi == sliding_max
    keep = mask.copy()
    keep[1:] &= ~(mask[:-1] & (phi[1:] == phi[:-1]))
    return np.flatnonzero(keep)


def select_analysis_times(spec) -> AnalysisTimes:
    """Full anchor-time selection on a spectrogram's frame norms (flux, smoothing, maxima)."""
    return AnalysisTimes(frames=_local_maxima(_smooth(_onset_function(spec.norms))))
