"""The angle-and-cumsum phase vocoder: the reference for ``degrade.time_stretch``.

This is the textbook form (bins-major spectrum, phases from ``np.angle``,
principal-value phase advance, cumulative sum, ``exp(1j * phase)``).
``degrade.time_stretch`` computes the same recurrence with unit phasors on a
frames-major spectrum, so the two agree to rounding.
"""

from fractions import Fraction

import numpy as np
import scipy.signal

N_FFT, HOP = 1024, 256


def _stft_frames(x, window):
    n_frames = 1 + (len(x) - N_FFT) // HOP
    frames = np.lib.stride_tricks.sliding_window_view(x, N_FFT)[::HOP][:n_frames]
    return np.fft.rfft(frames * window, axis=1).T


def _istft_frames(spec, window):
    frames = np.fft.irfft(spec.T, n=N_FFT, axis=1) * window
    n_out = (spec.shape[1] - 1) * HOP + N_FFT
    out = np.zeros(n_out)
    norm = np.zeros(n_out)
    for m in range(spec.shape[1]):
        out[m * HOP : m * HOP + N_FFT] += frames[m]
        norm[m * HOP : m * HOP + N_FFT] += window**2
    good = norm > 1e-3 * norm.max()
    out[good] /= norm[good]
    out[~good] = 0.0
    return out


def time_stretch(x, factor):
    target = int(round(len(x) * factor))
    if len(x) < N_FFT + HOP:
        x = np.pad(x, (0, N_FFT + HOP - len(x)))
    window = scipy.signal.windows.hann(N_FFT, sym=False)
    spec = _stft_frames(x, window)
    n_frames = spec.shape[1]
    steps = np.arange(0.0, n_frames - 1, 1.0 / factor)
    low = np.floor(steps).astype(np.int64)
    frac = steps - low
    mags = np.abs(spec)
    mag_interp = mags[:, low] * (1.0 - frac) + mags[:, low + 1] * frac
    omega = 2.0 * np.pi * HOP * np.arange(spec.shape[0]) / N_FFT
    phases = np.angle(spec)
    dphase = phases[:, 1:] - phases[:, :-1] - omega[:, None]
    dphase = dphase - 2.0 * np.pi * np.round(dphase / (2.0 * np.pi))
    dphase += omega[:, None]
    advance = dphase[:, low]
    accum = np.concatenate([phases[:, :1], advance[:, :-1]], axis=1).cumsum(axis=1)
    out = _istft_frames(mag_interp * np.exp(1j * accum), window)
    if len(out) >= target:
        return out[:target]
    return np.pad(out, (0, target - len(out)))


def pitch_shift(x, semitones):
    factor = 2.0 ** (semitones / 12.0)
    frac = Fraction(factor).limit_denominator(499)
    out = time_stretch(scipy.signal.resample_poly(x, frac.denominator, frac.numerator), factor)
    if len(out) >= len(x):
        return out[: len(x)]
    return np.pad(out, (0, len(x) - len(out)))
