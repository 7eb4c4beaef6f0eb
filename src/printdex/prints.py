"""High-dimensional audio prints: log-log spectrogram, band split, 2D-DFT magnitude.

A 3 s spectrogram segment anchored at an analysis time is resampled onto
logarithmic frequency AND logarithmic time axes, so that pitch shifting and
time stretching become translations. Five overlapping log-frequency bands are
cut out, amplitudes are floored/weighted/normalized/log-converted, and the
magnitude of a 2D DFT (invariant to translation) yields 1056 coefficients per
(anchor, band). ``analyze`` runs the whole front end (STFT, anchor selection,
prints) for training, indexing and querying alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.signal
import scipy.sparse

from printdex import audio as _audio
from printdex import onsets as _onsets


class WindowPastEnd(ValueError):
    """The 3 s analysis window would run past the end of the signal."""


@dataclass(frozen=True)
class PrintConfig:
    """Geometry and amplitude parameters of the print computation."""

    window_s: float = 3.0
    f_min: float = 150.0
    f_max: float = 5000.0
    t_min: float = 0.5
    t_max: float = 2.5
    n_logfreq: int = 94
    n_logtime: int = 64
    n_bands: int = 5
    band_width: int = 32
    floor_ratio: float = 0.15
    log_knee: float = 10.0

    def __post_init__(self):
        if self.t_min <= 0 or self.f_min <= 0:
            raise ValueError("t_min and f_min must be positive")
        if self.band_width > self.n_logfreq:
            raise ValueError("band_width cannot exceed n_logfreq")

    @property
    def n_coeffs(self) -> int:
        return self.band_width * (self.n_logtime // 2 + 1)

    def band_starts(self) -> list[int]:
        """First log-frequency row of each band.

        Bands overlap by about half their width; (n_logfreq - band_width)
        is spread over n_bands - 1 with half-away-from-zero rounding, which
        gives {0, 16, 31, 47, 62} for the 94/32/5 default.
        """
        if self.n_bands == 1:
            return [0]
        step = (self.n_logfreq - self.band_width) / (self.n_bands - 1)
        return [int(np.floor(i * step + 0.5)) for i in range(self.n_bands)]

    def segment_frames(self, frame_rate: float) -> int:
        return int(round(self.window_s * frame_rate))


@dataclass(frozen=True)
class LogLogSpectrogram:
    """94x64 nonnegative matrix on geometric frequency/time grids."""

    values: np.ndarray
    anchor_time: float


@dataclass(frozen=True)
class BandMatrix:
    values: np.ndarray
    band_index: int  # 1-based
    kappa_min: int
    kappa_max: int


@dataclass(frozen=True)
class HDPrint:
    """1056 nonnegative 2D-DFT magnitudes for one (anchor time, band)."""

    coeffs: np.ndarray
    time_index: int
    band_index: int  # 1-based


def _simpson_weights(m: int, s: float) -> np.ndarray:
    """Quadrature weights for m uniform segments of width s (m + 1 points).

    Composite Simpson when m is even; Simpson plus a trailing trapezoid when
    odd; plain trapezoid for a single segment. Exact for constants.
    """
    w = np.zeros(m + 1)
    if m == 1:
        w[:] = s / 2.0
        return w
    if m % 2 == 0:
        body = m
    else:
        body = m - 1
        w[m - 1] += s / 2.0
        w[m] += s / 2.0
    w[0] += s / 3.0
    w[body] += s / 3.0
    w[1:body:2] += 4.0 * s / 3.0
    w[2:body:2] += 2.0 * s / 3.0
    return w


def _axis_weights(n_cells: int, lo: float, hi: float, spacing: float, n_src: int) -> np.ndarray:
    """Linear map from a uniform source axis to geometric cells, as a matrix.

    Cell centers are geometrically spaced over [lo, hi]; cell edges sit at the
    geometric midpoints. A cell containing >= 2 source samples takes the
    Simpson-integrated mean of the piecewise-linear source over the cell;
    a narrower cell takes the linear interpolation at its center. Rows sum
    to 1, so constants are preserved.
    """
    ratio = (hi / lo) ** (1.0 / (n_cells - 1))
    centers = lo * ratio ** np.arange(n_cells)
    half = np.sqrt(ratio)
    weights = np.zeros((n_cells, n_src))
    last = (n_src - 1) * spacing

    def interp_at(row, pos):
        jf = np.clip(pos / spacing, 0.0, n_src - 1)
        j = int(np.floor(jf))
        if j >= n_src - 1:
            row[n_src - 1] += 1.0
        else:
            frac = jf - j
            row[j] += 1.0 - frac
            row[j + 1] += frac

    for i, c in enumerate(centers):
        a = max(c / half, 0.0)
        b = min(c * half, last)
        j0 = int(np.ceil(a / spacing - 1e-12))
        j1 = int(np.floor(b / spacing + 1e-12))
        if j1 - j0 + 1 < 2:
            interp_at(weights[i], c)
            continue
        row = weights[i]
        # interior: Simpson over the uniform samples inside the cell
        row[j0 : j1 + 1] += _simpson_weights(j1 - j0, spacing)
        # end strips: trapezoid with linearly interpolated edge values
        wl = j0 * spacing - a
        if wl > 0:
            row[j0] += wl / 2.0
            if j0 > 0:
                row[j0] += (wl / 2.0) * (1.0 - wl / spacing)
                row[j0 - 1] += (wl / 2.0) * (wl / spacing)
            else:
                row[j0] += wl / 2.0
        wr = b - j1 * spacing
        if wr > 0:
            row[j1] += wr / 2.0
            if j1 < n_src - 1:
                row[j1] += (wr / 2.0) * (1.0 - wr / spacing)
                row[j1 + 1] += (wr / 2.0) * (wr / spacing)
            else:
                row[j1] += wr / 2.0
        row /= b - a
    return weights


_MAPPER_CACHE: dict = {}


class _LogLogMapper:
    """Precomputed separable operators H = F @ segment @ T.T for one geometry."""

    def __init__(self, cfg: PrintConfig, n_bins: int, bin_hz: float, frame_period: float):
        n_seg = int(round(cfg.window_s / frame_period))
        self.n_seg = n_seg
        freq = _axis_weights(cfg.n_logfreq, cfg.f_min, cfg.f_max, bin_hz, n_bins)
        self.freq_map = scipy.sparse.csr_matrix(freq)
        self.time_map = _axis_weights(cfg.n_logtime, cfg.t_min, cfg.t_max, frame_period, n_seg)

    def convert(self, segment: np.ndarray) -> np.ndarray:
        return (self.freq_map @ segment) @ self.time_map.T


def _mapper(cfg: PrintConfig, n_bins: int, bin_hz: float, frame_period: float) -> _LogLogMapper:
    key = (cfg, n_bins, bin_hz, frame_period)
    mapper = _MAPPER_CACHE.get(key)
    if mapper is None:
        mapper = _LogLogMapper(cfg, n_bins, bin_hz, frame_period)
        _MAPPER_CACHE[key] = mapper
    return mapper


def extract_window(spec, anchor_frame: int, cfg: PrintConfig | None = None) -> np.ndarray:
    """Slice the spectrogram columns covering the window after the anchor."""
    cfg = cfg or PrintConfig()
    n_seg = cfg.segment_frames(spec.frame_rate)
    if anchor_frame + n_seg > spec.n_frames:
        raise WindowPastEnd(f"anchor {anchor_frame} + {n_seg} frames exceeds {spec.n_frames}")
    return spec.magnitudes[:, anchor_frame : anchor_frame + n_seg]


def loglog_convert(segment: np.ndarray, cfg: PrintConfig, bin_hz: float, frame_period: float, anchor_time: float = 0.0) -> LogLogSpectrogram:
    """Resample a linear (Hz x seconds) segment onto the geometric grid.

    ``bin_hz`` is the source frequency-bin spacing, ``frame_period`` the source
    frame spacing in seconds; segment time 0 is the anchor.
    """
    segment = np.asarray(segment, dtype=np.float64)
    mapper = _mapper(cfg, segment.shape[0], bin_hz, frame_period)
    if segment.shape[1] != mapper.n_seg:
        raise ValueError(f"expected {mapper.n_seg} segment frames, got {segment.shape[1]}")
    return LogLogSpectrogram(values=mapper.convert(segment), anchor_time=anchor_time)


def split_bands(h: LogLogSpectrogram | np.ndarray, cfg: PrintConfig | None = None) -> list[BandMatrix]:
    """Cut the overlapping log-frequency bands out of the log-log matrix."""
    cfg = cfg or PrintConfig()
    values = h.values if isinstance(h, LogLogSpectrogram) else np.asarray(h)
    bands = []
    for b, start in enumerate(cfg.band_starts(), start=1):
        stop = start + cfg.band_width
        bands.append(BandMatrix(values=values[start:stop, :], band_index=b, kappa_min=start, kappa_max=stop - 1))
    return bands


_WINDOW_CACHE: dict = {}


def _hamming2d(shape: tuple[int, int]) -> np.ndarray:
    w = _WINDOW_CACHE.get(shape)
    if w is None:
        w = np.outer(
            scipy.signal.windows.hamming(shape[0], sym=True),
            scipy.signal.windows.hamming(shape[1], sym=True),
        )
        _WINDOW_CACHE[shape] = w
    return w


def modify_amplitudes(h: BandMatrix | np.ndarray, cfg: PrintConfig | None = None) -> np.ndarray:
    """Floor, 2D-weight, max-normalize and log-convert one band matrix.

    The floor sigma = floor_ratio * max(h * w) inhibits low-level noise; the
    Hamming weighting tapers the borders (reducing DFT edge effects); the
    final log(1 + a g) / log(1 + a) maps [0, 1] to itself, linear near 0 and
    compressive near 1. All-zero input stays all-zero.
    """
    cfg = cfg or PrintConfig()
    values = h.values if isinstance(h, BandMatrix) else np.asarray(h, dtype=np.float64)
    if np.any(values < 0):
        raise ValueError("band magnitudes must be nonnegative")
    w = _hamming2d(values.shape)
    sigma = cfg.floor_ratio * float((values * w).max())
    g = np.maximum(sigma, values) * w
    peak = g.max()
    if peak == 0.0:
        return np.zeros_like(g)
    g /= peak
    return np.log1p(cfg.log_knee * g) / np.log1p(cfg.log_knee)


def dft2_magnitude(f: np.ndarray, time_index: int = 0, band_index: int = 1) -> HDPrint:
    """2D-DFT magnitude of the modified band, halved along the log-time axis.

    Keeps all rows (log-frequency frequencies) and the nonnegative log-time
    frequencies, i.e. band_width x (n_logtime/2 + 1) values, vectorized
    row-major.
    """
    mags = np.abs(np.fft.rfft2(np.asarray(f, dtype=np.float64)))
    return HDPrint(coeffs=mags.reshape(-1), time_index=time_index, band_index=band_index)


def print_matrix(spec, frames, cfg: PrintConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bulk print computation for one spectrogram.

    Returns (kept_frames, coeffs) where coeffs has shape
    (n_kept, n_bands, n_coeffs). Anchors whose window passes the signal end
    are dropped.
    """
    cfg = cfg or PrintConfig()
    mapper = _mapper(cfg, spec.n_bins, spec.bin_hz, spec.hop_samples / spec.sample_rate)
    n_seg = mapper.n_seg
    frames = np.asarray(frames, dtype=np.int64)
    kept = frames[frames + n_seg <= spec.n_frames]
    if len(kept) == 0:
        return kept, np.zeros((0, cfg.n_bands, cfg.n_coeffs))
    freq_full = mapper.freq_map @ spec.magnitudes
    starts = np.array(cfg.band_starts())
    band_rows = starts[:, None] + np.arange(cfg.band_width)[None, :]
    w2d = _hamming2d((cfg.band_width, cfg.n_logtime))
    log_norm = np.log1p(cfg.log_knee)
    out = np.empty((len(kept), cfg.n_bands, cfg.n_coeffs))
    for i, ell in enumerate(kept):
        h = freq_full[:, ell : ell + n_seg] @ mapper.time_map.T
        bands = h[band_rows, :]
        weighted = bands * w2d
        sigma = cfg.floor_ratio * weighted.max(axis=(1, 2), keepdims=True)
        g = np.maximum(sigma, bands) * w2d
        peak = g.max(axis=(1, 2), keepdims=True)
        np.divide(g, peak, out=g, where=peak > 0)
        f = np.log1p(cfg.log_knee * g) / log_norm
        out[i] = np.abs(np.fft.rfft2(f, axes=(-2, -1))).reshape(cfg.n_bands, -1)
    return kept, out


@dataclass(frozen=True)
class PipelineConfig:
    """Geometry of the front end: processing rate, spectrogram, anchors, prints."""

    sample_rate: int = _audio.DEFAULT_SAMPLE_RATE
    spectrogram: _audio.SpectrogramConfig = field(default_factory=_audio.SpectrogramConfig)
    onset: _onsets.OnsetConfig = field(default_factory=_onsets.OnsetConfig)
    prints: PrintConfig = field(default_factory=PrintConfig)

    def hop_samples(self) -> int:
        return self.spectrogram.hop_samples(self.sample_rate)

    def frame_period(self) -> float:
        return self.hop_samples() / self.sample_rate


def analyze(buf, cfg: PipelineConfig, frames=None):
    """Spectrogram, anchor frames and raw prints of one buffer.

    The one front end of training, indexing and querying. ``buf`` must
    already be at ``cfg.sample_rate``. When ``frames`` is given the anchors
    are reused instead of re-selected (training transforms degraded variants
    at the original anchor times). Returns (kept_frames, coeffs (n, bands,
    1056)).
    """
    spec = _audio.stft(buf, cfg.spectrogram)
    if frames is None:
        frames = _onsets.select_analysis_times(spec, cfg.onset).frames
    return print_matrix(spec, frames, cfg.prints)


def compute_prints(spec, times, cfg: PrintConfig | None = None) -> list[HDPrint]:
    """Prints for all surviving analysis times, ordered by (time, band)."""
    cfg = cfg or PrintConfig()
    kept, coeffs = print_matrix(spec, times.frames if hasattr(times, "frames") else times, cfg)
    prints = []
    for i, ell in enumerate(kept):
        for b in range(cfg.n_bands):
            prints.append(HDPrint(coeffs=coeffs[i, b], time_index=int(ell), band_index=b + 1))
    return prints
