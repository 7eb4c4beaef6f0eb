"""High-dimensional audio prints: log-log spectrogram, band split, 2D-DFT magnitude.

A 3 s spectrogram segment anchored at an analysis time is resampled onto
logarithmic frequency AND logarithmic time axes, so that pitch shifting and
time stretching become translations. Five overlapping log-frequency bands are
cut out, amplitudes are floored/weighted/normalized/log-converted, and the
magnitude of a 2D DFT (invariant to translation) yields 1056 coefficients per
(anchor, band). The log-frequency axis is applied inside ``audio.stft``, one
block of frames at a time (``frequency_map``), so the linear-frequency
spectrogram is never stored. ``print_matrix`` takes every band of every
anchor in one pass, with the geometry derived once per ``PrintConfig``;
``analyze`` runs the whole front end (STFT, anchor selection, prints) for
training, indexing and querying alike. The stage-by-stage single-print path
is a test oracle (``tests/stft_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.signal
import scipy.sparse

from printdex import audio as _audio
from printdex import onsets as _onsets


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
    """Everything ``print_matrix`` derives from one ``PrintConfig``.

    ``freq_map`` takes STFT bins to the log-frequency rows (``audio.stft``
    applies it); ``time_map_t`` takes the segment frames after an anchor to
    the log-time columns, trimmed to the frames [lo, hi) = ``time_span`` that
    carry weight (25..127 of 150 by default). ``band_rows`` indexes the
    overlapping bands out of the log-log matrix, ``taper`` is the 2D Hamming
    weighting of one band and ``log_norm`` the log(1 + a) normaliser.
    """

    def __init__(self, cfg: PrintConfig):
        self.n_seg = cfg.segment_frames(_audio.Spectrogram.frame_rate)
        freq = _axis_weights(cfg.n_logfreq, cfg.f_min, cfg.f_max, _audio.Spectrogram.bin_hz, _audio.Spectrogram.n_bins)
        self.freq_map = scipy.sparse.csr_matrix(freq)
        time_map = _axis_weights(cfg.n_logtime, cfg.t_min, cfg.t_max, _audio.FRAME_PERIOD, self.n_seg)
        cols = np.flatnonzero(time_map.any(axis=0))
        self.time_span = (int(cols[0]), int(cols[-1]) + 1)
        self.time_map_t = time_map[:, self.time_span[0] : self.time_span[1]].T
        self.band_rows = np.array(cfg.band_starts())[:, None] + np.arange(cfg.band_width)[None, :]
        self.taper = np.outer(
            scipy.signal.windows.hamming(cfg.band_width, sym=True),
            scipy.signal.windows.hamming(cfg.n_logtime, sym=True),
        )
        self.log_norm = np.log1p(cfg.log_knee)


def _mapper(cfg: PrintConfig) -> _LogLogMapper:
    mapper = _MAPPER_CACHE.get(cfg)
    if mapper is None:
        mapper = _MAPPER_CACHE[cfg] = _LogLogMapper(cfg)
    return mapper


def frequency_map(cfg: PrintConfig) -> scipy.sparse.csr_matrix:
    """The sparse (n_logfreq, bins) map that ``audio.stft`` applies to each frame."""
    return _mapper(cfg).freq_map


def print_matrix(spec, frames, cfg: PrintConfig) -> tuple[np.ndarray, np.ndarray]:
    """Bulk print computation for one spectrogram.

    ``spec`` must come from ``audio.stft(buf, frequency_map(cfg))``, so its
    ``logfreq`` rows are this configuration's log-frequency axis. Returns
    (kept_frames, coeffs) where coeffs has shape (n_kept, n_bands,
    n_coeffs). Anchors whose window passes the signal end are dropped.
    """
    mapper = _mapper(cfg)
    frames = np.asarray(frames, dtype=np.int64)
    kept = frames[frames + mapper.n_seg <= spec.n_frames]
    if len(kept) == 0:
        return kept, np.zeros((0, cfg.n_bands, cfg.n_coeffs))
    lo, hi = mapper.time_span
    out = np.empty((len(kept), cfg.n_bands, cfg.n_coeffs))
    for i, ell in enumerate(kept):
        h = spec.logfreq[:, ell + lo : ell + hi] @ mapper.time_map_t
        bands = h[mapper.band_rows, :]
        weighted = bands * mapper.taper
        sigma = cfg.floor_ratio * weighted.max(axis=(1, 2), keepdims=True)
        g = np.maximum(sigma, bands) * mapper.taper
        peak = g.max(axis=(1, 2), keepdims=True)
        np.divide(g, peak, out=g, where=peak > 0)
        f = np.log1p(cfg.log_knee * g) / mapper.log_norm
        out[i] = np.abs(scipy.fft.rfft2(f, axes=(-2, -1))).reshape(cfg.n_bands, -1)
    return kept, out


@dataclass(frozen=True)
class PipelineConfig:
    """Anchor and print geometry of the front end.

    The processing rate and the STFT geometry are ``audio``'s constants;
    ``sample_rate`` repeats the rate for callers that cut or load audio.
    """

    onset: _onsets.OnsetConfig = field(default_factory=_onsets.OnsetConfig)
    prints: PrintConfig = field(default_factory=PrintConfig)
    sample_rate = _audio.SAMPLE_RATE


def analyze(buf, cfg: PipelineConfig, frames=None):
    """Spectrogram, anchor frames and raw prints of one buffer.

    The one front end of training, indexing and querying. ``buf`` must
    already be at ``audio.SAMPLE_RATE``. When ``frames`` is given the anchors
    are reused instead of re-selected (training transforms degraded variants
    at the original anchor times). Returns (kept_frames, coeffs (n, bands,
    1056)).
    """
    spec = _audio.stft(buf, frequency_map(cfg.prints))
    if frames is None:
        frames = _onsets.select_analysis_times(spec, cfg.onset).frames
    return print_matrix(spec, frames, cfg.prints)
