"""High-dimensional audio prints: log-log spectrogram, band split, 2D-DFT magnitude.

A 3 s spectrogram segment anchored at an analysis time is resampled onto
logarithmic frequency AND logarithmic time axes, so that pitch shifting and
time stretching become translations. Five overlapping log-frequency bands are
cut out, amplitudes are floored/weighted/normalized/log-converted, and the
magnitude of a 2D DFT (invariant to translation) yields 1056 coefficients per
(anchor, band). The log-frequency axis is applied inside ``audio.stft``, one
block of frames at a time (``frequency_map``), so the linear-frequency
spectrogram is never stored. The geometry is this module's constants,
which the learned reduction is fitted to. ``print_matrix`` takes every band
of every anchor in one pass, with the geometry's maps derived once, and
runs in single precision from the log-frequency rows to the 2D-DFT
magnitudes; ``analyze`` runs the whole front end (STFT, anchor selection,
prints) for training, indexing and querying alike. The stage-by-stage single-print path
is a test oracle (``tests/stft_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.sparse

from printdex import audio as _audio
from printdex import onsets as _onsets


WINDOW_S = 3.0  # print segment after each anchor (s)
F_MIN, F_MAX = 150.0, 5000.0  # log-frequency axis (Hz)
T_MIN, T_MAX = 0.5, 2.5  # log-time axis (s after the anchor)
N_LOGFREQ = 94
N_LOGTIME = 64
N_BANDS = 5
BAND_WIDTH = 32  # log-frequency rows per band
FLOOR_RATIO = 0.15  # amplitude floor, relative to the band's weighted peak
LOG_KNEE = 10.0  # f = log(1 + LOG_KNEE * g) / log(1 + LOG_KNEE)

N_COEFFS = BAND_WIDTH * (N_LOGTIME // 2 + 1)  # 1056 per (anchor, band)
SEGMENT_FRAMES = int(round(WINDOW_S * _audio.Spectrogram.frame_rate))  # 150
# First log-frequency row of each band. Bands overlap by about half their
# width: (N_LOGFREQ - BAND_WIDTH) is spread over N_BANDS - 1 with
# half-away-from-zero rounding, which gives (0, 16, 31, 47, 62).
BAND_STARTS = tuple(int(np.floor(i * (N_LOGFREQ - BAND_WIDTH) / (N_BANDS - 1) + 0.5)) for i in range(N_BANDS))


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


_MAPPER_CACHE: dict = {}  # the one _LogLogMapper, built on first use; bench/ clears it to time the build


class _LogLogMapper:
    """Everything ``print_matrix`` derives from the print geometry.

    ``freq_map`` takes STFT bins to the log-frequency rows (``audio.stft``
    applies it); ``time_map_t`` takes the segment frames after an anchor to
    the log-time columns, trimmed to the frames [lo, hi) = ``time_span`` that
    carry weight (25..127 of 150). ``band_rows`` indexes the overlapping
    bands out of the log-log matrix, ``taper`` is the 2D Hamming weighting
    of one band and ``log_norm`` the log(1 + a) normaliser. The weights are
    derived in float64 and stored in float32, the precision of the prints.
    """

    def __init__(self):
        freq = _axis_weights(N_LOGFREQ, F_MIN, F_MAX, _audio.Spectrogram.bin_hz, _audio.Spectrogram.n_bins)
        self.freq_map = scipy.sparse.csr_matrix(freq.astype(np.float32))
        time_map = _axis_weights(N_LOGTIME, T_MIN, T_MAX, _audio.FRAME_PERIOD, SEGMENT_FRAMES)
        cols = np.flatnonzero(time_map.any(axis=0))
        self.time_span = (int(cols[0]), int(cols[-1]) + 1)
        self.time_map_t = time_map[:, self.time_span[0] : self.time_span[1]].T.astype(np.float32)
        self.band_rows = np.array(BAND_STARTS)[:, None] + np.arange(BAND_WIDTH)[None, :]
        self.taper = np.outer(_audio.cosine_window(BAND_WIDTH, 0.54), _audio.cosine_window(N_LOGTIME, 0.54)).astype(np.float32)
        self.log_norm = np.float32(np.log1p(LOG_KNEE))


def _mapper() -> _LogLogMapper:
    mapper = _MAPPER_CACHE.get("loglog")
    if mapper is None:
        mapper = _MAPPER_CACHE["loglog"] = _LogLogMapper()
    return mapper


def frequency_map() -> scipy.sparse.csr_matrix:
    """The sparse float32 (N_LOGFREQ, bins) map that ``audio.stft`` applies to each frame."""
    return _mapper().freq_map


def print_matrix(spec, frames) -> tuple[np.ndarray, np.ndarray]:
    """Bulk print computation for one spectrogram.

    ``spec`` must come from ``audio.stft(buf, frequency_map())``, so its
    ``logfreq`` rows are the print's log-frequency axis. Returns
    (kept_frames, coeffs) where coeffs is float32 of shape (n_kept, N_BANDS,
    N_COEFFS). Anchors whose window passes the signal end are dropped.
    Every stage (time map, taper, floor, normalisation, log and ``rfft2``)
    runs in float32; the learned reduction takes the prints to float64.
    """
    mapper = _mapper()
    frames = np.asarray(frames, dtype=np.int64)
    kept = frames[frames + SEGMENT_FRAMES <= spec.n_frames]
    if len(kept) == 0:
        return kept, np.zeros((0, N_BANDS, N_COEFFS), dtype=np.float32)
    lo, hi = mapper.time_span
    out = np.empty((len(kept), N_BANDS, N_COEFFS), dtype=np.float32)
    for i, ell in enumerate(kept):
        h = spec.logfreq[:, ell + lo : ell + hi] @ mapper.time_map_t
        bands = h[mapper.band_rows, :]
        weighted = bands * mapper.taper
        sigma = FLOOR_RATIO * weighted.max(axis=(1, 2), keepdims=True)
        g = np.maximum(sigma, bands) * mapper.taper
        peak = g.max(axis=(1, 2), keepdims=True)
        np.divide(g, peak, out=g, where=peak > 0)
        f = np.log1p(LOG_KNEE * g) / mapper.log_norm
        out[i] = np.abs(scipy.fft.rfft2(f, axes=(-2, -1))).reshape(N_BANDS, -1)
    return kept, out


def analyze(buf, frames=None):
    """Spectrogram, anchor frames and raw prints of one buffer.

    The one front end of training, indexing and querying. ``buf`` must
    already be at ``audio.SAMPLE_RATE``. When ``frames`` is given the anchors
    are reused instead of re-selected (training transforms degraded variants
    at the original anchor times). Returns (kept_frames, float32 coeffs (n,
    bands, 1056)).
    """
    spec = _audio.stft(buf, frequency_map())
    if frames is None:
        frames = _onsets.select_analysis_times(spec).frames
    return print_matrix(spec, frames)
