"""Two-step retrieval: hash-count candidate selection, then time coherence.

STEP 1 counts matching codes per reference track through the hash table,
aggregated over 15 s reference segments and integrated on a sliding window
sized from the query duration (so long references do not drown short ones in
collisions). STEP 2 checks, for each candidate, whether the matching-code
time pairs (t reference, tau query) align on a line tau = alpha * t - delta:
a cone-weighted histogram over t - tau finds the alignment even under time
stretching, and a final regression refines the stretch factor alpha and the
excerpt offset delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from printdex import audio as _audio
from printdex import hashing as _hashing
from printdex import prints as _prints
from printdex.reduction import reduce_prints

# Rows of the sorted distinct points compared per step of cone_weights: it
# bounds each temporary to CONE_BLOCK_ROWS x m elements for m points, not m x m.
CONE_BLOCK_ROWS = 32
# STEP 2 offset-histogram bin width (s) and the largest admissible stretch
# factor (and its inverse) of a query against its reference.
SIGMA = 0.25
ALPHA_MAX = 1.4
# STEP 1 hands at least CANDIDATE_MIN and at most CANDIDATE_MAX tracks to STEP 2.
CANDIDATE_MIN = 10
CANDIDATE_MAX = 500


# No-match rule: reject a top score under max(NO_MATCH_ABS, NO_MATCH_FACTOR *
# median of the other candidates' scores). Desk calibration: 100 unrelated
# 7 s queries topped out at score 9.
NO_MATCH_ABS = 12.0
NO_MATCH_FACTOR = 3.0


class SearchConfig:
    """Empty: the no-match rule is ``NO_MATCH_ABS`` and ``NO_MATCH_FACTOR``.

    ``bench/workloads.py`` still builds one to pass to ``query_index``.
    """


@dataclass
class MatchHistogram:
    """Per-track best sliding-window match counts plus the raw matches."""

    track_ids: np.ndarray  # sorted by decreasing count
    counts: np.ndarray
    match_track: np.ndarray  # one entry per raw code match
    match_t: np.ndarray  # reference time (s)
    match_tau: np.ndarray  # query time (s)

    def count_for(self, track_id: int) -> int:
        hits = np.flatnonzero(self.track_ids == track_id)
        return int(self.counts[hits[0]]) if len(hits) else 0


@dataclass
class SearchResult:
    track_id: int
    step1_count: int
    coherence_score: float
    alpha: float
    delta_t_star: float
    n_inliers: int
    low_confidence: bool = False


@dataclass
class QueryResult:
    results: list  # step-2 ranked SearchResults
    step1_ranking: np.ndarray
    no_match: bool
    n_prints: int

    @property
    def best(self) -> SearchResult | None:
        return self.results[0] if self.results else None


def count_matches(codes: np.ndarray, times: np.ndarray, index, query_duration: float) -> MatchHistogram:
    """STEP 1: per-track match counts over sliding segment windows.

    ``codes`` are 24-bit extended codes of the query prints (all 51 per
    print), ``times`` their anchor times in seconds. Counts are accumulated
    per 15 s reference segment, then summed over sliding windows of
    ceil(D_e / segment) + 1 consecutive segments; a track scores its best
    window.
    """
    codes = np.asarray(codes)
    if len(codes) == 0:
        raise ValueError("empty query code set")
    times = np.asarray(times, dtype=np.float64)
    counts, postings = index.table.lookup_many(codes)
    match_tau = np.repeat(times, counts)
    match_track = postings["track"].astype(np.int64)
    match_segment = postings["time"].astype(np.int64) // _hashing.SEGMENT_FRAMES
    match_t = postings["time"].astype(np.float64) * _audio.FRAME_PERIOD
    segment_s = _hashing.SEGMENT_FRAMES * _audio.FRAME_PERIOD
    window = int(np.ceil(query_duration / segment_s)) + 1
    if len(match_track) == 0:
        track_ids = np.empty(0, dtype=np.int64)
        best = np.empty(0, dtype=np.int64)
    else:
        track_ids, inverse = np.unique(match_track, return_inverse=True)
        n_segments = int(match_segment.max()) + 1
        # column 0 stays zero, so cum[:, s] counts segments before s
        cum = np.zeros((len(track_ids), n_segments + 1), dtype=np.int64)
        np.add.at(cum, (inverse, match_segment + 1), 1)
        np.cumsum(cum, axis=1, out=cum)
        window = min(window, n_segments)
        best = (cum[:, window:] - cum[:, :-window]).max(axis=1)
    order = np.lexsort((track_ids, -best))
    return MatchHistogram(
        track_ids=track_ids[order],
        counts=best[order],
        match_track=match_track,
        match_t=match_t,
        match_tau=match_tau,
    )


def select_candidates(hist: MatchHistogram) -> np.ndarray:
    """Tracks with N_i >= N_1 / 2, padded to CANDIDATE_MIN, capped at CANDIDATE_MAX."""
    nonzero = hist.counts > 0
    if not np.any(nonzero):
        return np.empty(0, dtype=np.int64)
    ids = hist.track_ids[nonzero]
    counts = hist.counts[nonzero]
    n_rule = int(np.sum(counts >= counts[0] / 2))
    n_keep = min(max(n_rule, CANDIDATE_MIN), CANDIDATE_MAX, len(ids))
    return ids[:n_keep]


def cone_weights(t: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """1 + number of later pairs inside each pair's stretch cone.

    The cone from (t_n, tau_n) holds pairs (t_m, tau_m) with t_m > t_n whose
    connecting slope lies in [1/ALPHA_MAX, ALPHA_MAX]; collinear pairs under
    any admissible stretch support each other. One anchor pair gives many
    equal (t, tau) pairs, and copies of one point have dt = 0, outside every
    cone. So support is counted between distinct points sorted by t, each
    block of rows against the suffix of strictly later points, weighted by
    how many pairs share each point; every copy gets its point's weight.
    """
    t = np.asarray(t, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    n = len(t)
    order = np.lexsort((tau, t))
    ts, taus = t[order], tau[order]
    # edges: where each run of equal points starts, then n
    boundary = np.ones(n + 1, dtype=bool)
    boundary[1:n] = (ts[1:] != ts[:-1]) | (taus[1:] != taus[:-1])
    edges = np.flatnonzero(boundary)
    mult = edges[1:] - edges[:-1]
    pt, ptau = ts[edges[:-1]], taus[edges[:-1]]
    m = len(pt)
    first_later = np.searchsorted(pt, pt, side="right")
    support = np.zeros(m, dtype=np.int64)
    lo, hi = 1.0 / ALPHA_MAX, ALPHA_MAX
    for start in range(0, m, CONE_BLOCK_ROWS):
        later = first_later[start]
        if later == m:
            break
        stop = min(start + CONE_BLOCK_ROWS, m)
        dt = pt[None, later:] - pt[start:stop, None]
        dtau = ptau[None, later:] - ptau[start:stop, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = dtau / dt
        inside = (dt > 0) & (slope >= lo) & (slope <= hi)
        support[start:stop] = inside @ mult[later:]
    weights = np.empty(n)
    weights[order] = np.repeat(1.0 + support, mult)
    return weights


def time_coherence(t: np.ndarray, tau: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Best weighted alignment mass over offsets u = t - tau.

    Histogram with bin width SIGMA plus one-bin neighbor smoothing; returns
    (score, center of the winning bin).
    """
    t = np.asarray(t, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if len(t) == 0:
        return 0.0, 0.0
    u = t - tau
    bins = np.floor(u / SIGMA).astype(np.int64)
    bmin = bins.min()
    # one zero bin on each side of the mass
    padded = np.bincount(bins - (bmin - 1), weights=weights, minlength=int(bins.max() - bmin + 3))
    smoothed = padded[:-2] + padded[1:-1] + padded[2:]
    best = int(np.argmax(smoothed))
    return float(smoothed[best]), float((bmin + best + 0.5) * SIGMA)


def refine_alignment(t: np.ndarray, tau: np.ndarray, delta_t: float, weights: np.ndarray) -> tuple[float, float, int, bool]:
    """Linear regression tau = alpha * t - delta on the winning window.

    Pairs within 1.5 SIGMA of the winning offset give an initial fit; one
    re-selection pass gathers inliers from ALL pairs around the fitted line
    (margin SIGMA), admitting stretched matches outside the initial window,
    and refits. Pair weights (cone counts) steer the regression toward
    mutually consistent pairs, which keeps stray collisions inside the
    window from tilting the slope. alpha is clamped to
    [1/ALPHA_MAX, ALPHA_MAX]. With fewer than 2 inliers, reports
    (1.0, delta_t) flagged low-confidence.
    """
    t = np.asarray(t, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    initial = np.abs((t - tau) - delta_t) <= 1.5 * SIGMA
    if initial.sum() < 2:
        return 1.0, delta_t, int(initial.sum()), True
    alpha, delta = _fit_line(t[initial], tau[initial], w[initial])
    inliers = np.abs(tau - (alpha * t - delta)) <= SIGMA
    if inliers.sum() >= 2:
        alpha, delta = _fit_line(t[inliers], tau[inliers], w[inliers])
    alpha = float(np.clip(alpha, 1.0 / ALPHA_MAX, ALPHA_MAX))
    return alpha, delta, int(inliers.sum()), False


def _fit_line(t: np.ndarray, tau: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    total = w.sum()
    t_mean = (w * t).sum() / total
    tau_mean = (w * tau).sum() / total
    var = np.sum(w * (t - t_mean) ** 2)
    if var == 0.0:
        return 1.0, float(t_mean - tau_mean)
    alpha = float(np.sum(w * (t - t_mean) * (tau - tau_mean)) / var)
    delta = float(alpha * t_mean - tau_mean)
    return alpha, delta


def query_codes(buf, index, model):
    """Analyze an excerpt into extended codes and their anchor times."""
    if model.n_bands != _prints.N_BANDS:
        raise ValueError(f"model has {model.n_bands} bands but the index has {_prints.N_BANDS}")
    buf = _audio.resample(buf, _audio.SAMPLE_RATE)
    buf = _audio.normalize(buf)
    if buf.duration < _prints.WINDOW_S:
        raise ValueError(f"excerpt shorter than one {_prints.WINDOW_S} s print window")
    kept, coeffs = _prints.analyze(buf)
    if len(kept) == 0:
        raise ValueError("no usable analysis window in excerpt")
    anchor_seconds = kept * _audio.FRAME_PERIOD
    # a query keeps all 51 codes, so no reliabilities and no sigma_e
    codes = _hashing.derive_codes(reduce_prints(coeffs, model), None, index.spec, _hashing.N_LSH)
    times = np.broadcast_to(anchor_seconds[:, None], codes.shape)
    return codes.reshape(-1), times.reshape(-1), len(kept), buf.duration


# cfg, print_cfg and onset_cfg are unused; bench/workloads.py still passes them positionally
def query_index(buf, index, model, cfg=None, print_cfg=None, onset_cfg=None) -> QueryResult:
    """Full two-step query of an audio excerpt against a catalog index."""
    codes, times, n_prints, duration = query_codes(buf, index, model)
    hist = count_matches(codes, times, index, duration)
    candidates = select_candidates(hist)
    results = []
    for track_id in candidates:
        mask = hist.match_track == track_id
        t = hist.match_t[mask]
        tau = hist.match_tau[mask]
        w = cone_weights(t, tau)
        score, delta_t = time_coherence(t, tau, w)
        alpha, delta_star, n_inliers, low_conf = refine_alignment(t, tau, delta_t, w)
        results.append(
            SearchResult(
                track_id=int(track_id),
                step1_count=hist.count_for(int(track_id)),
                coherence_score=score,
                alpha=alpha,
                delta_t_star=delta_star,
                n_inliers=n_inliers,
                low_confidence=low_conf,
            )
        )
    results.sort(key=lambda r: (-r.coherence_score, -r.step1_count, r.track_id))
    no_match = True
    if results:
        threshold = NO_MATCH_ABS
        if len(results) > 1:
            threshold = max(threshold, NO_MATCH_FACTOR * float(np.median([r.coherence_score for r in results[1:]])))
        no_match = results[0].coherence_score < threshold
    return QueryResult(results=results, step1_ranking=hist.track_ids, no_match=no_match, n_prints=n_prints)
