"""End-to-end orchestration: manifests, training, index building, evaluation.

Ties the stages together for the CLI and the evaluation protocol: reference
tracks are analyzed once into per-band reduced prints; training derives the
reduction model from degraded variants of the catalog; evaluation cuts query
excerpts, degrades them, and scores STEP 1 / STEP 2 top-1 recognition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from printdex import degrade as _degrade
from printdex import hashing as _hashing
from printdex import search as _search
from printdex.audio import FRAME_PERIOD, AudioBuffer, load_audio, normalize, resample
from printdex.hashing import _MASK64, _splitmix64
from printdex.prints import PipelineConfig, analyze
from printdex.reduction import ReductionModel, reduce_prints, train_reduction


# A track id is stored in the index's u32 posting field.
TRACK_ID_MAX = np.iinfo(_hashing._POSTING_DTYPE["track"]).max


@dataclass(frozen=True)
class ManifestEntry:
    track_id: int
    path: str
    label: str = ""


def read_manifest(path) -> list:
    """Tab-separated manifest: track_id in [0, 2**32), file path, optional label."""
    entries = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"{path}:{line_no}: expected 'id<TAB>path[<TAB>label]'")
            try:
                tid = int(parts[0])
            except ValueError:
                tid = None
            if tid is None or not 0 <= tid <= TRACK_ID_MAX:
                raise ValueError(f"{path}:{line_no}: track id must be an integer in [0, {TRACK_ID_MAX}], got {parts[0]!r}")
            if tid in seen:
                raise ValueError(f"{path}:{line_no}: duplicate track id {tid}")
            seen.add(tid)
            entries.append(ManifestEntry(track_id=tid, path=parts[1], label=parts[2] if len(parts) > 2 else ""))
    if not entries:
        raise ValueError(f"manifest {path} is empty")
    return entries


def write_manifest(path, entries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.track_id}\t{e.path}\t{e.label}\n")


def load_track(entry_or_path, cfg: PipelineConfig) -> AudioBuffer:
    path = entry_or_path.path if isinstance(entry_or_path, ManifestEntry) else entry_or_path
    return normalize(resample(load_audio(path), cfg.sample_rate))


# ---------------------------------------------------------------------------
# Training


DEFAULT_TRAINING_PLAN = (
    ("white12", "white_noise:snr_db=12"),
    ("white6", "white_noise:snr_db=6"),
    ("pink12", "pink_noise:snr_db=12"),
    ("eq6", "graphic_eq:gain_db=6"),
    ("dist12", "distortion:input_gain_db=12"),
    ("trem6", "tremolo:depth_db=6"),
    ("comp8", "dyn_compress:ratio=8,release_ms=10"),
    ("reverb3", "reverb_synthetic:mix_db=3"),
    ("pitchp", "pitch_shift:semitones=0.5"),
    ("pitchm", "pitch_shift:semitones=-0.5"),
    ("stretchp", "time_stretch:cents=30"),
    ("stretchm", "time_stretch:cents=-30"),
)


def _derive_seed(base: int, *parts: int) -> int:
    state = base & _MASK64
    for p in parts:
        state = (state * 0x100000001B3 + (p & _MASK64) + 1) & _MASK64
    state, value = _splitmix64(state)
    return value


def _spread_indices(n: int, k: int) -> np.ndarray:
    if n <= k:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, k)).astype(np.int64))


@dataclass
class TrainingData:
    """Class records plus the larger original-print pools, all bands at once."""

    prints: np.ndarray  # (n, bands, 1056) float32
    class_ids: np.ndarray  # (n,)
    is_original: np.ndarray  # (n,) bool
    pools: np.ndarray  # (m, bands, 1056) float32


def collect_training_data(
    entries,
    cfg: PipelineConfig,
    plan=DEFAULT_TRAINING_PLAN,
    *,
    times_per_track: int = 6,
    pool_times_per_track: int = 40,
    seed: int = 0,
    progress=None,
) -> TrainingData:
    """Compute original and degraded prints for the reduction trainer.

    Classes are (track, anchor) pairs; each gets one original print and one
    print per degradation variant, computed at the original anchor positions
    (rescaled when a variant changes the duration). A wider anchor pool per
    track feeds the conditioning/decorrelation fits, which need many more
    samples than the class structure provides.
    """
    specs = [(label, _degrade.parse_spec(text)) for label, text in plan]
    prints_acc, class_acc, orig_acc, pool_acc = [], [], [], []
    for t_idx, entry in enumerate(entries):
        buf = load_track(entry, cfg)
        kept, coeffs = analyze(buf, cfg)
        if len(kept) == 0:
            continue
        pool_pick = _spread_indices(len(kept), pool_times_per_track)
        class_pick = _spread_indices(len(kept), times_per_track)
        class_frames = kept[class_pick]
        pool_acc.append(coeffs[pool_pick].astype(np.float32))
        prints_acc.append(coeffs[class_pick].astype(np.float32))
        class_acc.append(np.arange(len(class_pick)) + 100000 * entry.track_id)
        orig_acc.append(np.ones(len(class_pick), dtype=bool))
        for v_idx, (label, dspec) in enumerate(specs):
            var_seed = _derive_seed(seed, entry.track_id, v_idx)
            dbuf = normalize(_degrade.apply(dspec.reseeded(var_seed), buf))
            scale = dbuf.duration / buf.duration
            frames = np.round(class_frames * scale).astype(np.int64)
            dkept, dcoeffs = analyze(dbuf, cfg, frames=frames)
            # frames are sorted, so the anchors surviving the end-of-signal
            # check are exactly a prefix; class ranks align positionally
            prints_acc.append(dcoeffs.astype(np.float32))
            class_acc.append(np.arange(len(dkept)) + 100000 * entry.track_id)
            orig_acc.append(np.zeros(len(dkept), dtype=bool))
        if progress:
            progress(f"training data: {t_idx + 1}/{len(entries)} tracks")
    return TrainingData(
        prints=np.concatenate(prints_acc),
        class_ids=np.concatenate(class_acc),
        is_original=np.concatenate(orig_acc),
        pools=np.concatenate(pool_acc),
    )


def train_from_manifest(
    entries,
    cfg: PipelineConfig,
    plan=DEFAULT_TRAINING_PLAN,
    *,
    times_per_track: int = 6,
    pool_times_per_track: int = 40,
    seed: int = 0,
    lda_dim: int = 80,
    enforce_min_originals: bool = True,
    progress=None,
) -> ReductionModel:
    data = collect_training_data(
        entries,
        cfg,
        plan,
        times_per_track=times_per_track,
        pool_times_per_track=pool_times_per_track,
        seed=seed,
        progress=progress,
    )
    return train_reduction(
        data.prints,
        data.class_ids,
        data.is_original,
        data.pools,
        lda_dim=lda_dim,
        seed=seed,
        enforce_min_originals=enforce_min_originals,
    )


# ---------------------------------------------------------------------------
# Index building


def reduced_prints_for_buffer(buf: AudioBuffer, model: ReductionModel, cfg: PipelineConfig):
    """(kept_frames, reduced (n, bands, 40)) for one buffer."""
    kept, coeffs = analyze(buf, cfg)
    return kept, reduce_prints(coeffs, model)


def index_postings(kept, reduced, model, lsh_spec, n_reliable: int):
    """Extended codes and posting frames of one track's reduced prints."""
    sigma_e = [chain.sigma_e for chain in model.bands]
    codes = _hashing.derive_codes(reduced, sigma_e, lsh_spec, n_reliable)
    return codes.reshape(-1), np.broadcast_to(kept[:, None], codes.shape).reshape(-1)


def build_index(
    entries,
    model: ReductionModel,
    cfg: PipelineConfig,
    *,
    lsh_seed: int = 0,
    progress=None,
) -> _hashing.CatalogIndex:
    spec = _hashing.make_lsh_spec(lsh_seed)
    table = _hashing.HashTable()
    tracks = {}
    for i, entry in enumerate(entries):
        buf = load_track(entry, cfg)
        kept, reduced = reduced_prints_for_buffer(buf, model, cfg)
        codes, frames = index_postings(kept, reduced, model, spec, _hashing.N_RELIABLE)
        table.insert(codes, np.full(len(codes), entry.track_id), frames)
        tracks[entry.track_id] = _hashing.TrackInfo(track_id=entry.track_id, name=entry.label or entry.path, duration=buf.duration)
        if progress:
            progress(f"indexed {i + 1}/{len(entries)} tracks ({len(kept)} prints)")
    table.freeze()
    return _hashing.CatalogIndex(
        table=table,
        tracks=tracks,
        lsh_seed=lsh_seed,
        n_bands=cfg.prints.n_bands,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class QueryCut:
    track_id: int
    offset_s: float
    duration_s: float


@dataclass
class EvalCell:
    label: str
    n_queries: int
    step1_ok: int
    step2_ok: int
    partial: bool = False

    @property
    def step1_rate(self) -> float:
        return 100.0 * self.step1_ok / self.n_queries if self.n_queries else 0.0

    @property
    def step2_rate(self) -> float:
        return 100.0 * self.step2_ok / self.n_queries if self.n_queries else 0.0


@dataclass
class EvalReport:
    cells: list
    total_queries: int
    runtime_s: float = 0.0

    def to_tsv(self) -> str:
        """Machine-readable grid; deliberately excludes runtime (determinism)."""
        lines = ["degradation\tqueries\tstep1_rate\tstep2_rate\tpartial"]
        for c in self.cells:
            lines.append(f"{c.label}\t{c.n_queries}\t{c.step1_rate:.2f}\t{c.step2_rate:.2f}\t{int(c.partial)}")
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        w = max(len(c.label) for c in self.cells) + 2
        lines = [f"{'degradation':<{w}}{'n':>6}{'STEP1 %':>10}{'STEP2 %':>10}"]
        for c in self.cells:
            tag = " (partial)" if c.partial else ""
            lines.append(f"{c.label:<{w}}{c.n_queries:>6}{c.step1_rate:>10.1f}{c.step2_rate:>10.1f}{tag}")
        return "\n".join(lines)


def make_queries(entries, cfg: PipelineConfig, count: int, duration_s: float, seed: int = 0) -> list:
    """Uniformly sampled (track, offset) cuts, offsets aligned to the hop grid.

    Hop alignment keeps the ground truth aligned with the reference frame
    grid so that clean self-queries are an exact-recovery check; degradations
    then introduce their own desynchronization.
    """
    rng = np.random.default_rng(seed)
    queries = []
    durations = {e.track_id: load_track(e, cfg).duration for e in entries}
    usable = [e for e in entries if durations[e.track_id] >= duration_s + 0.5]
    if not usable:
        raise ValueError("no track long enough for the requested query duration")
    for _ in range(count):
        entry = usable[rng.integers(len(usable))]
        max_offset = durations[entry.track_id] - duration_s - 0.25
        offset = rng.uniform(0.0, max_offset)
        offset = round(offset / FRAME_PERIOD) * FRAME_PERIOD
        queries.append(QueryCut(track_id=entry.track_id, offset_s=offset, duration_s=duration_s))
    return queries


def cut_excerpt(buf: AudioBuffer, offset_s: float, duration_s: float) -> AudioBuffer:
    start = int(round(offset_s * buf.sample_rate))
    stop = min(len(buf.samples), start + int(round(duration_s * buf.sample_rate)))
    return AudioBuffer(samples=buf.samples[start:stop].copy(), sample_rate=buf.sample_rate)


def evaluate(
    index,
    model,
    entries,
    cfg: PipelineConfig,
    queries,
    conditions,
    seed: int = 0,
    query_offset: int = 0,
    progress=None,
) -> EvalReport:
    """Two-step success rates per degradation condition.

    ``conditions`` is a list of (label, DegradationSpec-or-None, partial).
    Success = top-1 track match, per step; the cut offset is recorded as
    ground truth but only identity is scored. ``query_offset`` shifts the
    per-query seed derivation so that split runs reproduce a single run.
    A query that fails on its own (no usable analysis window) counts as a
    miss.
    """
    t0 = time.monotonic()
    cache: dict = {}

    def track_buf(track_id):
        if track_id not in cache:
            entry = next(e for e in entries if e.track_id == track_id)
            cache[track_id] = load_track(entry, cfg)
        return cache[track_id]

    cells = []
    for c_idx, (label, dspec, partial) in enumerate(conditions):
        s1 = s2 = 0
        for q_idx, q in enumerate(queries):
            excerpt = cut_excerpt(track_buf(q.track_id), q.offset_s, q.duration_s)
            if dspec is not None:
                excerpt = _degrade.apply(dspec.reseeded(_derive_seed(seed, c_idx, query_offset + q_idx)), excerpt)
            try:
                result = _search.query_index(excerpt, index, model, print_cfg=cfg.prints, onset_cfg=cfg.onset)
            except ValueError:
                continue
            if len(result.step1_ranking) and result.step1_ranking[0] == q.track_id:
                s1 += 1
            if result.best is not None and result.best.track_id == q.track_id:
                s2 += 1
            if progress and (q_idx + 1) % 50 == 0:
                progress(f"{label}: {q_idx + 1}/{len(queries)}")
        cells.append(EvalCell(label=label, n_queries=len(queries), step1_ok=s1, step2_ok=s2, partial=partial))
        if progress:
            progress(f"{label}: step1 {cells[-1].step1_rate:.1f}% step2 {cells[-1].step2_rate:.1f}%")
    return EvalReport(cells=cells, total_queries=len(queries) * len(conditions), runtime_s=time.monotonic() - t0)


def merge_reports(reports) -> EvalReport:
    """Combine split evaluation runs (same conditions, disjoint queries)."""
    merged = [EvalCell(label=c.label, n_queries=0, step1_ok=0, step2_ok=0, partial=c.partial) for c in reports[0].cells]
    for rep in reports:
        for cell, add in zip(merged, rep.cells):
            if cell.label != add.label:
                raise ValueError("cannot merge reports with different conditions")
            cell.n_queries += add.n_queries
            cell.step1_ok += add.step1_ok
            cell.step2_ok += add.step2_ok
    return EvalReport(
        cells=merged,
        total_queries=sum(r.total_queries for r in reports),
        runtime_s=max(r.runtime_s for r in reports),
    )
