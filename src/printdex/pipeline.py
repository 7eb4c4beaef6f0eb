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

from printdex import hashing as _hashing
from printdex import search as _search
from printdex.audio import FRAME_PERIOD, SAMPLE_RATE, AudioBuffer, load_audio, normalize, resample
from printdex.hashing import _MASK64, _splitmix64
from printdex.parallel import parallel_map
from printdex.prints import analyze
from printdex.reduction import ReductionModel, TrainingError, model_sha256, reduce_prints, train_reduction


# A track id is stored in the index's u32 print-table field.
TRACK_ID_MAX = np.iinfo(_hashing._PRINT_DTYPE["track"]).max


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


class PipelineConfig:
    """Empty: the rate and the STFT, onset and print geometry are module constants.

    ``bench/`` still builds one, reads these attributes and passes it to the
    unused ``cfg`` slot of ``load_track``, ``train_from_manifest`` and
    ``build_index``.
    """

    sample_rate = SAMPLE_RATE
    prints = onset = None


# cfg is unused; bench/workloads.py still passes a PipelineConfig positionally
def load_track(entry_or_path, cfg=None) -> AudioBuffer:
    path = entry_or_path.path if isinstance(entry_or_path, ManifestEntry) else entry_or_path
    return normalize(resample(load_audio(path), SAMPLE_RATE))


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
    """Class records plus the larger original-print pools, all bands at once.

    The prints keep the float32 that ``prints.analyze`` returns; no cast copies them.
    """

    prints: np.ndarray  # (n, bands, 1056) float32
    class_ids: np.ndarray  # (n,)
    is_original: np.ndarray  # (n,) bool
    pools: np.ndarray  # (m, bands, 1056) float32


def collect_training_data(
    entries,
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
    samples than the class structure provides. ``times_per_track`` must be
    at least 1 and ``pool_times_per_track`` at least 0; both are checked
    before any track is decoded. A catalog where no track gives a print
    fails with a one-line ``ValueError``.
    """
    if times_per_track < 1:
        raise ValueError(f"times_per_track must be at least 1, got {times_per_track}")
    if pool_times_per_track < 0:
        raise ValueError(f"pool_times_per_track must be at least 0, got {pool_times_per_track}")
    # degrade loads scipy.signal, which indexing and queries never need; the
    # import comes before the workers fork, so each finds it loaded
    from printdex import degrade as _degrade

    specs = [(label, _degrade.parse_spec(text)) for label, text in plan]

    def track_records(entry):
        """(prints, class ids, is-original flags, pool prints) of one track and its variants."""
        buf = load_track(entry)
        kept, coeffs = analyze(buf)
        if len(kept) == 0:
            return None
        pool_pick = _spread_indices(len(kept), pool_times_per_track)
        class_pick = _spread_indices(len(kept), times_per_track)
        class_frames = kept[class_pick]
        prints = [coeffs[class_pick]]
        ranks = [np.arange(len(class_pick))]
        for v_idx, (label, dspec) in enumerate(specs):
            var_seed = _derive_seed(seed, entry.track_id, v_idx)
            dbuf = normalize(_degrade.apply(dspec.reseeded(var_seed), buf))
            scale = dbuf.duration / buf.duration
            frames = np.round(class_frames * scale).astype(np.int64)
            dkept, dcoeffs = analyze(dbuf, frames=frames)
            # frames are sorted, so the anchors surviving the end-of-signal
            # check are exactly a prefix; class ranks align positionally
            prints.append(dcoeffs)
            ranks.append(np.arange(len(dkept)))
        is_original = np.zeros(sum(len(r) for r in ranks), dtype=bool)
        is_original[: len(class_pick)] = True
        return (
            np.concatenate(prints),
            np.concatenate(ranks) + entry.track_id * times_per_track,
            is_original,
            coeffs[pool_pick],
        )

    # one buffer per field, sized for every track's largest share and filled
    # as the tracks arrive, so this process holds the prints only once
    max_rows = (len(entries) * (len(specs) + 1) * times_per_track,) * 3 + (len(entries) * pool_times_per_track,)
    out, filled = None, [0, 0, 0, 0]
    for t_idx, rec in enumerate(parallel_map(track_records, entries)):
        if rec is not None:
            if out is None:
                out = [np.empty((n,) + a.shape[1:], dtype=a.dtype) for n, a in zip(max_rows, rec)]
            for k, a in enumerate(rec):
                out[k][filled[k] : filled[k] + len(a)] = a
                filled[k] += len(a)
        if progress:
            progress(f"training data: {t_idx + 1}/{len(entries)} tracks")
    if out is None:
        raise ValueError("no catalog track gives a training print")
    return TrainingData(*(a[:n] for a, n in zip(out, filled)))


def train_from_manifest(
    entries,
    cfg=None,  # unused; bench/ still passes a PipelineConfig positionally
    plan=DEFAULT_TRAINING_PLAN,
    *,
    times_per_track: int = 6,
    pool_times_per_track: int = 40,
    seed: int = 0,
    lda_dim: int = 80,
    enforce_min_originals: bool = True,
    progress=None,
) -> ReductionModel:
    """Collect the training prints of ``entries`` and fit the reduction model.

    ``lda_dim`` must be at least 1, checked before any track is decoded.
    """
    if lda_dim < 1:
        raise TrainingError(f"LDA needs K >= 1, got K={lda_dim}")
    data = collect_training_data(
        entries,
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


def reduced_prints_for_buffer(buf: AudioBuffer, model: ReductionModel):
    """(kept_frames, reduced (n, bands, 40)) for one buffer."""
    kept, coeffs = analyze(buf)
    return kept, reduce_prints(coeffs, model)


def index_postings(reduced, model, lsh_spec):
    """Print-major extended codes (n, bands * N_RELIABLE) of one track's reduced prints."""
    sigma_e = [chain.sigma_e for chain in model.bands]
    return np.hstack(_hashing.derive_codes(reduced, sigma_e, lsh_spec, _hashing.N_RELIABLE))


def build_index(
    entries,
    model: ReductionModel,
    cfg=None,  # unused; bench/ still passes a PipelineConfig positionally
    *,
    lsh_seed: int = 0,
    progress=None,
) -> _hashing.CatalogIndex:
    """Index ``entries`` in track id order, the order the table's print ids follow."""
    index = _hashing.CatalogIndex(table=_hashing.HashTable(), tracks={}, lsh_seed=lsh_seed, model_sha256=model_sha256(model))
    entries = sorted(entries, key=lambda e: e.track_id)

    def track_prints(entry):
        buf = load_track(entry)
        kept, reduced = reduced_prints_for_buffer(buf, model)
        return entry, buf.duration, kept, index_postings(reduced, model, index.spec)

    for i, (entry, duration, kept, codes) in enumerate(parallel_map(track_prints, entries)):
        index.table.insert(entry.track_id, kept, codes)
        index.tracks[entry.track_id] = _hashing.TrackInfo(name=entry.label or entry.path, duration=duration)
        if progress:
            progress(f"indexed {i + 1}/{len(entries)} tracks ({len(kept)} prints)")
    index.table.freeze()
    return index


def check_model(index: _hashing.CatalogIndex, model: ReductionModel) -> None:
    """Raise ValueError unless ``model`` is the model ``index`` was built with."""
    digest = model_sha256(model)
    if digest != index.model_sha256:
        raise ValueError(
            f"model {digest[:12]} is not the model {index.model_sha256[:12]} the index was built with; "
            "use that model or rebuild the index"
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
    runtime_s: float = 0.0

    @property
    def total_queries(self) -> int:
        return sum(c.n_queries for c in self.cells)

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


def make_queries(entries, count: int, duration_s: float, seed: int = 0) -> list:
    """Uniformly sampled (track, offset) cuts, offsets aligned to the hop grid.

    Hop alignment keeps the ground truth aligned with the reference frame
    grid so that clean self-queries are an exact-recovery check; degradations
    then introduce their own desynchronization.
    """
    rng = np.random.default_rng(seed)
    queries = []
    durations = {e.track_id: load_track(e).duration for e in entries}
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
    queries,
    conditions,
    seed: int = 0,
    progress=None,
) -> EvalReport:
    """Two-step success rates per degradation condition.

    ``conditions`` is a list of (label, DegradationSpec-or-None, partial).
    Success = top-1 track match, per step; the cut offset is recorded as
    ground truth but only identity is scored. A query that fails on its own
    (no usable analysis window) counts as a miss. Each (condition, query)
    pair derives its own degradation seed, so the report does not depend on
    how many workers ran it. A model other than the index's is rejected.
    """
    check_model(index, model)
    from printdex import degrade as _degrade  # as in collect_training_data

    t0 = time.monotonic()
    cache: dict = {}

    def track_buf(track_id):
        if track_id not in cache:
            entry = next(e for e in entries if e.track_id == track_id)
            cache[track_id] = load_track(entry)
        return cache[track_id]

    def outcome(item):
        """(condition, query, STEP 1 hit, STEP 2 hit) of one query under one condition."""
        c_idx, q_idx = item
        q, dspec = queries[q_idx], conditions[c_idx][1]
        excerpt = cut_excerpt(track_buf(q.track_id), q.offset_s, q.duration_s)
        if dspec is not None:
            excerpt = _degrade.apply(dspec.reseeded(_derive_seed(seed, c_idx, q_idx)), excerpt)
        try:
            result = _search.query_index(excerpt, index, model)
        except ValueError:
            return c_idx, q_idx, False, False
        step1 = len(result.step1_ranking) > 0 and result.step1_ranking[0] == q.track_id
        return c_idx, q_idx, step1, result.best is not None and result.best.track_id == q.track_id

    cells = [
        EvalCell(label=label, n_queries=len(queries), step1_ok=0, step2_ok=0, partial=partial) for label, _, partial in conditions
    ]
    items = [(c_idx, q_idx) for c_idx in range(len(conditions)) for q_idx in range(len(queries))]
    for c_idx, q_idx, step1, step2 in parallel_map(outcome, items):
        cell = cells[c_idx]
        cell.step1_ok += int(step1)
        cell.step2_ok += int(step2)
        if progress and (q_idx + 1) % 50 == 0:
            progress(f"{cell.label}: {q_idx + 1}/{len(queries)}")
        if progress and q_idx + 1 == len(queries):
            progress(f"{cell.label}: step1 {cell.step1_rate:.1f}% step2 {cell.step2_rate:.1f}%")
    return EvalReport(cells=cells, runtime_s=time.monotonic() - t0)
