"""End-to-end orchestration: manifests, training, index building, evaluation.

Ties the stages together for the CLI and the evaluation protocol: reference
tracks are analyzed once into per-band reduced prints; training derives the
reduction model from degraded variants of the catalog; evaluation cuts query
excerpts, degrades them, and scores STEP 1 / STEP 2 top-1 recognition.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np

from printdex import degrade as _degrade
from printdex import hashing as _hashing
from printdex import search as _search
from printdex.audio import FRAME_PERIOD, SAMPLE_RATE, AudioBuffer, load_audio, normalize, resample
from printdex.hashing import _MASK64, _splitmix64
from printdex.prints import analyze
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
# Work per track over the allowed CPUs


def _openblas_functions(name: str) -> list:
    """The C entry point ``openblas_<name>`` of every OpenBLAS this process has loaded.

    numpy and scipy wheels each bundle their own OpenBLAS, whose symbols carry
    a ``scipy_`` prefix and, for 64-bit integers, a ``64_`` suffix. The names
    ending in ``_`` or ``_64_`` are Fortran entry points taking pointers, and
    are never called. Without ``/proc/self/maps`` the list is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and ".so" in f[5]}
    found = {}  # by address: a symbol lookup also searches the library's dependencies
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for symbol in (f"{prefix}openblas_{name}{suffix}" for prefix in ("", "scipy_") for suffix in ("", "64_")):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                found.setdefault(ctypes.cast(func, ctypes.c_void_p).value, func)
    return list(found.values())


_worker_func = None  # the function a fork worker maps; set in the worker only


def _init_worker(func) -> None:
    global _worker_func
    _worker_func = func
    for set_threads in _openblas_functions("set_num_threads"):
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _call_worker(item):
    return _worker_func(item)


def _parallel_map(func, items):
    """Yield ``func(item)`` for each item, in order, over one worker per allowed CPU.

    Each item is independent work, such as one catalog track or one
    evaluation query. Workers are forked, so ``func`` may be a closure over
    the model and only the items and results are pickled. Each
    worker runs one BLAS thread: with OpenBLAS's default of one thread per
    CPU in every worker, two workers on two CPUs ran slower than one
    process. Python's imports make ``spawn`` workers cost seconds per call,
    which forking avoids. With one allowed CPU, a single item, or no
    OpenBLAS entry point to limit, ``func`` runs in this process.
    """
    items = list(items)
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(n_cpus, len(items))
    if n_workers > 1 and _openblas_functions("set_num_threads"):
        with multiprocessing.get_context("fork").Pool(n_workers, _init_worker, (func,)) as pool:
            yield from pool.imap(_call_worker, items)
    else:
        yield from map(func, items)


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

    def track_records(entry):
        """(prints, class ids, is-original flags, pool prints) of one track and its variants."""
        buf = load_track(entry)
        kept, coeffs = analyze(buf)
        if len(kept) == 0:
            return None
        pool_pick = _spread_indices(len(kept), pool_times_per_track)
        class_pick = _spread_indices(len(kept), times_per_track)
        class_frames = kept[class_pick]
        prints = [coeffs[class_pick].astype(np.float32)]
        ranks = [np.arange(len(class_pick))]
        for v_idx, (label, dspec) in enumerate(specs):
            var_seed = _derive_seed(seed, entry.track_id, v_idx)
            dbuf = normalize(_degrade.apply(dspec.reseeded(var_seed), buf))
            scale = dbuf.duration / buf.duration
            frames = np.round(class_frames * scale).astype(np.int64)
            dkept, dcoeffs = analyze(dbuf, frames=frames)
            # frames are sorted, so the anchors surviving the end-of-signal
            # check are exactly a prefix; class ranks align positionally
            prints.append(dcoeffs.astype(np.float32))
            ranks.append(np.arange(len(dkept)))
        is_original = np.zeros(sum(len(r) for r in ranks), dtype=bool)
        is_original[: len(class_pick)] = True
        return (
            np.concatenate(prints),
            np.concatenate(ranks) + 100000 * entry.track_id,
            is_original,
            coeffs[pool_pick].astype(np.float32),
        )

    records = []
    for t_idx, rec in enumerate(_parallel_map(track_records, entries)):
        if rec is not None:
            records.append(rec)
        if progress:
            progress(f"training data: {t_idx + 1}/{len(entries)} tracks")
    return TrainingData(*(np.concatenate([rec[k] for rec in records]) for k in range(4)))


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


def index_postings(kept, reduced, model, lsh_spec, n_reliable: int):
    """Extended codes and posting frames of one track's reduced prints."""
    sigma_e = [chain.sigma_e for chain in model.bands]
    codes = _hashing.derive_codes(reduced, sigma_e, lsh_spec, n_reliable)
    return codes.reshape(-1), np.broadcast_to(kept[:, None], codes.shape).reshape(-1)


def build_index(
    entries,
    model: ReductionModel,
    cfg=None,  # unused; bench/ still passes a PipelineConfig positionally
    *,
    lsh_seed: int = 0,
    progress=None,
) -> _hashing.CatalogIndex:
    index = _hashing.CatalogIndex(table=_hashing.HashTable(), tracks={}, lsh_seed=lsh_seed)

    def track_postings(entry):
        buf = load_track(entry)
        kept, reduced = reduced_prints_for_buffer(buf, model)
        return entry, buf.duration, len(kept), *index_postings(kept, reduced, model, index.spec, _hashing.N_RELIABLE)

    for i, (entry, duration, n_prints, codes, frames) in enumerate(_parallel_map(track_postings, entries)):
        index.table.insert(codes, np.full(len(codes), entry.track_id), frames)
        index.tracks[entry.track_id] = _hashing.TrackInfo(name=entry.label or entry.path, duration=duration)
        if progress:
            progress(f"indexed {i + 1}/{len(entries)} tracks ({n_prints} prints)")
    index.table.freeze()
    return index


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
    how many workers ran it.
    """
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
    for c_idx, q_idx, step1, step2 in _parallel_map(outcome, items):
        cell = cells[c_idx]
        cell.step1_ok += int(step1)
        cell.step2_ok += int(step2)
        if progress and (q_idx + 1) % 50 == 0:
            progress(f"{cell.label}: {q_idx + 1}/{len(queries)}")
        if progress and q_idx + 1 == len(queries):
            progress(f"{cell.label}: step1 {cell.step1_rate:.1f}% step2 {cell.step2_rate:.1f}%")
    return EvalReport(cells=cells, runtime_s=time.monotonic() - t0)
