"""The four workloads: seeded inputs, one timed operation each, scoring.

Every input is a pure function of (workload seed, operation number), so a
replay with tracing on sees exactly the inputs the untraced pass saw. Input
generation, scoring and correctness checks run outside the timed region.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io.wavfile

from prep import ROOT, SIZES, file_sha256, training_plan

from printdex import audio, degrade, hashing, pipeline, prints, reduction, search
from printdex.audio import AudioBuffer

# Degradation cells of query-short-mixed: the desk grid plus harder cells that
# keep accuracy off its ceiling. Queries cycle through them in order.
CELLS = (
    ("clean", None),
    ("white12", "white_noise:snr_db=12"),
    ("white6", "white_noise:snr_db=6"),
    ("white0", "white_noise:snr_db=0"),
    ("pitchp", "pitch_shift:semitones=0.5"),
    ("pitchm", "pitch_shift:semitones=-0.5"),
    ("stretchp", "time_stretch:cents=30"),
    ("stretchm", "time_stretch:cents=-30"),
    ("dist12", "distortion:input_gain_db=12"),
    ("reverb3", "reverb_synthetic:mix_db=3"),
    ("comp8", "dyn_compress:ratio=8,release_ms=10"),
    ("stretch30_white6", "time_stretch:cents=30+white_noise:snr_db=6"),
)
OOC_SHARE = 0.1
SHORT_RATE = 44100
WARMUP_SEED = 2**32 - 1
# clean in-catalog queries below this STEP 2 top-1 rate mean broken output
CLEAN_FLOOR_PCT = 90.0


@dataclass
class Score:
    """Outcome of one query against its ground truth (truth None = out of catalog)."""

    truth: int | None
    cell: str
    kind: str  # correct | no_match | wrong_track | raised
    step1_ok: bool
    step2_ok: bool
    step1_rank: int | None  # 1-based rank of the true track in STEP 1, None if absent
    valid: bool  # every returned track id exists in the index


@dataclass
class Outcome:
    elapsed: float  # timed seconds of the operation
    work_s: float  # timed seconds the audio throughput is measured over
    audio_s: float  # input audio seconds the operation processed
    signature: object  # compared between the untraced and the traced pass
    raised: bool = False
    scores: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def score(result, truth, cell, known_ids) -> Score:
    if result is None:
        return Score(truth, cell, "raised", False, False, None, True)
    ranking = [int(t) for t in result.step1_ranking]
    best = result.best
    valid = all(t in known_ids for t in ranking) and all(r.track_id in known_ids for r in result.results)
    rank = ranking.index(truth) + 1 if truth in ranking else None
    if result.no_match:
        kind = "correct" if truth is None else "no_match"
    else:
        kind = "correct" if truth is not None and best.track_id == truth else "wrong_track"
    step2_ok = truth is not None and best is not None and best.track_id == truth
    return Score(truth, cell, kind, rank == 1, step2_ok, rank, valid)


def signature(result):
    if result is None:
        return "raised"
    ranked = tuple((r.track_id, r.coherence_score, r.alpha, r.delta_t_star, r.n_inliers) for r in result.results)
    return tuple(int(t) for t in result.step1_ranking), ranked, bool(result.no_match)


def write_query(path, buf: AudioBuffer) -> None:
    """16-bit WAV, peak-normalized below full scale so degradations never clip."""
    peak = float(np.max(np.abs(buf.samples)))
    samples = buf.samples * (0.98 / peak) if peak > 0 else buf.samples
    audio.save_wav(path, AudioBuffer(samples=samples, sample_rate=buf.sample_rate))


def read_excerpt(path, start: int, length: int) -> AudioBuffer:
    rate, pcm = scipy.io.wavfile.read(path, mmap=True)
    return AudioBuffer(samples=pcm[start : start + length].astype(np.float64) / 32768.0, sample_rate=int(rate))


def random_excerpt(rng, path, n_samples: int, duration_s: float, sr: int) -> AudioBuffer:
    """Excerpt at a sample-resolution offset: real copies do not start on the frame grid."""
    length = int(round(duration_s * sr))
    start = int(rng.integers(0, n_samples - length + 1))
    return read_excerpt(path, start, length)


class Workload:
    setup_repeats = 3

    def __init__(self, cache: Path, size: str, seed: int):
        self.cache = cache
        self.size = size
        self.p = SIZES[size]
        self.seed = seed
        self.cfg = pipeline.PipelineConfig()
        self.entries = [
            pipeline.ManifestEntry(e.track_id, str(ROOT / e.path), e.label)
            for e in pipeline.read_manifest(cache / "catalog" / "manifest.tsv")
        ]
        self.paths = {e.track_id: e.path for e in self.entries}
        self.track_samples = int(round(self.p["track_s"] * self.cfg.sample_rate))
        self.tmp = cache / f"run-{os.getpid()}"
        self.tmp.mkdir(exist_ok=True)

    def reset(self) -> None:
        """Undo what one set-up left behind, so the next repeat pays it again."""

    def setup_once(self) -> None:
        raise NotImplementedError

    def make_input(self, i: int, seed: int):
        raise NotImplementedError

    def run(self, i: int, inp, tracer) -> Outcome:
        raise NotImplementedError

    def artifact_bytes(self, outcomes) -> int:
        raise NotImplementedError

    def correct(self, outcomes) -> bool:
        """Every answer names an indexed track, and clean in-catalog queries are found."""
        scores = [s for o in outcomes for s in o.scores]
        clean = [s for s in scores if s.cell == "clean" and s.truth is not None]
        rate = 100.0 * sum(s.step2_ok for s in clean) / len(clean) if clean else 100.0
        return all(s.valid for s in scores) and rate >= CLEAN_FLOOR_PCT

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def probe(self, index, model, i: int, noisy: bool = False) -> list:
        """Untimed recognition check of an index just built: clean (and white-noise) 7 s excerpts."""
        known = set(index.tracks)
        ids = sorted(known)
        rng = np.random.default_rng([self.seed, i, 1])
        scores = []
        for k in range(self.p["probes"]):
            truth = ids[int(rng.integers(len(ids)))]
            buf = random_excerpt(rng, self.paths[truth], self.track_samples, self.p["short_s"], self.cfg.sample_rate)
            cell = "clean"
            if noisy and k % 2:
                cell = "white12"
                buf = degrade.apply(degrade.parse_spec("white_noise:snr_db=12", seed=int(rng.integers(2**62))), buf)
            try:
                result = search.query_index(buf, index, model, search.SearchConfig(), self.cfg.prints, self.cfg.onset)
            except ValueError:
                result = None
            scores.append(score(result, truth, cell, known))
        return scores


class QueryWorkload(Workload):
    """load_audio + query_index on one WAV excerpt per operation."""

    def __init__(self, cache, size, seed, long: bool):
        super().__init__(cache, size, seed)
        self.long = long
        self.duration_s = self.p["long_s"] if long else self.p["short_s"]
        self.ooc = sorted((cache / "ooc").glob("*.wav"))
        self.model = self.index = None
        self.search_cfg = search.SearchConfig()
        self.warmup = self.tmp / "warmup.wav"
        write_query(self.warmup, self.make_input(0, WARMUP_SEED)[2])
        self.query_path = self.tmp / "query.wav"

    def reset(self):
        self.model = self.index = None
        mappers = getattr(prints, "_MAPPER_CACHE", None)
        if isinstance(mappers, dict):
            mappers.clear()

    def setup_once(self):
        self.model = reduction.load_model(self.cache / "model.bmrm")
        self.index = hashing.load_index(self.cache / "index.bmix")
        self._query(self.warmup)

    def make_input(self, i, seed):
        """(truth track id or None, cell label, buffer at the delivery rate)."""
        rng = np.random.default_rng([seed, i])
        sr = self.cfg.sample_rate
        if self.long:
            entry = self.entries[int(rng.integers(len(self.entries)))]
            return entry.track_id, "clean", random_excerpt(rng, entry.path, self.track_samples, self.duration_s, sr)
        cell, spec = CELLS[i % len(CELLS)]
        if rng.random() < OOC_SHARE:
            truth, path = None, self.ooc[int(rng.integers(len(self.ooc)))]
        else:
            entry = self.entries[int(rng.integers(len(self.entries)))]
            truth, path = entry.track_id, entry.path
        buf = random_excerpt(rng, path, self.track_samples, self.duration_s, sr)
        if spec is not None:
            buf = degrade.apply(degrade.parse_spec(spec, seed=int(rng.integers(2**62))), buf)
        return truth, cell, audio.resample(buf, SHORT_RATE)

    def _query(self, path):
        buf = audio.load_audio(str(path))
        return search.query_index(buf, self.index, self.model, self.search_cfg, self.cfg.prints, self.cfg.onset)

    def run(self, i, inp, tracer):
        truth, cell, buf = inp
        write_query(self.query_path, buf)
        if tracer:
            tracer.begin_op(i, truth)
        t0 = time.perf_counter()
        try:
            result = self._query(self.query_path)
        except ValueError:
            result = None
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        return Outcome(
            elapsed=elapsed,
            work_s=elapsed,
            audio_s=buf.duration,
            signature=signature(result),
            raised=result is None,
            scores=[score(result, truth, cell, self.index.tracks)],
        )

    def artifact_bytes(self, outcomes) -> int:
        return (self.cache / "model.bmrm").stat().st_size + (self.cache / "index.bmix").stat().st_size


class IndexBuild(Workload):
    """build_index over the catalog, save_index, then one load_index."""

    setup_repeats = 5

    def setup_once(self):
        self.model = reduction.load_model(self.cache / "model.bmrm")

    def reset(self):
        self.model = None

    def make_input(self, i, seed):
        return int(np.random.default_rng([seed, i]).integers(2**32))  # LSH seed

    def run(self, i, lsh_seed, tracer):
        path = self.tmp / "index.bmix"
        if tracer:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        built = pipeline.build_index(self.entries, self.model, self.cfg, lsh_seed=lsh_seed)
        t1 = time.perf_counter()
        hashing.save_index(str(path), built)
        t2 = time.perf_counter()
        loaded = hashing.load_index(str(path))
        t3 = time.perf_counter()
        if tracer:
            tracer.end_op()
        roundtrip = (
            np.array_equal(loaded.table.offsets, built.table.offsets)
            and loaded.table.postings.tobytes() == built.table.postings.tobytes()
            and sorted(loaded.tracks) == sorted(built.tracks)
        )
        digest, size = file_sha256(path), path.stat().st_size
        del built
        path.unlink()
        return Outcome(
            elapsed=t3 - t0,
            work_s=t2 - t0,
            audio_s=sum(t.duration for t in loaded.tracks.values()),
            signature=digest,
            scores=self.probe(loaded, self.model, i),
            info={
                "build_s": t1 - t0,
                "save_s": t2 - t1,
                "load_s": t3 - t2,
                "index_sha256": digest,
                "index_bytes": size,
                "roundtrip_ok": roundtrip,
                "n_postings": loaded.table.n_postings,
                "max_bucket_load": int(loaded.table.bucket_loads().max()),
            },
        )

    def artifact_bytes(self, outcomes) -> int:
        return outcomes[0].info["index_bytes"]

    def correct(self, outcomes) -> bool:
        return super().correct(outcomes) and all(o.info["roundtrip_ok"] for o in outcomes)


class Train(Workload):
    """train_from_manifest on the first catalog tracks with the default plan."""

    setup_repeats = 5

    def setup_once(self):
        # Reading the manifest alone takes microseconds of interpreter-bound
        # work, whose speed on a shared VM swings 2x with the host's load;
        # decoding the tracks it lists makes set-up a steady measurement and
        # warms the file cache the timed training then reads.
        entries = pipeline.read_manifest(self.cache / "catalog" / "manifest.tsv")
        for e in entries[: self.p["train_tracks"]]:
            pipeline.load_track(str(ROOT / e.path), self.cfg)

    def make_input(self, i, seed):
        return int(np.random.default_rng([seed, i]).integers(2**31))  # training seed

    def run(self, i, train_seed, tracer):
        entries = self.entries[: self.p["train_tracks"]]
        if tracer:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        model = pipeline.train_from_manifest(
            entries,
            self.cfg,
            training_plan(self.size),
            times_per_track=self.p["train_times"],
            pool_times_per_track=self.p["model_pool"],
            seed=train_seed,
            lda_dim=self.p["lda_dim"],
            enforce_min_originals=False,
        )
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        path = self.tmp / "model.bmrm"
        reduction.save_model(str(path), model)
        loaded = reduction.load_model(str(path))
        roundtrip = all(
            np.array_equal(a.p_final, b.p_final.astype(np.float32).astype(np.float64))
            for a, b in zip(loaded.bands, model.bands)
        )
        digest, size = file_sha256(path), path.stat().st_size
        path.unlink()
        index = pipeline.build_index(entries, loaded, self.cfg)
        return Outcome(
            elapsed=elapsed,
            work_s=elapsed,
            audio_s=sum(t.duration for t in index.tracks.values()),
            signature=digest,
            scores=self.probe(index, loaded, i, noisy=True),
            info={
                "model_sha256": digest,
                "model_bytes": size,
                "roundtrip_ok": roundtrip,
                "ica_converged_bands": sum(int(c.metadata["ica_converged"]) for c in model.bands),
                "n_bands": model.n_bands,
            },
        )

    def artifact_bytes(self, outcomes) -> int:
        return outcomes[0].info["model_bytes"]

    def correct(self, outcomes) -> bool:
        return super().correct(outcomes) and all(
            o.info["roundtrip_ok"] and o.info["ica_converged_bands"] == o.info["n_bands"] for o in outcomes
        )


WORKLOADS = {
    "query-short-mixed": lambda cache, size, seed: QueryWorkload(cache, size, seed, long=False),
    "query-long-clean": lambda cache, size, seed: QueryWorkload(cache, size, seed, long=True),
    "index-build": IndexBuild,
    "train": Train,
}


def timed_setup(w: Workload) -> list:
    """Set-up times (s) of each repeat; the caller reports their median.

    The repeats run pinned to one CPU, the highest-numbered one the process
    may use. On a 2-vCPU VM the two vCPUs run short interpreter-bound work
    (reading a manifest) at speeds up to 2x apart, and an unpinned process
    lands on either, so an unpinned set-up median is bimodal across runs.
    The timed operations that follow run unpinned.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    times = []
    try:
        for _ in range(w.setup_repeats):
            w.reset()
            t0 = time.perf_counter()
            w.setup_once()
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, allowed)
    return times
