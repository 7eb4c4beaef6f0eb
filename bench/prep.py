"""Untimed preparation shared by all runs of one checkout: catalog, model, index.

The artifacts are built by the code under test and cached under
``.bench_cache/<size>-<key>/`` in the checkout, where ``key`` digests the
program sources, the corpus synthesizer and this file; any edit to those
rebuilds the cache. ``ensure`` runs the build in a child process so
its memory does not count toward the measuring process's peak RSS.

Run directly (``python3 bench/prep.py --size full``) to build the cache ahead
of the first measured run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CACHE = ROOT / ".bench_cache"

# Model training plans. "full" is the production plan; "tiny" keeps one
# variant per degradation family so the self-test stays under a minute.
TINY_PLAN = (
    ("white12", "white_noise:snr_db=12"),
    ("pitchp", "pitch_shift:semitones=0.5"),
    ("stretchp", "time_stretch:cents=30"),
)

SIZES = {
    # The query workloads' catalog and model follow the paper's desk rig
    # (112 x 30 s, a model trained on 24 tracks). The train workload fits on
    # 8 tracks with 12 classes each (96 > lda_dim classes) so that one
    # training run fits the benchmark's time budget.
    "full": dict(
        catalog_tracks=112, track_s=30.0, ooc_tracks=16,
        model_tracks=24, model_times=6, model_pool=40, lda_dim=80, plan=None,
        train_tracks=8, train_times=12,
        short_s=7.0, long_s=20.0, probes=16,
    ),
    "tiny": dict(
        catalog_tracks=8, track_s=8.0, ooc_tracks=3,
        model_tracks=6, model_times=7, model_pool=20, lda_dim=40, plan=TINY_PLAN,
        train_tracks=6, train_times=7,
        short_s=7.0, long_s=7.5, probes=4,
    ),
}

CATALOG_SEED0 = 1000
OOC_SEED0 = 900_000
MODEL_SEED = 0
INDEX_LSH_SEED = 0


def check_layout(root: Path = ROOT) -> str | None:
    """Reason the checkout cannot be benchmarked, or None."""
    for rel in ("src/printdex/__init__.py", "tests/corpus.py"):
        if not (root / rel).is_file():
            return f"missing {rel}: run from a printdex checkout"
    return None


def use_checkout_sources(root: Path = ROOT) -> None:
    """Import printdex and the corpus synthesizer from this checkout."""
    for rel in ("tests", "src"):
        path = str(root / rel)
        if path not in sys.path:
            sys.path.insert(0, path)
    import printdex

    if Path(printdex.__file__).resolve().parent != (root / "src" / "printdex").resolve():
        raise RuntimeError(f"printdex imported from {printdex.__file__}, not from {root / 'src'}")


def source_key(root: Path = ROOT) -> str:
    digest = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + [root / "tests" / "corpus.py", Path(__file__).resolve()]
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def training_plan(size: str):
    from printdex.pipeline import DEFAULT_TRAINING_PLAN

    return SIZES[size]["plan"] or DEFAULT_TRAINING_PLAN


def build(size: str, out: Path) -> None:
    use_checkout_sources()
    from corpus import build_corpus

    from printdex import hashing, pipeline, reduction

    p = SIZES[size]
    cfg = pipeline.PipelineConfig()
    timings = {}
    t0 = time.perf_counter()
    # manifests hold paths relative to the checkout root (the child's cwd),
    # so the cache stays valid if the checkout moves
    rel = Path(os.path.relpath(out, ROOT))
    _, entries = build_corpus(rel / "catalog", p["catalog_tracks"], p["track_s"], seed0=CATALOG_SEED0)
    build_corpus(rel / "ooc", p["ooc_tracks"], p["track_s"], seed0=OOC_SEED0)
    timings["synthesize_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    model = pipeline.train_from_manifest(
        entries[: p["model_tracks"]],
        cfg,
        training_plan(size),
        times_per_track=p["model_times"],
        pool_times_per_track=p["model_pool"],
        seed=MODEL_SEED,
        lda_dim=p["lda_dim"],
        enforce_min_originals=False,
    )
    reduction.save_model(out / "model.bmrm", model)
    timings["train_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    index = pipeline.build_index(entries, model, cfg, lsh_seed=INDEX_LSH_SEED)
    hashing.save_index(out / "index.bmix", index)
    timings["index_s"] = time.perf_counter() - t0
    meta = {
        "size": size,
        "sha256": {"model": file_sha256(out / "model.bmrm"), "index": file_sha256(out / "index.bmix")},
        "prep_timings": timings,
    }
    # written last: its presence marks a complete cache
    (out / "meta.json").write_text(json.dumps(meta, indent=1))


def ensure(size: str) -> Path:
    """Path of a complete artifact cache for ``size``, building it if needed."""
    target = CACHE / f"{size}-{source_key()}"
    if (target / "meta.json").is_file():
        return target
    if CACHE.is_dir():
        for stale in CACHE.glob(f"{size}-*"):
            shutil.rmtree(stale)
    target.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--size", size, "--out", str(target)],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if proc.returncode != 0 or not (target / "meta.json").is_file():
        shutil.rmtree(target, ignore_errors=True)
        raise RuntimeError(f"artifact preparation failed with exit code {proc.returncode}")
    return target


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--out", type=Path, help="build into this directory (default: the cache)")
    args = ap.parse_args(argv)
    reason = check_layout()
    if reason:
        print(reason, file=sys.stderr)
        return 2
    if args.out is None:
        print(ensure(args.size))
    else:
        build(args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
