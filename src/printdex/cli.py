"""Command-line surface: train, index, query, degrade, evaluate, inspect.

All numeric defaults are the production values; every command exits nonzero
with a one-line diagnostic on error. Machine-readable outputs (model, index,
evaluation TSV) are byte-deterministic for fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import sys


from printdex import degrade as _degrade
from printdex import hashing as _hashing
from printdex import pipeline as _pipeline
from printdex import search as _search
from printdex.audio import HOP_SAMPLES, SAMPLE_RATE, load_audio, normalize, save_wav
from printdex.prints import N_BANDS, WINDOW_S
from printdex.reduction import load_model, save_model


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_train(args) -> int:
    entries = _pipeline.read_manifest(args.manifest)
    plan = _pipeline.DEFAULT_TRAINING_PLAN
    if args.variant:
        plan = tuple((f"v{i}", text) for i, text in enumerate(args.variant))
    model = _pipeline.train_from_manifest(
        entries,
        plan=plan,
        times_per_track=args.times_per_track,
        pool_times_per_track=args.pool_times_per_track,
        seed=args.seed,
        lda_dim=args.lda_dim,
        enforce_min_originals=not args.allow_small,
        progress=_progress if args.verbose else None,
    )
    save_model(args.out, model)
    print(f"model written to {args.out}")
    for b, chain in enumerate(model.bands):
        meta = chain.metadata
        print(
            f"band {b}: j0={chain.j0} classes={meta['n_classes']} records={meta['n_records']} "
            f"lda_eig_max={float(meta['lda_eig_max']):.4f} ica_converged={meta['ica_converged']} "
            f"rayleigh {float(meta['rayleigh_first']):.3f}->{float(meta['rayleigh_last']):.3f}"
        )
    return 0


def cmd_index(args) -> int:
    entries = _pipeline.read_manifest(args.manifest)
    model = load_model(args.model)
    index = _pipeline.build_index(
        entries,
        model,
        lsh_seed=args.lsh_seed,
        progress=_progress if args.verbose else None,
    )
    _hashing.save_index(args.out, index)
    loads = index.table.bucket_loads()
    n_prints = index.table.n_postings // (N_BANDS * _hashing.N_RELIABLE)
    print(f"index written to {args.out}")
    print(f"tracks={len(index.tracks)} prints={n_prints} postings={index.table.n_postings}")
    print(f"bucket load: max={int(loads.max(initial=0))} nonempty={len(loads)}")
    return 0


def _format_result(rank: int, r: _search.SearchResult, index) -> str:
    name = index.tracks[r.track_id].name if r.track_id in index.tracks else "?"
    return (
        f"{rank:>4}  track={r.track_id} ({name})  step1={r.step1_count}  "
        f"coherence={r.coherence_score:.1f}  alpha={r.alpha:.3f}  offset={r.delta_t_star:.2f}s"
    )


def cmd_query(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    index = _hashing.load_index(args.index)
    model = load_model(args.model)
    buf = load_audio(args.audio)
    result = _search.query_index(buf, index, model)
    if args.json:
        payload = {
            "no_match": bool(result.no_match),
            "n_prints": result.n_prints,
            "results": [
                {
                    "rank": i + 1,
                    "track_id": r.track_id,
                    "name": index.tracks[r.track_id].name if r.track_id in index.tracks else None,
                    "step1_count": r.step1_count,
                    "coherence": r.coherence_score,
                    "alpha": r.alpha,
                    "offset_s": r.delta_t_star,
                    "low_confidence": r.low_confidence,
                }
                for i, r in enumerate(result.results[: args.top])
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    if result.no_match or not result.results:
        print("no match")
        return 0
    for i, r in enumerate(result.results[: args.top]):
        print(_format_result(i + 1, r, index))
    return 0


def cmd_degrade(args) -> int:
    buf = load_audio(args.audio)
    if args.scenario:
        spec = _degrade.scenario(args.scenario, args.level, codec_command=args.codec_cmd, seed=args.seed)
    elif args.spec:
        spec = _degrade.parse_spec(args.spec, seed=args.seed)
    else:
        raise ValueError("either --spec or --scenario is required")
    out = _degrade.apply(spec, buf)
    save_wav(args.out, normalize(out))
    print(f"degraded audio written to {args.out} ({out.duration:.2f}s)")
    return 0


def _default_grid() -> list:
    grid = []
    for snr in (12.0, 6.0, 0.0):
        grid.append((f"white_noise_snr{snr:g}", f"white_noise:snr_db={snr}"))
    for semis in (0.5, -0.5):
        grid.append((f"pitch_shift_{semis:+g}st", f"pitch_shift:semitones={semis}"))
    for cents in (30.0, -30.0):
        grid.append((f"time_stretch_{cents:+g}c", f"time_stretch:cents={cents}"))
    return grid


def cmd_evaluate(args) -> int:
    # the duration bound: a shorter excerpt has no print window, so every query would miss
    for option, value, least in (("--queries", args.queries, 1), ("--duration", args.duration, WINDOW_S)):
        if value < least:
            raise ValueError(f"{option} must be at least {least:g}, got {value:g}")
    entries = _pipeline.read_manifest(args.manifest)
    conditions = [("clean", None, False)]
    grid = [tuple(g.split("=", 1)) for g in args.degrade] if args.degrade else _default_grid()
    for label, text in grid:
        conditions.append((label, _degrade.parse_spec(text), False))
    queries = _pipeline.make_queries(entries, args.queries, args.duration, seed=args.query_seed)
    index = _hashing.load_index(args.index)
    model = load_model(args.model)
    report = _pipeline.evaluate(
        index, model, entries, queries, conditions, seed=args.seed, progress=_progress if args.verbose else None
    )
    print(report.table())
    print(f"total queries: {report.total_queries}  runtime: {report.runtime_s:.1f}s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
        print(f"report written to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    if args.model:
        model = load_model(args.model)
        print(f"model: bands={model.n_bands} in_dim={model.in_dim} out_dim={model.out_dim}")
        for b, chain in enumerate(model.bands):
            meta = " ".join(f"{k}={v}" for k, v in sorted(chain.metadata.items()))
            print(f"band {b}: j0={chain.j0} {meta}")
    if args.index:
        index = _hashing.load_index(args.index)
        loads = index.table.bucket_loads()
        print(
            f"index: tracks={len(index.tracks)} postings={index.table.n_postings} "
            f"L={_hashing.N_LSH} L'={_hashing.N_RELIABLE} b={_hashing.LSH_BITS} seed={index.lsh_seed} "
            f"segment_frames={_hashing.SEGMENT_FRAMES} sample_rate={SAMPLE_RATE} hop={HOP_SAMPLES}"
        )
        if index.table.n_postings:
            print(f"bucket load: max={int(loads.max())} mean_nonempty={loads.mean():.2f}")
        for tid in sorted(index.tracks):
            info = index.tracks[tid]
            print(f"  track {tid}: {info.name} ({info.duration:.1f}s)")
    if not args.model and not args.index:
        raise ValueError("nothing to inspect: pass --model and/or --index")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="printdex", description="Degradation-robust music print indexing and recognition")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--verbose", action="store_true", help="progress lines on stderr")

    p = sub.add_parser("train", help="learn the reduction model from a manifest")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--times-per-track", type=int, default=6)
    p.add_argument("--pool-times-per-track", type=int, default=40)
    p.add_argument("--lda-dim", type=int, default=80)
    p.add_argument("--variant", action="append", help="degradation spec string; repeat to override the default plan")
    p.add_argument("--allow-small", action="store_true", help="waive the minimum original-print count (demo scale)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="build the catalog hash index")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lsh-seed", type=int, default=0)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="recognize an audio excerpt")
    p.add_argument("audio")
    p.add_argument("--index", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("degrade", help="apply a deterministic degradation")
    p.add_argument("audio")
    p.add_argument("--spec", help="e.g. 'white_noise:snr_db=6' or chains with '+'")
    p.add_argument("--scenario", choices=["gsm_like", "slowdown", "noise"])
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--codec-cmd", help="external codec command ({rate} substituted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("evaluate", help="two-step recognition rates over a degradation grid")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--duration", type=float, default=7.0)
    p.add_argument("--query-seed", type=int, default=1)
    p.add_argument("--seed", type=int, default=2, help="degradation seed")
    p.add_argument("--degrade", action="append", help="label=spec; repeat for a custom grid")
    p.add_argument("--out", help="write the machine-readable TSV report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="print model/index headers")
    p.add_argument("--model")
    p.add_argument("--index")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
