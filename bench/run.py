"""printdex benchmark: one workload, one seed, one run; prints metrics as JSON.

    python3 bench/run.py --workload query-short-mixed --seed 1 --seconds 10 --trace 0

Load comes from one process with one client in a closed loop: each timed
operation starts after the previous one returns. With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs
the same operations untraced and then traced, fails if any result differs
between the two passes, and reports the per-layer metrics. Every output is
scored against its ground truth. The last stdout line is the result object;
the line before it is the full report (environment, artifact digests,
outcome classes, exact counts, layer accounting).

Exits 2 without a result when the directory is not a printdex checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

import prep  # noqa: E402
from tracing import Tracer, install, median_per_op  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "audio_s_per_s": "s/s",
    "step1_top1_pct": "%",
    "step2_top1_pct": "%",
    "correct_pct": "%",
    "artifact_mb": "MB",
    "peak_rss_mb": "MB",
}


def pct(part, whole) -> float:
    return 100.0 * part / whole if whole else 0.0


def tail(values) -> tuple[float, str]:
    """Highest whole percentile with at least ten samples beyond it (the maximum below 11 samples)."""
    n = len(values)
    if n < 11:
        return max(values), "max"
    p = math.floor(100.0 * (n - 10) / n)
    return float(np.percentile(values, p)), f"p{p}"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads or f"library default ({os.cpu_count()} cpus)",
        "platform": platform.platform(),
        "seed": seed,
    }


def measure(w, seed: int, tracer=None, budget_s: float | None = None, n_ops: int | None = None) -> list:
    """Run operations until their timed total reaches budget_s, or exactly n_ops of them."""
    outcomes, total, i = [], 0.0, 0
    while (i < n_ops) if n_ops is not None else (total < budget_s):
        outcomes.append(w.run(i, w.make_input(i, seed), tracer))
        total += outcomes[-1].elapsed
        i += 1
    return outcomes


def classify(outcomes) -> dict:
    scores = [s for o in outcomes for s in o.scores]
    inside = [s for s in scores if s.truth is not None]
    outside = [s for s in scores if s.truth is None]
    ranks = Counter("absent" if s.step1_rank is None else str(s.step1_rank) if s.step1_rank <= 5 else ">5" for s in inside)
    cells = {}
    for s in inside:
        c = cells.setdefault(s.cell, [0, 0, 0])
        c[0] += 1
        c[1] += s.step1_ok
        c[2] += s.step2_ok
    return {
        "queries": len(scores),
        "in_catalog": len(inside),
        "out_of_catalog": len(outside),
        "outcomes": dict(Counter(s.kind for s in scores)),
        "true_step1_rank": dict(ranks),
        "step1_top1_pct": pct(sum(s.step1_ok for s in inside), len(inside)),
        "step2_top1_pct": pct(sum(s.step2_ok for s in inside), len(inside)),
        "correct_pct": pct(sum(s.kind == "correct" for s in scores), len(scores)),
        "false_match_pct": pct(sum(s.kind == "wrong_track" for s in outside), len(outside)),
        "cells": {k: {"n": v[0], "step1_top1_pct": pct(v[1], v[0]), "step2_top1_pct": pct(v[2], v[0])} for k, v in cells.items()},
    }


def end_to_end(w, name, setup_times, outcomes, acc) -> tuple[dict, dict]:
    """(BENCHMARK.json metrics, the same numbers under the names each workload's users know)."""
    ms = [o.elapsed * 1000.0 for o in outcomes]
    tail_ms, tail_name = tail(ms)
    setup_s = statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    artifact_mb = w.artifact_bytes(outcomes) / 1e6
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "audio_s_per_s": sum(o.audio_s for o in outcomes) / sum(o.work_s for o in outcomes),
        "step1_top1_pct": acc["step1_top1_pct"],
        "step2_top1_pct": acc["step2_top1_pct"],
        "correct_pct": acc["correct_pct"],
        "artifact_mb": artifact_mb,
        "peak_rss_mb": rss_mb,
    }
    named = {"setup_s": setup_s, "peak_rss_mb": rss_mb, "samples": len(ms), "error_pct": pct(sum(o.raised for o in outcomes), len(outcomes))}
    if name.startswith("query-"):
        named.update(
            {
                "query_p50_ms": metrics["op_p50_ms"],
                f"query_{tail_name}_ms": tail_ms,
                "queries_per_s": len(ms) / (sum(ms) / 1000.0),
                "excerpt_s": w.duration_s,
                "step1_top1_pct": acc["step1_top1_pct"],
                "step2_top1_pct": acc["step2_top1_pct"],
                "false_match_pct": acc["false_match_pct"],
            }
        )
    elif name == "index-build":
        named.update({"index_audio_s_per_s": metrics["audio_s_per_s"], "index_file_mb": artifact_mb})
        for key in ("build_s", "save_s", "load_s"):
            named[key] = statistics.median(o.info[key] for o in outcomes)
    else:
        named.update({"train_s": metrics["op_p50_ms"] / 1000.0, "model_file_mb": artifact_mb})
    return metrics, named


# per-layer time metrics: (metric, span names summed, scale to the unit)
LAYER_TIMES = (
    ("audio.load_audio_ms", ["audio.load_audio"], 1e3),
    ("audio.resample_ms", ["audio.resample"], 1e3),
    ("audio.stft_ms", ["audio.stft"], 1e3),
    ("onsets.select_analysis_times_ms", ["onsets.select_analysis_times"], 1e3),
    ("prints.print_matrix_ms", ["prints.print_matrix"], 1e3),
    ("reduction.apply_reduction_ms", ["reduction.apply_reduction"], 1e3),
    ("reduction.fit_iccr_s", ["reduction.fit_iccr"], 1.0),
    ("reduction.fit_lda_s", ["reduction.fit_lda"], 1.0),
    ("reduction.fit_ica_s", ["reduction.fit_ica"], 1.0),
    ("reduction.fit_ompca_s", ["reduction.fit_ompca"], 1.0),
    (
        "hashing.code_derivation_ms",
        ["hashing.binarize_bits", "hashing.codes_from_bits", "hashing.extended_code", "hashing.reliability_batch"],
        1e3,
    ),
    ("hashing.lookup_many_ms", ["hashing.HashTable.lookup_many"], 1e3),
    ("hashing.insert_s", ["hashing.HashTable.insert"], 1.0),
    ("hashing.freeze_s", ["hashing.HashTable.freeze"], 1.0),
    ("hashing.save_index_s", ["hashing.save_index"], 1.0),
    ("search.count_matches_ms", ["search.count_matches"], 1e3),
    ("search.step2_ms", ["search.cone_weights", "search.time_coherence", "search.refine_alignment"], 1e3),
    ("search.cone_weights_ms", ["search.cone_weights"], 1e3),
    ("degrade.apply_s.time_stretch", ["degrade.apply.time_stretch"], 1.0),
    ("degrade.apply_s.pitch_shift", ["degrade.apply.pitch_shift"], 1.0),
    ("degrade.apply_s.other", ["degrade.apply.other"], 1.0),
    ("pipeline.collect_training_data_s", ["pipeline.collect_training_data"], 1.0),
    ("pipeline.load_track_ms", ["pipeline.load_track"], 1e3),
    ("bench.unattributed_ms", ["bench.op"], 1e3),
)
# per-layer counts: (metric, counter name) as the median per operation
LAYER_COUNTS = (
    ("prints.prints_per_query", "prints.prints"),
    ("reduction.ica_converged_bands", "reduction.ica_converged_bands"),
    ("hashing.postings_per_query", "hashing.postings"),
    ("search.candidates_per_query", "search.candidates"),
    ("search.cone_pairs_per_query", "search.cone_pairs"),
)


def per_layer(w, tracer, untraced, traced, acc, cells) -> tuple[dict, dict]:
    """(per-layer metrics, accounting of the traced operation time)."""
    self_times = tracer.self_times()
    counts = tracer.counts
    ops = list(range(len(traced)))
    metrics = {m: median_per_op(self_times, names, ops, scale) for m, names, scale in LAYER_TIMES}
    for m, counter in LAYER_COUNTS:
        metrics[m] = median_per_op(counts, [counter], ops)

    def total(key):
        return sum(counts[op].get(key, 0.0) for op in ops)

    metrics["onsets.anchors_per_audio_s"] = total("onsets.anchors") / total("onsets.audio_s") if total("onsets.audio_s") else 0.0
    metrics["search.true_in_candidates_pct"] = pct(total("search.true_in_candidates"), total("search.truth_checked"))
    load_spans = [s[2] - s[1] for s in tracer.spans if s[0] == "hashing.load_index"]
    metrics["hashing.load_index_s"] = statistics.median(load_spans) if load_spans else 0.0
    index = getattr(w, "index", None)
    info = traced[0].info
    if index is not None:
        metrics["hashing.n_postings"] = float(index.table.n_postings)
        metrics["hashing.max_bucket_load"] = float(index.table.bucket_loads().max())
    else:
        metrics["hashing.n_postings"] = float(info.get("n_postings", 0))
        metrics["hashing.max_bucket_load"] = float(info.get("max_bucket_load", 0))
    for cell in cells:
        metrics[f"search.step2_top1_pct.{cell}"] = acc["cells"].get(cell, {}).get("step2_top1_pct", 0.0)
    metrics["search.false_match_pct"] = acc["false_match_pct"]
    metrics["search.error_pct"] = pct(sum(o.raised for o in traced), len(traced))
    plain = sum(o.elapsed for o in untraced)
    metrics["bench.trace_overhead_pct"] = pct(sum(o.elapsed for o in traced) - plain, plain)

    names = sorted({n for op in ops for n in self_times.get(op, {})})
    mean_ms = {n: 1e3 * sum(self_times[op].get(n, 0.0) for op in ops) / len(ops) for n in names}
    op_ms = 1e3 * sum(tracer.op_times()[op] for op in ops) / len(ops)
    accounting = {
        "traced_op_mean_ms": op_ms,
        "layer_self_mean_ms": {n: v for n, v in sorted(mean_ms.items(), key=lambda kv: -kv[1]) if n != "bench.op"},
        "unattributed_mean_ms": mean_ms.get("bench.op", 0.0),
        "sum_mean_ms": sum(mean_ms.values()),
        "counts_total": {k: total(k) for k in sorted({k for op in ops for k in counts[op]})},
    }
    return metrics, accounting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="printdex benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0, help="timed operation seconds to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, help="run exactly this many operations instead of --seconds")
    ap.add_argument("--size", choices=sorted(prep.SIZES), default="full", help="tiny is for the self-test")
    args = ap.parse_args(argv)
    reason = prep.check_layout()
    if reason:
        print(reason, file=sys.stderr)
        return 2
    prep.use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cache = prep.ensure(args.size)
    meta = json.loads((cache / "meta.json").read_text())
    w = workloads.WORKLOADS[args.workload](cache, args.size, args.seed)
    t_start = time.perf_counter()
    try:
        setup_times = workloads.timed_setup(w)
        if args.trace == 0:
            outcomes = measure(w, args.seed, budget_s=args.seconds, n_ops=args.ops)
            acc = classify(outcomes)
            metrics, named = end_to_end(w, args.workload, setup_times, outcomes, acc)
            extra = {"metrics_by_workload_name": named}
            mismatches = 0
        else:
            untraced = measure(w, args.seed, budget_s=args.seconds / 2, n_ops=args.ops)
            tracer = Tracer()
            uninstall = install(tracer)
            try:
                tracer.begin_op("setup")
                w.reset()
                w.setup_once()
                tracer.end_op()
                outcomes = measure(w, args.seed, tracer, n_ops=len(untraced))
            finally:
                uninstall()
            mismatches = sum(a.signature != b.signature for a, b in zip(untraced, outcomes))
            acc = classify(outcomes)
            metrics, accounting = per_layer(w, tracer, untraced, outcomes, acc, [c for c, _ in workloads.CELLS])
            extra = {"accounting": accounting, "signature_mismatches": mismatches}
        correct = mismatches == 0 and w.correct(outcomes)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "size": args.size,
            "environment": environment(args.seed),
            "wall_s": time.perf_counter() - t_start,
            "setup_repeats_s": setup_times,
            "artifacts": {
                "prep_sha256": meta["sha256"],
                "built_sha256": [o.info.get("index_sha256") or o.info.get("model_sha256") for o in outcomes if o.info],
            },
            "accuracy": acc,
            "op_info": [o.info for o in outcomes if o.info],
            **extra,
        }
    finally:
        w.close()
    units = E2E_UNITS if args.trace == 0 else {m: unit_of(m) for m in metrics}
    print(json.dumps(report))
    result = {
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": sum(o.raised for o in outcomes),
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_audio_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s") or ".apply_s." in metric:
        return "s"
    if "_pct" in metric:
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
