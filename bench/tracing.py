"""Spans around printdex's layer functions, recorded from the benchmark only.

``install`` replaces each traced function at every printdex module name that
binds it (and the traced ``HashTable`` methods on the class), so callers that
resolve ``stft`` through ``printdex.audio`` or through ``printdex.pipeline``
both reach the wrapper. The program keeps its own call order; nothing here
re-composes the pipeline. A span is recorded only while an operation is
open, so untimed preparation work passes straight through.

Each span is (name, start, end, parent, op id). Spans stay in memory and are
reduced when the run ends: a span's self time is its duration minus the
durations of its children (calls nest on one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

# Public entry points whose self time is a layer metric. A function not
# listed here (for example a helper inside select_analysis_times) counts
# toward the self time of the listed function that calls it.
TRACED = {
    "audio": ("load_audio", "resample", "normalize", "stft"),
    "onsets": ("select_analysis_times",),
    "prints": ("print_matrix",),
    "reduction": ("load_model", "apply_reduction", "fit_iccr", "fit_lda", "fit_ica", "fit_ompca", "train_reduction"),
    "hashing": ("binarize_bits", "codes_from_bits", "extended_code", "reliability_batch", "save_index", "load_index"),
    "search": (
        "query_index",
        "query_codes",
        "count_matches",
        "select_candidates",
        "cone_weights",
        "time_coherence",
        "refine_alignment",
    ),
    "degrade": ("apply",),
    "pipeline": (
        "load_track",
        "analyze",
        "collect_training_data",
        "train_from_manifest",
        "reduced_prints_for_buffer",
        "index_postings",
        "build_index",
    ),
}
TRACED_TABLE_METHODS = ("insert", "freeze", "lookup_many")
ROOT = "bench.op"


def _degrade_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return "degrade.apply." + (spec.kind if spec.kind in ("time_stretch", "pitch_shift") else "other")


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # op id -> name -> value
        self.op_id = None
        self.truth = None
        self._stack: list = []

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id, truth=None) -> None:
        self.op_id = op_id
        self.truth = truth
        self._stack = [len(self.spans)]
        self.spans.append([ROOT, time.perf_counter(), None, None, op_id])

    def end_op(self) -> None:
        self.spans[self._stack[0]][2] = time.perf_counter()
        self.op_id = None
        self._stack = []

    def count(self, name: str, value: float) -> None:
        self.counts[self.op_id][name] += value

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, func, on_result=None, name_of=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return func(*args, **kwargs)
            span = [name_of(args, kwargs) if name_of else name, 0.0, None, tracer._stack[-1], tracer.op_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    # -- reduction --------------------------------------------------------

    def self_times(self) -> dict:
        """op id -> span name -> summed self time (s)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            out[op_id][name] += (end - start) - child[i]
        return out

    def op_times(self) -> dict:
        return {op: end - start for name, start, end, _, op in self.spans if name == ROOT}


def _count_anchors(tracer, args, kwargs, result):
    spec = args[0]
    tracer.count("onsets.anchors", len(result.frames))
    tracer.count("onsets.audio_s", spec.n_frames * spec.hop_samples / spec.sample_rate)


def _count_prints(tracer, args, kwargs, result):
    tracer.count("prints.prints", len(result[0]))


def _count_postings(tracer, args, kwargs, result):
    tracer.count("hashing.postings", len(result[1]))


def _count_candidates(tracer, args, kwargs, result):
    tracer.count("search.candidates", len(result))
    if tracer.truth is not None:
        tracer.count("search.truth_checked", 1)
        tracer.count("search.true_in_candidates", int(tracer.truth in set(int(t) for t in result)))


def _count_cone_pairs(tracer, args, kwargs, result):
    tracer.count("search.cone_pairs", len(result) ** 2)


def _count_ica(tracer, args, kwargs, result):
    tracer.count("reduction.ica_converged_bands", int(result[2]))


ON_RESULT = {
    "onsets.select_analysis_times": _count_anchors,
    "prints.print_matrix": _count_prints,
    "hashing.HashTable.lookup_many": _count_postings,
    "search.select_candidates": _count_candidates,
    "search.cone_weights": _count_cone_pairs,
    "reduction.fit_ica": _count_ica,
}


def install(tracer: Tracer):
    """Wrap every traced function at all its printdex bindings; returns an undo callable."""
    wrappers = {}
    for short, names in TRACED.items():
        mod = importlib.import_module(f"printdex.{short}")
        for fname in names:
            func = getattr(mod, fname)
            qual = f"{short}.{fname}"
            name_of = _degrade_name if qual == "degrade.apply" else None
            # keyed by id; each wrapper holds its original, so the ids stay unique
            wrappers[id(func)] = tracer.wrap(qual, func, ON_RESULT.get(qual), name_of)
    undo = []
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("printdex.")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value)) if callable(value) else None
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, value))
    table_cls = importlib.import_module("printdex.hashing").HashTable
    for meth in TRACED_TABLE_METHODS:
        func = vars(table_cls)[meth]
        qual = f"hashing.HashTable.{meth}"
        setattr(table_cls, meth, tracer.wrap(qual, func, ON_RESULT.get(qual)))
        undo.append((table_cls, meth, func))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def median_per_op(per_op: dict, names, ops, scale: float = 1.0) -> float:
    """Median over ops of the summed values of ``names`` (0.0 for ops lacking them)."""
    values = [sum(per_op.get(op, {}).get(n, 0.0) for n in names) * scale for op in ops]
    return statistics.median(values) if values else 0.0
