"""bench/tracing.py wraps printdex functions and HashTable methods by name.

Installing and uninstalling its tracer here makes a renamed traced function
fail the unit tests, not only the benchmark self-test.
"""

import importlib
import importlib.util
from pathlib import Path

from printdex.hashing import HashTable

_SPEC = importlib.util.spec_from_file_location("bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _traced() -> dict:
    """(owner, name) -> the object bound there now, for every traced function and method."""
    bound = {}
    for short, names in tracing.TRACED.items():
        mod = importlib.import_module(f"printdex.{short}")
        bound.update({(mod, name): getattr(mod, name) for name in names})
    bound.update({(HashTable, meth): vars(HashTable)[meth] for meth in tracing.TRACED_TABLE_METHODS})
    return bound


def test_install_wraps_every_traced_name_and_uninstall_restores():
    originals = _traced()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert all(wrapped.__wrapped__ is originals[key] for key, wrapped in _traced().items())
        tracer.begin_op(0)
        table = HashTable()
        table.insert(3, [10, 20], [[5, 6], [7, 8]])
        table.freeze()
        counts, _ = table.lookup_many([5, 9])
        tracer.end_op()
    finally:
        uninstall()
    assert _traced() == originals
    assert counts.tolist() == [1, 0]
    names = {name for name, *_ in tracer.spans}
    assert {"hashing.HashTable.insert", "hashing.HashTable.freeze", "hashing.HashTable.lookup_many"} <= names
    assert dict(tracer.counts[0]) == {"hashing.postings": 1}
