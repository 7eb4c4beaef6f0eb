"""Independent work items over the allowed CPUs, each at one OpenBLAS thread.

``parallel_map`` runs the per-track work of training, indexing and
evaluation, and the per-band reduction fits. Every item is computed at one
OpenBLAS thread, in a forked worker or in this process, so a result does
not depend on how many CPUs the machine has: a multi-threaded BLAS may sum
a product in another order.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os

_SIGNATURES = {"set_num_threads": ([ctypes.c_int], None), "get_num_threads": ([], ctypes.c_int)}


def _openblas_functions(name: str) -> list:
    """The C entry point ``openblas_<name>`` of every OpenBLAS this process has loaded.

    numpy and scipy wheels each bundle their own OpenBLAS, whose symbols carry
    a ``scipy_`` prefix and, for 64-bit integers, a ``64_`` suffix. The names
    ending in ``_`` or ``_64_`` are Fortran entry points taking pointers, and
    are never called. Without ``/proc/self/maps`` the list is empty. The
    libraries come in the same order whatever ``name`` is, and ``get_num_threads``
    and ``set_num_threads`` come typed for ctypes.
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
    funcs = list(found.values())
    if name in _SIGNATURES:
        for func in funcs:
            func.argtypes, func.restype = _SIGNATURES[name]
    return funcs


def one_blas_thread() -> None:
    """Set every OpenBLAS this process has loaded to one thread.

    A forked worker and a query each run one thread: with OpenBLAS's default
    of one per CPU, the extra threads spin, and a 7 s query took about twice
    its wall time in CPU.
    """
    for set_threads in _openblas_functions("set_num_threads"):
        set_threads(1)


_worker_func = None  # the function a fork worker maps; set in the worker only


def _init_worker(func) -> None:
    global _worker_func
    _worker_func = func
    one_blas_thread()


def _call_worker(item):
    return _worker_func(item)


def _map_in_process(func, items, setters):
    """``func(item)`` for each item at one OpenBLAS thread; the caller's thread counts are back between items."""
    getters = _openblas_functions("get_num_threads")
    for item in items:
        before = [get() for get in getters]
        for set_threads in setters:
            set_threads(1)
        try:
            result = func(item)
        finally:
            for set_threads, n in zip(setters, before):
                set_threads(n)
        yield result


def parallel_map(func, items):
    """Yield ``func(item)`` for each item, in order, over one worker per allowed CPU.

    Each item is independent work, such as one catalog track, one evaluation
    query or one band's reduction fit. Workers are forked, so ``func`` may be
    a closure over the model or the training prints, and only the items and
    results are pickled. Each worker runs one BLAS thread: with OpenBLAS's
    default of one thread per CPU in every worker, two workers on two CPUs
    ran slower than one process. Python's imports make ``spawn`` workers
    cost seconds per call, which forking avoids. With one allowed CPU, a
    single item, or no OpenBLAS entry point to limit, ``func`` runs in this
    process, also at one OpenBLAS thread, and the caller's thread counts are
    restored after each item.
    """
    items = list(items)
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(n_cpus, len(items))
    setters = _openblas_functions("set_num_threads")
    if n_workers > 1 and setters:
        with multiprocessing.get_context("fork").Pool(n_workers, _init_worker, (func,)) as pool:
            yield from pool.imap(_call_worker, items)
    else:
        yield from _map_in_process(func, items, setters)
