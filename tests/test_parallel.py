"""Per-track work over the allowed CPUs: pipeline._parallel_map and its callers.

The worker count follows ``os.sched_getaffinity``; the tests set it with
monkeypatch, so "several workers" means two forked workers on any machine.
The same tests run once more under ``taskset -c 0`` in CI, where the
unpatched affinity leaves one CPU.
"""

import ctypes
import os

import pytest

from corpus import build_corpus

from printdex import hashing, pipeline
from printdex.reduction import save_model

PLAN = (("white12", "white_noise:snr_db=12"), ("stretchp", "time_stretch:cents=30"))


def _allow_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _blas_threads() -> list:
    getters = pipeline._openblas_functions("get_num_threads")
    for get in getters:
        get.argtypes, get.restype = [], ctypes.c_int
    return [get() for get in getters]


def _pid_and_blas_threads(item):
    return item, os.getpid(), _blas_threads()


def test_worker_runs_one_blas_thread(monkeypatch):
    _allow_cpus(monkeypatch, 2)
    before = _blas_threads()
    out = list(pipeline._parallel_map(_pid_and_blas_threads, range(6)))
    assert [item for item, _, _ in out] == list(range(6))
    assert all(pid != os.getpid() for _, pid, _ in out)
    assert all(threads == [1] * len(before) for _, _, threads in out)
    assert _blas_threads() == before  # the parent keeps its own thread count


@pytest.mark.parametrize("cause", ["one allowed cpu", "no entry point", "one item"])
def test_in_process_without_child(monkeypatch, cause):
    _allow_cpus(monkeypatch, 1 if cause == "one allowed cpu" else 2)
    if cause == "no entry point":
        monkeypatch.setattr(pipeline, "_openblas_functions", lambda name: [])

    def no_pool(method):
        raise AssertionError(f"a {method} pool was started")

    monkeypatch.setattr(pipeline.multiprocessing, "get_context", no_pool)
    items = range(1 if cause == "one item" else 4)
    assert list(pipeline._parallel_map(lambda i: (i, os.getpid()), items)) == [(i, os.getpid()) for i in items]


def test_workers_follow_real_affinity():
    """Unpatched: forked workers with several allowed CPUs, this process alone with one."""
    pids = {pid for _, pid, _ in pipeline._parallel_map(_pid_and_blas_threads, range(4))}
    if len(os.sched_getaffinity(0)) == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids


def test_worker_error_reaches_caller(monkeypatch):
    _allow_cpus(monkeypatch, 2)

    def fail_on_two(item):
        if item == 2:
            raise ValueError(f"bad item {item}")
        return item

    with pytest.raises(ValueError, match="^bad item 2$"):
        list(pipeline._parallel_map(fail_on_two, range(4)))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    _, entries = build_corpus(tmp_path_factory.mktemp("parallel_corpus"), 6, duration_s=12.0)
    return entries


def _artifacts(entries, directory) -> tuple:
    """(model bytes, index bytes) of one train + index run."""
    model = pipeline.train_from_manifest(
        entries, plan=PLAN, times_per_track=7, pool_times_per_track=30, seed=4, lda_dim=40, enforce_min_originals=False
    )
    save_model(directory / "model.bmrm", model)
    hashing.save_index(directory / "index.bmix", pipeline.build_index(entries, model, lsh_seed=9))
    return (directory / "model.bmrm").read_bytes(), (directory / "index.bmix").read_bytes()


def test_train_and_index_files_do_not_depend_on_workers(corpus, tmp_path, monkeypatch):
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    _allow_cpus(monkeypatch, 1)
    one = _artifacts(corpus, tmp_path / "one")
    _allow_cpus(monkeypatch, 2)
    assert _artifacts(corpus, tmp_path / "two") == one
