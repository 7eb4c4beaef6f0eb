"""Work over the allowed CPUs: parallel.parallel_map and its callers.

The worker count follows ``os.sched_getaffinity``; the tests set it with
monkeypatch, so "several workers" means two forked workers on any machine.
The same tests run once more under ``taskset -c 0`` in CI, where the
unpatched affinity leaves one CPU.
"""

import contextlib
import dataclasses
import os

import numpy as np
import pytest

from corpus import build_corpus, synth_track

from printdex import hashing, parallel, pipeline
from printdex.audio import save_wav
from printdex.reduction import save_model

PLAN = (("white12", "white_noise:snr_db=12"), ("stretchp", "time_stretch:cents=30"))


def _allow_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _blas_threads() -> list:
    return [get() for get in parallel._openblas_functions("get_num_threads")]


@contextlib.contextmanager
def _main_blas_threads(n: int):
    """Run this process's OpenBLAS libraries at ``n`` threads, then restore their counts."""
    setters = parallel._openblas_functions("set_num_threads")
    before = _blas_threads()
    for set_threads in setters:
        set_threads(n)
    try:
        yield
    finally:
        for set_threads, count in zip(setters, before):
            set_threads(count)


def _pid_and_blas_threads(item):
    return item, os.getpid(), _blas_threads()


def test_worker_runs_one_blas_thread(monkeypatch):
    _allow_cpus(monkeypatch, 2)
    before = _blas_threads()
    out = list(parallel.parallel_map(_pid_and_blas_threads, range(6)))
    assert [item for item, _, _ in out] == list(range(6))
    assert all(pid != os.getpid() for _, pid, _ in out)
    assert all(threads == [1] * len(before) for _, _, threads in out)
    assert _blas_threads() == before  # the parent keeps its own thread count


@pytest.mark.parametrize("cause", ["one allowed cpu", "no entry point", "one item"])
def test_in_process_without_child(monkeypatch, cause):
    """In this process, each item runs at one OpenBLAS thread and the caller's count is back between items."""
    _allow_cpus(monkeypatch, 1 if cause == "one allowed cpu" else 2)
    if cause == "no entry point":
        monkeypatch.setattr(parallel, "_openblas_functions", lambda name: [])

    def no_pool(method):
        raise AssertionError(f"a {method} pool was started")

    monkeypatch.setattr(parallel.multiprocessing, "get_context", no_pool)
    items = range(1 if cause == "one item" else 4)
    with _main_blas_threads(2):
        caller = _blas_threads()
        out = []
        for result in parallel.parallel_map(lambda i: (i, os.getpid(), _blas_threads()), items):
            out.append(result)
            assert _blas_threads() == caller
    assert out == [(i, os.getpid(), [1] * len(caller)) for i in items]


def test_workers_follow_real_affinity():
    """Unpatched: forked workers with several allowed CPUs, this process alone with one."""
    pids = {pid for _, pid, _ in parallel.parallel_map(_pid_and_blas_threads, range(4))}
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
        list(parallel.parallel_map(fail_on_two, range(4)))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    _, entries = build_corpus(tmp_path_factory.mktemp("parallel_corpus"), 6, duration_s=12.0)
    return entries


@pytest.fixture(scope="module")
def model(corpus):
    return pipeline.train_from_manifest(
        corpus, plan=PLAN, times_per_track=7, pool_times_per_track=30, seed=4, lda_dim=40, enforce_min_originals=False
    )


def _artifacts(entries, directory) -> tuple:
    """(model bytes, index bytes) of one train + index run."""
    model = pipeline.train_from_manifest(
        entries, plan=PLAN, times_per_track=7, pool_times_per_track=30, seed=4, lda_dim=40, enforce_min_originals=False
    )
    save_model(directory / "model.bmrm", model)
    hashing.save_index(directory / "index.bmix", pipeline.build_index(entries, model, lsh_seed=9))
    return (directory / "model.bmrm").read_bytes(), (directory / "index.bmix").read_bytes()


def test_train_and_index_files_do_not_depend_on_workers(corpus, tmp_path, monkeypatch):
    """One or two allowed CPUs, each with this process's OpenBLAS at one or two threads: the same files.

    With one CPU the band fits and the per-track work run in this process,
    with two in forked workers; either way at one OpenBLAS thread.
    """
    artifacts = {}
    for cpus in (1, 2):
        _allow_cpus(monkeypatch, cpus)
        for threads in (1, 2):
            (tmp_path / f"{cpus}-{threads}").mkdir()
            with _main_blas_threads(threads):
                artifacts[cpus, threads] = _artifacts(corpus, tmp_path / f"{cpus}-{threads}")
    assert all(files == artifacts[1, 1] for files in artifacts.values())


def test_index_file_does_not_depend_on_manifest_order(corpus, model, tmp_path):
    """Tracks are inserted in track id order, in forked workers or, with one allowed CPU, in this process."""
    shuffled = [corpus[i] for i in (3, 0, 5, 1, 4, 2)]
    for name, entries in (("sorted", corpus), ("shuffled", shuffled)):
        hashing.save_index(tmp_path / f"{name}.bmix", pipeline.build_index(entries, model, lsh_seed=9))
    assert (tmp_path / "shuffled.bmix").read_bytes() == (tmp_path / "sorted.bmix").read_bytes()


def _short_track(directory, track_id: int = 7) -> pipeline.ManifestEntry:
    """A 2 s track, shorter than one print window."""
    save_wav(directory / "short.wav", synth_track(77, duration_s=2.0))
    return pipeline.ManifestEntry(track_id=track_id, path=str(directory / "short.wav"), label="short")


def test_track_without_prints_gets_a_record(corpus, model, tmp_path):
    short = _short_track(tmp_path)
    index = pipeline.build_index([corpus[0], short, corpus[1]], model)
    assert sorted(index.tracks) == [1, 2, 7] and index.tracks[7].name == "short"
    assert set(index.table.prints["track"].tolist()) == {1, 2}


def test_training_data_equals_per_track_concatenation(corpus, tmp_path, monkeypatch):
    """Each field, byte for byte, is the concatenation of what the tracks returned, in forked workers or in this process.

    The track without prints returns nothing and contributes nothing.
    """
    returned = []

    def recording_map(func, items):
        for rec in parallel.parallel_map(func, items):
            returned.append(rec)
            yield rec

    monkeypatch.setattr(pipeline, "parallel_map", recording_map)
    entries = [corpus[0], _short_track(tmp_path), *corpus[1:3]]
    for cpus in (1, 2):
        _allow_cpus(monkeypatch, cpus)
        returned.clear()
        data = pipeline.collect_training_data(entries, plan=PLAN, times_per_track=7, pool_times_per_track=30, seed=4)
        assert [rec is None for rec in returned] == [False, True, False, False]
        for k, field in enumerate(dataclasses.fields(pipeline.TrainingData)):
            got = getattr(data, field.name)
            expected = np.concatenate([rec[k] for rec in returned if rec is not None])
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes()


def test_training_data_without_a_usable_track_fails_in_one_line(tmp_path):
    with pytest.raises(ValueError) as info:
        pipeline.collect_training_data([_short_track(tmp_path)], plan=PLAN)
    assert str(info.value) == "no catalog track gives a training print"
