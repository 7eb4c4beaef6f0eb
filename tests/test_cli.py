import argparse
import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest

from corpus import build_corpus, synth_track

from printdex import parallel, pipeline
from printdex.audio import AudioBuffer, load_audio, save_wav
from printdex.cli import build_parser, main
from printdex.hashing import N_RELIABLE, load_index
from printdex.pipeline import load_track, read_manifest, reduced_prints_for_buffer, write_manifest
from printdex.prints import N_BANDS
from printdex.reduction import load_model, save_model
from printdex.search import query_index

TRAIN_ARGS = [
    "--times-per-track",
    "7",
    "--pool-times-per-track",
    "30",
    "--allow-small",
    "--variant",
    "white_noise:snr_db=12",
    "--variant",
    "graphic_eq:gain_db=6",
    "--variant",
    "time_stretch:cents=20",
]


def _sha12(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()[:12]


def _blas_threads() -> list:
    return [get() for get in parallel._openblas_functions("get_num_threads")]


def _set_blas_threads(n: int) -> None:
    for set_threads in parallel._openblas_functions("set_num_threads"):
        set_threads(n)


@pytest.fixture(autouse=True)
def _restore_blas_threads():
    """`printdex query` runs one OpenBLAS thread in this process; later tests get the count back."""
    before = max(_blas_threads(), default=1)
    yield
    _set_blas_threads(before)


@pytest.fixture(scope="module")
def cli_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    manifest, entries = build_corpus(root, 12, duration_s=15.0)
    model = str(root / "model.bmrm")
    index = str(root / "index.bmix")
    assert main(["train", "--manifest", manifest, "--out", model, "--seed", "3", *TRAIN_ARGS]) == 0
    assert main(["index", "--manifest", manifest, "--model", model, "--out", index, "--lsh-seed", "5"]) == 0
    return root, manifest, entries, model, index


class TestManifest:
    def test_roundtrip(self, tmp_path):
        from printdex.pipeline import ManifestEntry

        path = tmp_path / "m.tsv"
        entries = [ManifestEntry(1, "/a.wav", "one"), ManifestEntry(2, "/b.wav", "")]
        write_manifest(path, entries)
        back = read_manifest(path)
        assert back[0].track_id == 1 and back[0].label == "one"
        assert back[1].path == "/b.wav"

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1\t/a.wav\n1\t/b.wav\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    @pytest.mark.parametrize("track_id", ["-3", "4294967296", "7x"])
    def test_bad_track_id_rejected_with_line(self, tmp_path, track_id):
        path = tmp_path / "m.tsv"
        path.write_text(f"1\t/a.wav\n{track_id}\t/b.wav\n")
        with pytest.raises(ValueError) as exc:
            read_manifest(path)
        assert str(exc.value) == f"{path}:2: track id must be an integer in [0, 4294967295], got '{track_id}'"


class TestTrain:
    def test_insufficient_classes_fails(self, tmp_path, capsys):
        manifest, entries = build_corpus(tmp_path, 3, duration_s=12.0)
        code = main(
            ["train", "--manifest", manifest, "--out", str(tmp_path / "m.bmrm"), "--times-per-track", "3", "--allow-small"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_manifest_fails(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "m.bmrm")])
        assert code == 1

    def test_class_ids_distinct_past_100000_anchors_per_track(self, monkeypatch):
        """Two tracks of 100 001 class anchors each give 200 002 distinct classes."""
        n = 100_001
        buf = AudioBuffer(samples=np.sin(np.arange(1024) * 0.1), sample_rate=11025)
        monkeypatch.setattr(pipeline, "load_track", lambda entry: buf)

        def tiny_analyze(audio, frames=None):
            kept = np.arange(n) if frames is None else frames
            return kept, np.ones((len(kept), 1, 1), dtype=np.float32)

        monkeypatch.setattr(pipeline, "analyze", tiny_analyze)
        entries = [pipeline.ManifestEntry(1, "a.wav"), pipeline.ManifestEntry(2, "b.wav")]
        data = pipeline.collect_training_data(
            entries, (("white12", "white_noise:snr_db=12"),), times_per_track=n, pool_times_per_track=0
        )
        assert len(data.class_ids) == 2 * 2 * n
        assert len(np.unique(data.class_ids)) == 2 * n

    def test_small_corpus_without_waiver_fails(self, tmp_path, capsys):
        manifest, entries = build_corpus(tmp_path, 12, duration_s=12.0)
        code = main(["train", "--manifest", manifest, "--out", str(tmp_path / "m.bmrm"), "--times-per-track", "7"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainSizes:
    """Bad training sizes fail in one line before any track is decoded: the manifest's file does not exist."""

    CASES = [
        ("--lda-dim", "-5", "LDA needs K >= 1, got K=-5"),
        ("--lda-dim", "0", "LDA needs K >= 1, got K=0"),
        ("--times-per-track", "-1", "times_per_track must be at least 1, got -1"),
        ("--times-per-track", "0", "times_per_track must be at least 1, got 0"),
        ("--pool-times-per-track", "-3", "pool_times_per_track must be at least 0, got -3"),
    ]

    @staticmethod
    def _missing_track(tmp_path):
        return [pipeline.ManifestEntry(1, str(tmp_path / "missing.wav"))]

    @pytest.mark.parametrize("option, value, message", CASES)
    def test_cli_one_line(self, tmp_path, capsys, option, value, message):
        manifest = tmp_path / "m.tsv"
        write_manifest(manifest, self._missing_track(tmp_path))
        assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.bmrm"), option, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m.bmrm").exists()

    @pytest.mark.parametrize("lda_dim", [-5, 0])
    def test_train_from_manifest_rejects_lda_dim(self, tmp_path, lda_dim):
        with pytest.raises(ValueError) as info:
            pipeline.train_from_manifest(self._missing_track(tmp_path), lda_dim=lda_dim)
        assert str(info.value) == f"LDA needs K >= 1, got K={lda_dim}"

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"times_per_track": -1}, "times_per_track must be at least 1, got -1"),
            ({"times_per_track": 0}, "times_per_track must be at least 1, got 0"),
            ({"pool_times_per_track": -3}, "pool_times_per_track must be at least 0, got -3"),
        ],
    )
    def test_collect_training_data_rejects(self, tmp_path, sizes, message):
        with pytest.raises(ValueError) as info:
            pipeline.collect_training_data(self._missing_track(tmp_path), **sizes)
        assert str(info.value) == message


class TestQueryCommand:
    def test_self_query_rank1(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        buf = load_audio(entries[4].path)
        start = int(3.0 * buf.sample_rate)
        excerpt_path = str(tmp_path / "q.wav")
        save_wav(excerpt_path, type(buf)(samples=buf.samples[start : start + 7 * buf.sample_rate], sample_rate=buf.sample_rate))
        assert main(["query", excerpt_path, "--index", index, "--model", model]) == 0
        out = capsys.readouterr().out
        assert f"track={entries[4].track_id}" in out.splitlines()[0]

    def test_json_output(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        buf = load_audio(entries[2].path)
        excerpt_path = str(tmp_path / "q.wav")
        save_wav(excerpt_path, type(buf)(samples=buf.samples[: 7 * buf.sample_rate], sample_rate=buf.sample_rate))
        assert main(["query", excerpt_path, "--index", index, "--model", model, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["track_id"] == entries[2].track_id
        assert set(payload["results"][0]) >= {"rank", "track_id", "step1_count", "coherence", "alpha", "offset_s"}

    def test_unrelated_query_reports_no_match(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        excerpt_path = str(tmp_path / "u.wav")
        save_wav(excerpt_path, synth_track(9_999_111, duration_s=7.0))
        assert main(["query", excerpt_path, "--index", index, "--model", model]) == 0
        assert "no match" in capsys.readouterr().out

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_one_line_error(self, cli_setup, tmp_path, capsys, top):
        root, manifest, entries, model, index = cli_setup
        excerpt_path = str(tmp_path / "q.wav")
        save_wav(excerpt_path, synth_track(entries[0].track_id, duration_s=7.0))
        assert main(["query", excerpt_path, "--index", index, "--model", model, "--top", top]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --top must be at least 1, got {top}\n"

    def test_too_short_excerpt_errors(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        excerpt_path = str(tmp_path / "s.wav")
        save_wav(excerpt_path, synth_track(1, duration_s=1.0))
        assert main(["query", excerpt_path, "--index", index, "--model", model]) == 1

    def test_index_with_forged_hop_one_line_error(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        forged = tmp_path / "forged.bmix"
        raw = bytearray(open(index, "rb").read())
        raw[26:30] = struct.pack("<I", 441)  # the header's hop in samples
        forged.write_bytes(raw)
        excerpt_path = str(tmp_path / "q.wav")
        save_wav(excerpt_path, synth_track(entries[0].track_id, duration_s=7.0))
        assert main(["query", excerpt_path, "--index", str(forged), "--model", model]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unsupported index geometry") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("width", [32, 48])
    def test_model_of_other_width_one_line_error(self, cli_setup, tmp_path, capsys, width):
        root, manifest, entries, model, index = cli_setup
        rows = np.arange(width) % 40
        loaded = load_model(model)
        for chain in loaded.bands:
            chain.p_final, chain.t_final, chain.sigma_e = chain.p_final[rows], chain.t_final[rows], chain.sigma_e[rows]
        loaded.out_dim = width
        other = str(tmp_path / "other.bmrm")
        save_model(other, loaded)
        excerpt_path = str(tmp_path / "q.wav")
        save_wav(excerpt_path, synth_track(entries[0].track_id, duration_s=7.0))
        assert main(["query", excerpt_path, "--index", index, "--model", other]) == 1
        assert capsys.readouterr().err == f"error: model {_sha12(other)} is not the model {_sha12(model)} the index was built with; use that model or rebuild the index\n"
        with pytest.raises(ValueError, match=f"^reduced prints must have 40 components, got {width}$"):
            query_index(load_audio(excerpt_path), load_index(index), loaded)

    @pytest.mark.parametrize("command", ["query", "evaluate"])
    def test_other_model_than_the_index_one_line_error(self, cli_setup, tmp_path, capsys, monkeypatch, command):
        root, manifest, entries, model, index = cli_setup

        def no_queries(*args, **kwargs):
            raise AssertionError("queries were cut before the model was checked")

        monkeypatch.setattr(pipeline, "make_queries", no_queries)
        loaded = load_model(model)
        loaded.bands[0].metadata["retrained"] = "yes"
        other = str(tmp_path / "other.bmrm")
        save_model(other, loaded)
        excerpt_path = str(tmp_path / "q.wav")
        save_wav(excerpt_path, synth_track(entries[0].track_id, duration_s=7.0))
        argv = {
            "query": ["query", excerpt_path, "--index", index, "--model", other],
            "evaluate": ["evaluate", "--manifest", manifest, "--index", index, "--model", other, "--queries", "2", "--out", str(tmp_path / "r.tsv")],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: model {_sha12(other)} is not the model {_sha12(model)} the index was built with; use that model or rebuild the index\n"
        assert not (tmp_path / "r.tsv").exists()

    def test_query_runs_one_blas_thread(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        _set_blas_threads(2)
        assert _blas_threads() and set(_blas_threads()) == {2}
        excerpt_path = str(tmp_path / "q.wav")
        save_wav(excerpt_path, synth_track(entries[0].track_id, duration_s=7.0))
        assert main(["query", excerpt_path, "--index", index, "--model", model]) == 0
        assert set(_blas_threads()) == {1}


class TestDegradeCommand:
    def test_spec_output(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        out_path = str(tmp_path / "d.wav")
        assert main(["degrade", entries[0].path, "--spec", "white_noise:snr_db=6", "--seed", "4", "--out", out_path]) == 0
        assert os.path.exists(out_path)
        degraded = load_audio(out_path)
        original = load_audio(entries[0].path)
        assert len(degraded.samples) == len(original.samples)

    def test_scenario_stretches_duration(self, cli_setup, tmp_path):
        root, manifest, entries, model, index = cli_setup
        out_path = str(tmp_path / "s.wav")
        with pytest.warns(UserWarning):
            assert main(["degrade", entries[0].path, "--scenario", "slowdown", "--level", "2", "--out", out_path]) == 0
        degraded = load_audio(out_path)
        original = load_audio(entries[0].path)
        assert len(degraded.samples) > len(original.samples) * 1.02

    def test_missing_spec_errors(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        assert main(["degrade", entries[0].path, "--out", str(tmp_path / "x.wav")]) == 1


class TestEvaluateCommand:
    def test_small_grid(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        report_path = str(tmp_path / "report.tsv")
        code = main(
            [
                "evaluate",
                "--manifest", manifest,
                "--index", index,
                "--model", model,
                "--queries", "8",
                "--duration", "7",
                "--degrade", "white12=white_noise:snr_db=12",
                "--out", report_path,
            ]
        )
        assert code == 0
        lines = open(report_path).read().splitlines()
        assert lines[0] == "degradation\tqueries\tstep1_rate\tstep2_rate\tpartial"
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert set(rows) == {"clean", "white12"}
        assert float(rows["clean"][3]) == 100.0  # step2 on clean self-queries
        out = capsys.readouterr().out
        assert "STEP1" in out and "STEP2" in out

    def test_tsv_deterministic_across_runs(self, cli_setup, tmp_path):
        root, manifest, entries, model, index = cli_setup
        p1, p2 = str(tmp_path / "r1.tsv"), str(tmp_path / "r2.tsv")
        args = [
            "evaluate", "--manifest", manifest, "--index", index, "--model", model,
            "--queries", "4", "--duration", "7", "--degrade", "eq=graphic_eq:gain_db=6",
        ]
        assert main([*args, "--out", p1]) == 0
        assert main([*args, "--out", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_jobs_do_not_change_results(self, cli_setup, tmp_path, monkeypatch):
        """One worker per allowed CPU: the report is the same with one CPU and with two."""
        root, manifest, entries, model, index = cli_setup
        p1, p2 = str(tmp_path / "j1.tsv"), str(tmp_path / "j2.tsv")
        args = [
            "evaluate", "--manifest", manifest, "--index", index, "--model", model,
            "--queries", "6", "--duration", "7", "--degrade", "white=white_noise:snr_db=12",
        ]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main([*args, "--out", p1]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert main([*args, "--out", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--queries", "0"], "--queries must be at least 1, got 0"),
            (["--duration", "2.5"], "--duration must be at least 3, got 2.5"),
        ],
    )
    def test_bad_arguments_one_line_error(self, tmp_path, capsys, extra, message):
        argv = ["evaluate", "--manifest", str(tmp_path / "m.tsv"), "--index", "i.bmix", "--model", "m.bmrm", *extra]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_default_grid_covers_noise_pitch_stretch(self):
        from printdex.cli import _default_grid

        labels = [label for label, _ in _default_grid()]
        assert [l for l in labels if l.startswith("white_noise")] == [
            "white_noise_snr12", "white_noise_snr6", "white_noise_snr0",
        ]
        assert any("pitch" in l for l in labels) and any("stretch" in l for l in labels)


class TestIndexCommand:
    def test_print_count_matches_duration_oracle(self, cli_setup):
        root, manifest, entries, model, index = cli_setup
        idx = load_index(index)
        n_prints = idx.table.n_postings / (N_BANDS * N_RELIABLE)
        # anchors in the last 3 s have no room for a print window, which on
        # these short 15 s tracks is a fifth of the duration
        expected = len(entries) * (15.0 - 3.0) * 4.0
        assert abs(n_prints - expected) / expected < 0.30

    def test_printed_print_count(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        three = tmp_path / "three.tsv"
        write_manifest(three, read_manifest(manifest)[:3])
        assert main(["index", "--manifest", str(three), "--model", model, "--out", str(tmp_path / "i.bmix")]) == 0
        out = capsys.readouterr().out
        printed = int(re.search(r"\bprints=(\d+)", out).group(1))
        size = (tmp_path / "i.bmix").stat().st_size
        hours = sum(load_track(e).duration for e in read_manifest(three)) / 3600.0
        assert f"file: {size} bytes, {size / hours / 1e6:.2f} MB per audio hour" in out.splitlines()
        loaded = load_model(model)
        kept = [reduced_prints_for_buffer(load_track(e), loaded)[0] for e in read_manifest(three)]
        assert printed == sum(len(k) for k in kept) > 0

    def test_rebuild_is_byte_identical(self, cli_setup, tmp_path):
        root, manifest, entries, model, index = cli_setup
        rebuilt = str(tmp_path / "rebuilt.bmix")
        assert main(["index", "--manifest", manifest, "--model", model, "--out", rebuilt, "--lsh-seed", "5"]) == 0
        assert open(index, "rb").read() == open(rebuilt, "rb").read()

    def test_catalog_without_postings(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        short_manifest, _ = build_corpus(tmp_path, 1, duration_s=2.0)  # shorter than one 3 s print window
        empty = str(tmp_path / "empty.bmix")
        assert main(["index", "--manifest", short_manifest, "--model", model, "--out", empty]) == 0
        assert "postings=0" in capsys.readouterr().out
        assert main(["inspect", "--index", empty]) == 0
        assert "postings=0" in capsys.readouterr().out

    def test_empty_manifest_fails(self, cli_setup, tmp_path):
        root, manifest, entries, model, index = cli_setup
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert main(["index", "--manifest", str(empty), "--model", model, "--out", str(tmp_path / "x.bmix")]) == 1


class TestInspectCommand:
    def test_inspect_both(self, cli_setup, capsys):
        root, manifest, entries, model, index = cli_setup
        assert main(["inspect", "--model", model, "--index", index]) == 0
        out = capsys.readouterr().out
        assert "bands=5" in out
        assert "L=51" in out and "L'=10" in out
        loaded = load_index(index)
        assert f"prints={len(loaded.table.prints)} postings={loaded.table.n_postings}" in out
        assert f"model sha256={hashlib.sha256(open(model, 'rb').read()).hexdigest()}" in out.splitlines()
        assert re.search(rf"^file: {os.path.getsize(index)} bytes, [0-9.]+ MB per audio hour$", out, re.M)

    def test_inspect_nothing_errors(self, capsys):
        assert main(["inspect"]) == 1

    def test_version_mismatch_detected(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        bad = tmp_path / "bad.bmrm"
        raw = bytearray(open(model, "rb").read())
        raw[4] = 99  # version field
        bad.write_bytes(raw)
        assert main(["inspect", "--model", str(bad)]) == 1
        assert "version" in capsys.readouterr().err

    def test_version_1_model_one_line_error(self, tmp_path, capsys):
        old = tmp_path / "v1.bmrm"
        # a version-1 header (version, bands, out_dim, lda_dim, in_dim) and the start of band 0
        old.write_bytes(b"BMRM" + struct.pack("<HHHHI", 1, 5, 40, 80, 1056) + bytes(4096))
        assert main(["inspect", "--model", str(old)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unsupported model version 1 ") and err.count("\n") == 1

    def test_version_1_index_one_line_error(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        old = tmp_path / "v1.bmix"
        raw = bytearray(open(index, "rb").read())
        raw[4:6] = struct.pack("<H", 1)  # version field
        old.write_bytes(raw)
        assert main(["inspect", "--index", str(old)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unsupported index version 1 ") and err.count("\n") == 1

    def test_forged_model_in_dim_one_line_error(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        forged = tmp_path / "forged.bmrm"
        raw = bytearray(open(model, "rb").read())
        raw[10:14] = (1 << 31).to_bytes(4, "little")  # in_dim, which sizes every p_final read
        forged.write_bytes(raw)
        assert main(["inspect", "--model", str(forged)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated model file") and err.count("\n") == 1

    @pytest.mark.parametrize("keep", [slice(None, 30), slice(None, -5)])
    def test_truncated_index_one_line_error(self, cli_setup, tmp_path, capsys, keep):
        root, manifest, entries, model, index = cli_setup
        cut = tmp_path / "cut.bmix"
        cut.write_bytes(open(index, "rb").read()[keep])
        assert main(["inspect", "--index", str(cut)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated index file") and err.count("\n") == 1

    @pytest.mark.parametrize("keep", [slice(None, 30), slice(None, -5)])
    def test_truncated_model_one_line_error(self, cli_setup, tmp_path, capsys, keep):
        root, manifest, entries, model, index = cli_setup
        cut = tmp_path / "cut.bmrm"
        cut.write_bytes(open(model, "rb").read()[keep])
        assert main(["inspect", "--model", str(cut)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated model file") and err.count("\n") == 1

    def test_forged_index_counts_one_line_error(self, cli_setup, tmp_path, capsys):
        root, manifest, entries, model, index = cli_setup
        forged = tmp_path / "forged.bmix"
        raw = bytearray(open(index, "rb").read())
        raw[34:42] = (1 << 40).to_bytes(8, "little")  # the header's posting count
        forged.write_bytes(raw)
        assert main(["inspect", "--index", str(forged)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated index file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["train", "--manifest", "m.tsv", "--out", "m.bmrm"], True),
        (["index", "--manifest", "m.tsv", "--model", "m.bmrm", "--out", "i.bmix"], True),
        (["evaluate", "--manifest", "m.tsv", "--index", "i.bmix", "--model", "m.bmrm"], True),
        (["query", "q.wav", "--index", "i.bmix", "--model", "m.bmrm"], False),
        (["degrade", "q.wav", "--out", "d.wav"], False),
        (["inspect"], False),
    ],
)
def test_sample_rate_only_where_read(argv, accepted, capsys):
    """--verbose exists only on the commands that read it; --sample-rate on none, the rate being fixed."""
    for option, accepted_here in (["--sample-rate", "8000"], False), (["--verbose"], accepted):
        if accepted_here:
            assert build_parser().parse_args([*argv, *option]).verbose is True
        else:
            with pytest.raises(SystemExit) as exc:
                main([*argv, *option])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    ["white_noise", "white_noise:snr=12", "pitch_shift", "tremolo", "white_noise:snr_db=abc", "white_noise:snr_db=nan"]
    + ["dyn_compress:ratio=0", "dyn_compress:ratio=-1", "reverb_synthetic:mix_db=3,rt60_s=0", "reverb_synthetic:mix_db=3,rt60_s=-1"]
    + ["pitch_shift:semitones=100000", "pitch_shift:semitones=-200", "time_stretch:cents=1200", "time_stretch:cents=-1200"],
)
@pytest.mark.parametrize("command", ["degrade", "train", "evaluate"])
def test_malformed_spec_one_line_error(spec, command, tmp_path, capsys):
    """A spec missing, misnaming or mistyping a parameter, or giving a non-finite or out-of-range value,
    fails in one line on every command that reads specs, and writes nothing."""
    wav = str(tmp_path / "t.wav")
    save_wav(wav, synth_track(1, duration_s=4.0))
    manifest = str(tmp_path / "m.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"1\t{wav}\n")
    argv = {
        "degrade": ["degrade", wav, "--spec", spec, "--out", str(tmp_path / "o.wav")],
        "train": ["train", "--manifest", manifest, "--out", str(tmp_path / "m.bmrm"), "--variant", spec],
        "evaluate": ["evaluate", "--manifest", manifest, "--index", "i.bmix", "--model", "m.bmrm", "--degrade", f"x={spec}"],
    }[command]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and spec.partition(":")[0] in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv", "t.wav"]


@pytest.mark.parametrize("spec", ["reverb_synthetic:mix_db=3,rt60_s=5e-5", "time_stretch:cents=-200"])
def test_spec_leaving_no_samples_one_line_error(spec, tmp_path, capsys):
    """A reverb impulse response or a stretched output without samples fails in one line and writes nothing."""
    wav, out = str(tmp_path / "t.wav"), tmp_path / "o.wav"
    save_wav(wav, AudioBuffer(samples=np.full(1, 0.5), sample_rate=11025))  # a quarter of one sample rounds to none
    assert main(["degrade", wav, "--spec", spec, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {spec.partition(':')[0]}")
    assert not out.exists()


COMMON = {"-h", "--help", "--verbose"}
CLI_SURFACE = {
    "train": COMMON
    | {"--manifest", "--out", "--seed", "--times-per-track", "--pool-times-per-track", "--lda-dim", "--variant", "--allow-small"},
    "index": COMMON | {"--manifest", "--model", "--out", "--lsh-seed"},
    "query": {"-h", "--help", "audio", "--index", "--model", "--top", "--json"},
    "degrade": {"-h", "--help", "audio", "--spec", "--scenario", "--level", "--codec-cmd", "--seed", "--out"},
    "evaluate": COMMON
    | {"--manifest", "--index", "--model", "--queries", "--duration", "--query-seed", "--seed", "--degrade", "--out"},
    "inspect": {"-h", "--help", "--model", "--index"},
}


def test_cli_surface():
    """Every subcommand's options (and positionals, by name): an option added or dropped fails here."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: {s for a in p._actions for s in a.option_strings or [a.dest]} for name, p in sub.choices.items()}
    assert surface == CLI_SURFACE
