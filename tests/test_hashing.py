import os
import struct

import numpy as np
import pytest

from printdex.hashing import (
    CODE_BITS,
    EXT_TABLE_SIZE,
    LSH_BITS,
    N_BANDS,
    N_LSH,
    CatalogIndex,
    HashTable,
    TrackInfo,
    binarize,
    binarize_bits,
    collision_mean,
    derive_codes,
    derive_lsh_codes,
    expected_unchanged,
    extended_code,
    load_index,
    make_lsh_spec,
    reliability,
    reliability_batch,
    save_index,
    simulate_unchanged_codes,
)


class TestBinarize:
    def test_all_negative(self):
        assert binarize(-np.ones(40)) == 0

    def test_zero_counts_as_one(self):
        assert binarize(np.zeros(40)) == (1 << 40) - 1

    def test_alternating(self):
        z = np.tile([1.0, -1.0], 20)
        gamma = binarize(z)
        for k in range(40):
            assert ((gamma >> k) & 1) == (1 if k % 2 == 0 else 0)

    def test_non_finite_rejected(self):
        z = np.zeros(40)
        z[3] = np.nan
        with pytest.raises(ValueError):
            binarize(z)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            binarize(np.zeros(39))

    def test_batch_consistent_with_scalar(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((20, 40))
        bits = binarize_bits(z)
        weights = 1 << np.arange(40, dtype=np.uint64)
        gammas = (bits.astype(np.uint64) * weights).sum(axis=1)
        for i in range(20):
            assert int(gammas[i]) == binarize(z[i])


class TestLshSpec:
    def test_deterministic(self):
        a = make_lsh_spec(1234)
        b = make_lsh_spec(1234)
        assert np.array_equal(a.selections, b.selections)
        assert not np.array_equal(a.selections, make_lsh_spec(1235).selections)

    def test_distinct_positions(self):
        spec = make_lsh_spec(0)
        for row in spec.selections:
            assert len(set(row.tolist())) == LSH_BITS
            assert row.min() >= 0 and row.max() < CODE_BITS

    def test_position_coverage_at_default_seed(self):
        spec = make_lsh_spec(0)
        counts = np.bincount(spec.selections.reshape(-1), minlength=CODE_BITS)
        assert counts.sum() == N_LSH * LSH_BITS
        assert counts.min() >= 10  # pinned at the default seed


class TestDeriveCodes:
    def test_zero_gamma(self):
        spec = make_lsh_spec(0)
        assert np.all(derive_lsh_codes(0, spec) == 0)

    def test_all_ones_gamma(self):
        spec = make_lsh_spec(0)
        assert np.all(derive_lsh_codes((1 << 40) - 1, spec) == 0xFFFF)

    def test_single_bit_flip_footprint(self):
        spec = make_lsh_spec(3)
        rng = np.random.default_rng(1)
        gamma = int(rng.integers(0, 1 << 40))
        base = derive_lsh_codes(gamma, spec)
        for bit in (0, 17, 39):
            flipped = derive_lsh_codes(gamma ^ (1 << bit), spec)
            affected = set(np.flatnonzero(base != flipped).tolist())
            containing = set(ell for ell in range(N_LSH) if bit in spec.selections[ell])
            assert affected == containing


class TestReliability:
    def test_large_magnitudes_approach_one(self):
        spec = make_lsh_spec(0)
        rel = reliability(np.full(40, 50.0), np.ones(40), spec)
        assert np.all(rel > 0.999)

    def test_zero_component_halves(self):
        spec = make_lsh_spec(0)
        z = np.full(40, 50.0)
        z[int(spec.selections[7][0])] = 0.0
        rel = reliability(z, np.ones(40), spec)
        assert rel[7] <= 0.5 + 1e-12

    def test_monotone_in_sigma(self):
        spec = make_lsh_spec(0)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(40)
        r1 = reliability(z, np.ones(40), spec)
        r2 = reliability(z, 2.0 * np.ones(40), spec)
        assert np.all(r2 <= r1 + 1e-12)

    def test_batch_matches_single(self):
        spec = make_lsh_spec(0)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((5, 40))
        sigma = rng.uniform(0.5, 2.0, 40)
        batch = reliability_batch(z, sigma, spec)
        for i in range(5):
            assert np.allclose(batch[i], reliability(z[i], sigma, spec))


def _reduced_prints(seed, n=12, n_bands=N_BANDS):
    rng = np.random.default_rng(seed)
    reduced = rng.standard_normal((n, n_bands, CODE_BITS))
    sigma_e = rng.uniform(0.3, 1.5, (n_bands, CODE_BITS))
    return reduced, sigma_e


class TestCodeDerivation:
    def test_keep_all_in_selection_order(self):
        spec = make_lsh_spec(5)
        reduced, sigma_e = _reduced_prints(0)
        codes = derive_codes(reduced, sigma_e, spec, N_LSH)
        rel = reliability_batch(np.swapaxes(reduced, 0, 1), sigma_e, spec)
        assert codes.shape == rel.shape == (N_BANDS, len(reduced), N_LSH)
        # keeping all 51 codes needs no reliabilities, so no noise deviations
        assert np.array_equal(derive_codes(reduced, None, spec, N_LSH), codes)
        for b in range(N_BANDS):
            assert np.array_equal(rel[b], reliability_batch(reduced[:, b, :], sigma_e[b], spec))
            for i in range(len(reduced)):
                betas = derive_lsh_codes(binarize(reduced[i, b]), spec)
                assert np.array_equal(codes[b, i], extended_code(b, np.arange(N_LSH), betas))
                assert np.allclose(rel[b, i], reliability(reduced[i, b], sigma_e[b], spec))

    def test_top_n_by_reliability_is_subset_of_all(self):
        spec = make_lsh_spec(6)
        reduced, sigma_e = _reduced_prints(1)
        reduced[::2] = 50.0 * np.sign(reduced[::2])  # every code of these prints has reliability 1.0: all tied
        codes = derive_codes(reduced, sigma_e, spec, 10)
        all_codes = derive_codes(reduced, sigma_e, spec, N_LSH)
        all_rel = reliability_batch(np.swapaxes(reduced, 0, 1), sigma_e, spec)
        for b in range(N_BANDS):
            selection = (codes[b] >> 16).astype(np.int64) - b * N_LSH
            for i in range(len(reduced)):
                kept = selection[i]
                assert np.all(np.diff(kept) > 0)
                assert np.array_equal(codes[b, i], all_codes[b, i, kept])
                assert np.array_equal(kept, np.sort(np.argsort(-all_rel[b, i], kind="stable")[:10]))
                dropped = np.setdiff1d(np.arange(N_LSH), kept)
                threshold = all_rel[b, i, kept].min()
                assert np.all(all_rel[b, i, dropped] <= threshold)
                # among codes tied at the threshold, the lower selection index wins
                tied_dropped = dropped[all_rel[b, i, dropped] == threshold]
                tied_kept = kept[all_rel[b, i, kept] == threshold]
                assert len(tied_dropped) == 0 or tied_kept.max() < tied_dropped.min()

    def test_all_equal_keeps_first(self):
        spec = make_lsh_spec(0)
        reduced = np.where(np.random.default_rng(4).random((3, N_BANDS, CODE_BITS)) < 0.5, -50.0, 50.0)
        codes = derive_codes(reduced, np.ones((N_BANDS, CODE_BITS)), spec, 10)
        assert np.all(reliability_batch(np.swapaxes(reduced, 0, 1), np.ones((N_BANDS, CODE_BITS)), spec) == 1.0)
        selection = (codes >> 16).astype(np.int64) - np.arange(N_BANDS)[:, None, None] * N_LSH
        assert np.array_equal(selection, np.broadcast_to(np.arange(10), selection.shape))

    @pytest.mark.parametrize("n_keep", [0, N_LSH + 1])
    def test_n_keep_out_of_range_rejected(self, n_keep):
        reduced, sigma_e = _reduced_prints(2)
        with pytest.raises(ValueError, match="codes kept per print"):
            derive_codes(reduced, sigma_e, make_lsh_spec(0), n_keep)

    @pytest.mark.parametrize("width", [32, 48])
    def test_print_width_other_than_code_bits_rejected(self, width):
        rng = np.random.default_rng(3)
        reduced = rng.standard_normal((4, N_BANDS, width))
        with pytest.raises(ValueError, match=f"must have {CODE_BITS} components, got {width}"):
            derive_codes(reduced, np.ones((N_BANDS, width)), make_lsh_spec(0), N_LSH)


class TestExtendedCode:
    def test_slot_formula(self):
        code = extended_code(2, 7, 0x1234)
        assert int(code) == ((2 * N_LSH + 7) << 16) | 0x1234

    def test_max_fits_24_bits(self):
        assert int(extended_code(4, 50, 0xFFFF)) < (1 << 24)


def _oracle(table, code):
    """Brute-force lookup: every posting whose code equals ``code``."""
    return table.postings[table.postings["code"] == code]


class TestHashTable:
    def test_insert_lookup_singleton(self):
        t = HashTable()
        t.insert([12345], [7], [42])
        t.freeze()
        counts, postings = t.lookup_many([12345])
        assert counts.tolist() == [1]
        assert postings["code"][0] == 12345 and postings["track"][0] == 7 and postings["time"][0] == 42

    def test_absent_code_empty(self):
        t = HashTable()
        t.insert([1], [1], [0])
        t.freeze()
        counts, postings = t.lookup_many([2])  # same directory bucket as code 1
        assert counts.tolist() == [0] and len(postings) == 0

    def test_conservation(self):
        rng = np.random.default_rng(5)
        t = HashTable()
        codes = rng.integers(0, 1 << 24, 1000)
        t.insert(codes, np.arange(1000), np.arange(1000))
        t.freeze()
        assert t.n_postings == 1000
        assert t.bucket_loads().sum() == 1000

    def test_bucket_loads_per_distinct_code(self):
        codes = np.random.default_rng(9).integers(0, 300, 800)
        t = HashTable()
        t.insert(codes, np.zeros(800), np.arange(800))
        t.freeze()
        assert np.array_equal(t.bucket_loads(), np.unique(codes, return_counts=True)[1])
        empty = HashTable()
        empty.freeze()
        assert len(empty.bucket_loads()) == 0

    def test_insert_after_freeze_rejected(self):
        t = HashTable()
        t.freeze()
        with pytest.raises(RuntimeError):
            t.insert([1], [1], [0])

    @pytest.mark.parametrize(
        "tracks, times",
        [([1 << 32], [0]), ([-1], [0]), ([1], [-1]), ([1], [1 << 32])],
        ids=["track_over_u32", "track_negative", "time_negative", "time_over_u32"],
    )
    def test_out_of_range_posting_rejected(self, tracks, times):
        t = HashTable()
        with pytest.raises(ValueError):
            t.insert([5], np.array(tracks), np.array(times))

    def test_field_limits_stored_exactly(self):
        t = HashTable()
        t.insert([5], [(1 << 32) - 1], [(1 << 32) - 1])
        t.freeze()
        postings = _oracle(t, 5)
        assert postings["track"][0] == (1 << 32) - 1 and postings["time"][0] == (1 << 32) - 1

    @pytest.mark.parametrize("codes", [[], [7], [0], [EXT_TABLE_SIZE - 1], [0, EXT_TABLE_SIZE - 1, 3, 3, 0], "random"])
    def test_offsets_match_searchsorted_oracle(self, codes):
        if codes == "random":
            codes = np.random.default_rng(8).integers(0, EXT_TABLE_SIZE, 2000)
        codes = np.asarray(codes, dtype=np.int64)
        t = HashTable()
        t.insert(codes, np.arange(len(codes)), np.zeros(len(codes)))
        t.freeze()
        oracle = np.searchsorted(np.sort(codes) >> 6, np.arange(2**18 + 1))
        assert np.array_equal(t.offsets, oracle)

    @pytest.mark.parametrize("code", [-1, EXT_TABLE_SIZE])
    def test_out_of_range_code_rejected(self, code):
        t = HashTable()
        with pytest.raises(ValueError, match="extended code"):
            t.insert([code], [1], [0])

    def test_postings_sorted_within_bucket(self):
        t = HashTable()
        t.insert([5, 5, 5, 5], [30, 10, 20, 10], [3, 2, 1, 1])
        t.freeze()
        _, postings = t.lookup_many([5])
        assert postings["track"].tolist() == [10, 10, 20, 30]
        assert postings["time"].tolist() == [1, 2, 1, 3]

    def test_lookup_many_matches_loop(self):
        rng = np.random.default_rng(6)
        t = HashTable()
        codes = rng.integers(0, 300, 500)  # about 100 codes per directory bucket
        t.insert(codes, np.arange(500), np.arange(500))
        t.freeze()
        queries = np.concatenate((rng.integers(0, 320, 50), [EXT_TABLE_SIZE - 1, 0, 0]))
        counts, postings = t.lookup_many(queries)
        at = 0
        for q, c in zip(queries, counts):
            single = _oracle(t, q)
            assert len(single) == c
            assert np.array_equal(postings[at : at + c], single)
            at += c
        assert at == len(postings)


class TestStatistics:
    def test_expected_unchanged_table_values(self):
        assert expected_unchanged(0) == N_LSH
        assert expected_unchanged(1) == pytest.approx(34.0, rel=0.005)
        assert expected_unchanged(5) == pytest.approx(6.02, rel=0.005)
        assert expected_unchanged(9) == pytest.approx(0.86, rel=0.005)

    def test_collision_mean(self):
        assert collision_mean() == N_LSH / 65536.0
        assert collision_mean() == pytest.approx(7.782e-4, rel=1e-3)

    def test_rho_20_exactly_one(self):
        assert expected_unchanged(20) / collision_mean() == 1.0

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            expected_unchanged(41)

    def test_monte_carlo_quick(self):
        for k in (1, 5):
            mc = simulate_unchanged_codes(k, 20000, seed=k)
            assert abs(mc - expected_unchanged(k)) / expected_unchanged(k) < 0.05


def _small_index():
    t = HashTable()
    t.insert([3, 1, 2], [1, 2, 3], [5, 6, 7])
    t.freeze()
    return CatalogIndex(table=t, tracks={1: TrackInfo(1, "x", 1.0)}, lsh_seed=0)


class TestIndexFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        t = HashTable()
        codes = rng.integers(0, 1 << 24, 2000)
        t.insert(codes, rng.integers(1, 50, 2000), rng.integers(0, 1500, 2000))
        t.freeze()
        index = CatalogIndex(
            table=t,
            tracks={1: TrackInfo(1, "one", 30.0), 2: TrackInfo(2, "two", 29.5)},
            lsh_seed=99,
        )
        path = tmp_path / "i.bmix"
        save_index(path, index)
        back = load_index(path)
        assert np.array_equal(back.table.offsets, t.offsets)
        assert np.array_equal(back.table.postings, t.postings)
        assert back.tracks[2].name == "two"
        assert back.tracks[2].duration == 29.5
        assert back.lsh_seed == 99
        assert np.array_equal(back.spec.selections, make_lsh_spec(99).selections)

    def test_file_sized_by_postings(self, tmp_path):
        path = tmp_path / "i.bmix"
        save_index(path, _small_index())
        assert path.stat().st_size == 46 + 12 * 3 + (14 + len("x"))

    def test_save_deterministic(self, tmp_path):
        index = _small_index()
        p1, p2 = tmp_path / "a.bmix", tmp_path / "b.bmix"
        save_index(p1, index)
        save_index(p2, index)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("cut", ["to_30_bytes", "last_5_bytes"])
    def test_truncated_file_rejected(self, tmp_path, cut):
        index = _small_index()
        path = tmp_path / "cut.bmix"
        save_index(path, index)
        os.truncate(path, 30 if cut == "to_30_bytes" else path.stat().st_size - 5)
        with pytest.raises(ValueError, match="truncated"):
            load_index(path)

    @pytest.mark.parametrize("n_postings, n_tracks", [(1 << 40, 1), (1 << 61, 1), (3, (1 << 32) - 1)])
    def test_header_counts_beyond_file_rejected(self, tmp_path, n_postings, n_tracks):
        path = tmp_path / "forged.bmix"
        save_index(path, _small_index())
        raw = bytearray(path.read_bytes())
        raw[34:46] = struct.pack("<QI", n_postings, n_tracks)  # the header's last two fields
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"truncated index file .* claims {n_postings} postings and {n_tracks} tracks"):
            load_index(path)

    @pytest.mark.parametrize("version", [1, 3])
    def test_other_version_rejected(self, tmp_path, version):
        path = tmp_path / "old.bmix"
        save_index(path, _small_index())
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", version)
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"unsupported index version {version} in .*old.bmix.*reads version 2"):
            load_index(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            (slice(6, 8), 50),
            (slice(30, 34), 0),
            (slice(22, 26), 8000),
            (slice(26, 30), 441),
            (slice(8, 10), 51),
            (slice(30, 34), 751),
            (slice(12, 14), 0),
        ],
        ids=["n_lsh", "segment_frames", "sample_rate", "hop", "n_reliable", "segment_frames_751", "bands"],
    )
    def test_forged_geometry_rejected(self, tmp_path, field, value):
        path = tmp_path / "forged.bmix"
        save_index(path, _small_index())
        raw = bytearray(path.read_bytes())
        raw[field] = value.to_bytes(field.stop - field.start, "little")
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=r"unsupported index geometry in .*this build needs \(51, 10, 16, 5, 11025, 220, 752\)$"):
            load_index(path)

    @pytest.mark.parametrize("forgery", ["swapped_codes", "code_beyond_24_bits"])
    def test_forged_posting_codes_rejected(self, tmp_path, forgery):
        path = tmp_path / "forged.bmix"
        save_index(path, _small_index())
        raw = bytearray(path.read_bytes())
        first, second, last = slice(46, 50), slice(58, 62), slice(70, 74)  # codes of postings 0, 1 and 2
        if forgery == "swapped_codes":
            raw[first], raw[second] = raw[second], raw[first]
        else:
            raw[last] = struct.pack("<I", EXT_TABLE_SIZE)
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="posting codes are not sorted or not below"):
            load_index(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bmix"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError):
            load_index(path)
