import hashlib
import math
import os
import struct

import numpy as np
import pytest

from printdex import hashing
from printdex.hashing import (
    CODE_BITS,
    EXT_TABLE_SIZE,
    LSH_BITS,
    N_BANDS,
    N_LSH,
    CatalogIndex,
    HashTable,
    TrackInfo,
    binarize_bits,
    codes_from_bits,
    collision_mean,
    derive_codes,
    expected_unchanged,
    extended_code,
    load_index,
    make_lsh_spec,
    reliability_batch,
    save_index,
)

from reference import binarize, reliability, simulate_unchanged_codes, table_triples, unchanged_codes_exact_flips


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

    def test_cached_per_seed(self):
        spec = make_lsh_spec(1234)
        assert make_lsh_spec(1234) is spec and make_lsh_spec(1235) is not spec
        assert not spec.selections.flags.writeable

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
        assert np.all(codes_from_bits(np.zeros((1, CODE_BITS), dtype=np.uint8), spec) == 0)

    def test_all_ones_gamma(self):
        spec = make_lsh_spec(0)
        assert np.all(codes_from_bits(np.ones((1, CODE_BITS), dtype=np.uint8), spec) == 0xFFFF)

    def test_single_bit_flip_footprint(self):
        spec = make_lsh_spec(3)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, (1, CODE_BITS), dtype=np.uint8)
        base = codes_from_bits(bits, spec)[0]
        for bit in (0, 17, 39):
            flipped = codes_from_bits(bits ^ (np.arange(CODE_BITS) == bit), spec)[0]
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
                betas = codes_from_bits(binarize_bits(reduced[i, b]), spec)[0]
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
    """Brute-force lookup: the (track, time) of every stored (code, track, time) triple with this code."""
    triples = table_triples(table)
    return triples[triples[:, 0] == code][:, 1:]


def _records(postings) -> np.ndarray:
    """(n, 2) int64 (track, time) rows of lookup_many's records."""
    return np.stack([postings["track"], postings["time"]], axis=1).astype(np.int64).reshape(-1, 2)


class TestHashTable:
    def test_insert_lookup_singleton(self):
        t = HashTable()
        t.insert(7, [42], [[12345]])
        t.freeze()
        counts, postings = t.lookup_many([12345])
        assert counts.tolist() == [1]
        assert postings["track"][0] == 7 and postings["time"][0] == 42
        assert table_triples(t).tolist() == [[12345, 7, 42]]

    def test_absent_code_empty(self):
        t = HashTable()
        t.insert(1, [0], [[1]])
        t.freeze()
        counts, postings = t.lookup_many([2])  # same directory bucket as code 1
        assert counts.tolist() == [0] and len(postings) == 0

    def test_conservation(self):
        rng = np.random.default_rng(5)
        t = HashTable()
        codes = rng.integers(0, 1 << 24, (100, 10))
        t.insert(0, np.arange(100), codes)
        t.freeze()
        assert t.n_postings == 1000
        assert t.bucket_loads().sum() == 1000

    def test_bucket_loads_per_distinct_code(self):
        codes = np.random.default_rng(9).integers(0, 300, 800)
        t = HashTable()
        t.insert(0, np.arange(800), codes[:, None])
        t.freeze()
        assert np.array_equal(t.bucket_loads(), np.unique(codes, return_counts=True)[1])
        empty = HashTable()
        empty.freeze()
        assert len(empty.bucket_loads()) == 0

    def test_insert_after_freeze_rejected(self):
        t = HashTable()
        t.freeze()
        with pytest.raises(RuntimeError):
            t.insert(1, [0], [[1]])

    @pytest.mark.parametrize(
        "track, times",
        [(1 << 32, [0]), (-1, [0]), (1, [-1]), (1, [1 << 32])],
        ids=["track_over_u32", "track_negative", "time_negative", "time_over_u32"],
    )
    def test_out_of_range_posting_rejected(self, track, times):
        t = HashTable()
        with pytest.raises(ValueError, match=r"^track -?\d+ or one of its frames is outside the field's range \[0, 4294967295\]$"):
            t.insert(track, np.array(times), [[5]])

    def test_field_limits_stored_exactly(self, tmp_path):
        t = HashTable()
        top = (1 << 32) - 1
        t.insert(0, [top], [[6]])
        t.insert(top, [0, top], [[5], [5]])
        t.freeze()
        expected = [[5, top, 0], [5, top, top], [6, 0, top]]
        assert table_triples(t).tolist() == expected
        path = tmp_path / "limits.bmix"
        save_index(path, CatalogIndex(table=t, tracks={0: TrackInfo("a", 1.0), top: TrackInfo("b", 1.0)}, lsh_seed=0, model_sha256=DIGEST))
        assert table_triples(load_index(path).table).tolist() == expected

    def test_frozen_triples_are_sorted_inserts(self):
        """Print ids are the insert order; postings come out sorted by (code, track, time)."""
        rng = np.random.default_rng(4)
        t = HashTable()
        inserted, prints = [], []
        for track in (0, 3, 4, 8):
            frames = np.sort(rng.choice(60, size=12, replace=False))
            codes = np.concatenate((rng.integers(0, 200, (12, 4)), rng.integers(0, EXT_TABLE_SIZE, (12, 3))), axis=1)
            t.insert(track, frames[:5], codes[:5])  # one track's run may come in several inserts
            t.insert(track, frames[5:], codes[5:])
            prints += [(track, f) for f in frames]
            inserted += [(c, track, f) for f, row in zip(frames, codes) for c in row]
        t.freeze()
        assert t.prints.tolist() == prints
        inserted = np.array(inserted)
        assert np.array_equal(table_triples(t), inserted[np.lexsort(inserted.T[::-1])])

    def test_too_many_postings_rejected(self, monkeypatch):
        monkeypatch.setattr(hashing, "MAX_POSTINGS", 3)
        t = HashTable()
        t.insert(0, [0, 1, 2], [[1], [2], [3]])
        with pytest.raises(ValueError, match=r"^cannot index 4 postings: .* at most 3$"):
            t.insert(1, [0], [[4]])

    def test_too_many_prints_rejected(self, monkeypatch):
        """A print id must fit the posting's 26 bits; the rejected run leaves nothing behind."""
        monkeypatch.setattr(hashing, "MAX_PRINTS", 3)
        t = HashTable()
        t.insert(0, [0, 1], [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match=r"^cannot index 4 prints: a posting holds a 26-bit print id, so at most 3$"):
            t.insert(1, [0, 1], [[5], [6]])
        t.insert(1, [0], [[5]])
        t.freeze()
        assert len(t.prints) == 3 and t.n_postings == 5

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ((2, [0]), (1, [5]), r"print \(1, 5\) follows print \(2, 0\): insert each \(track, frame\) once, in increasing order"),
            ((2, [0, 4]), (2, [4]), r"print \(2, 4\) follows print \(2, 4\): insert each \(track, frame\) once, in increasing order"),
            ((2, [0]), (3, [7, 7]), "frames of track 3 do not rise strictly"),
            ((2, [0]), (3, [7, 6]), "frames of track 3 do not rise strictly"),
        ],
        ids=["track_out_of_order", "repeated_print", "repeated_frame", "falling_frames"],
    )
    def test_misordered_insert_rejected(self, first, second, message):
        t = HashTable()
        t.insert(first[0], first[1], np.ones((len(first[1]), 2), dtype=np.int64))
        with pytest.raises(ValueError, match=f"^{message}$"):
            t.insert(second[0], second[1], np.ones((len(second[1]), 2), dtype=np.int64))
        t.freeze()  # the rejected run left nothing behind
        assert t.prints.tolist() == [(first[0], f) for f in first[1]]
        assert t.n_postings == 2 * len(first[1])

    @pytest.mark.parametrize("codes", [np.ones(2, dtype=np.int64), np.ones((3, 2), dtype=np.int64), np.ones((2, 0), dtype=np.int64)])
    def test_codes_not_one_row_per_frame_rejected(self, codes):
        with pytest.raises(ValueError, match=r"^codes of track 1 must be one row of at least one code per frame, got \(\d+,( \d+)?\) for 2 frames$"):
            HashTable().insert(1, [3, 4], codes)

    def test_track_without_prints(self):
        """An empty run stores nothing and sets no order for the next."""
        t = HashTable()
        t.insert(9, [], np.empty((0, 10), dtype=np.int64))
        t.insert(4, [2], [[7]])
        t.freeze()
        assert table_triples(t).tolist() == [[7, 4, 2]]

    @pytest.mark.parametrize("codes", [[], [7], [0], [EXT_TABLE_SIZE - 1], [0, EXT_TABLE_SIZE - 1, 3, 3, 0], "random"])
    def test_offsets_match_searchsorted_oracle(self, codes):
        if codes == "random":
            codes = np.random.default_rng(8).integers(0, EXT_TABLE_SIZE, 2000)
        codes = np.asarray(codes, dtype=np.int64)
        t = HashTable()
        t.insert(0, np.arange(len(codes)), codes[:, None])
        t.freeze()
        oracle = np.searchsorted(np.sort(codes) >> 6, np.arange(2**18 + 1))
        assert t.offsets.dtype == np.uint32 and np.array_equal(t.offsets, oracle)

    @pytest.mark.parametrize("code", [-1, EXT_TABLE_SIZE])
    def test_out_of_range_code_rejected(self, code):
        t = HashTable()
        with pytest.raises(ValueError, match="extended code"):
            t.insert(1, [0], [[code]])

    def test_postings_sorted_within_bucket(self):
        t = HashTable()
        # codes in insert order 9, 5, 5, 4, 5, 5, 8: the sort brings code 5's four postings together
        t.insert(10, [1, 2], [[9, 5], [5, 4]])
        t.insert(20, [1], [[5]])
        t.insert(30, [3], [[5]])
        t.insert(40, [0], [[8]])
        t.freeze()
        _, postings = t.lookup_many([5])
        assert postings["track"].tolist() == [10, 10, 20, 30]
        assert postings["time"].tolist() == [1, 2, 1, 3]

    def test_lookup_many_matches_loop(self):
        rng = np.random.default_rng(6)
        t = HashTable()
        codes = rng.integers(0, 300, (4, 25, 5))  # about 100 codes per directory bucket
        for track in range(4):
            t.insert(track, np.sort(rng.choice(70, size=25, replace=False)), codes[track])
        t.freeze()
        queries = np.concatenate((rng.integers(0, 320, 50), [EXT_TABLE_SIZE - 1, 0, 0]))
        counts, postings = t.lookup_many(queries)
        records = _records(postings)
        at = 0
        for q, c in zip(queries, counts):
            single = _oracle(t, q)
            assert len(single) == c
            assert np.array_equal(records[at : at + c], single)
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

    @pytest.mark.parametrize("k, exact", [(1, 30.6), (5, 3.29), (9, 0.24)])
    def test_exact_flips_follow_exact_count(self, k, exact):
        """Exactly k flipped bits: 51 C(40-k, 16) / C(40, 16) codes survive, below the independence model."""
        count = N_LSH * math.comb(CODE_BITS - k, LSH_BITS) / math.comb(CODE_BITS, LSH_BITS)
        assert count == pytest.approx(exact, abs=0.005)
        assert count < expected_unchanged(k)
        # 0.1 is about 4 standard errors at k = 1 and a sixth of the gap to the independence model at k = 9
        assert abs(unchanged_codes_exact_flips(k, 40000, seed=100 + k) - count) < 0.1


DIGEST = hashlib.sha256(b"a model file").hexdigest()
HEADER_BYTES = 86
POSTINGS_AT = HEADER_BYTES + 4 * (2**18 + 1)  # after the header and the directory


def _small_index(tracks=None):
    """Codes 3, 1, 2 of prints (1, 5), (2, 6), (3, 7): postings (low, print) (1, 1), (2, 2), (3, 0), all in bucket 0.

    Each posting is the u32 ``low << 26 | print``.
    """
    t = HashTable()
    for track, frame, code in ((1, 5, 3), (2, 6, 1), (3, 7, 2)):
        t.insert(track, [frame], [[code]])
    t.freeze()
    if tracks is None:
        tracks = {1: TrackInfo("x", 1.0), 2: TrackInfo("y", 1.0), 3: TrackInfo("z", 1.0)}
    return CatalogIndex(table=t, tracks=tracks, lsh_seed=0, model_sha256=DIGEST)


def _forge(tmp_path, edit, index=None) -> str:
    """Save ``index`` (default: the small one), apply ``edit`` to its bytes, and return the path."""
    path = tmp_path / "forged.bmix"
    save_index(path, index or _small_index())
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(raw)
    return path


class TestIndexFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        t = HashTable()
        for track in range(1, 50):
            frames = np.sort(rng.choice(1500, size=rng.integers(0, 8), replace=False))
            t.insert(track, frames, rng.integers(0, 1 << 24, (len(frames), 10)))
        t.freeze()
        tracks = {tid: TrackInfo(f"t{tid}", 30.0) for tid in range(1, 50)}
        tracks[2] = TrackInfo("two", 29.5)
        index = CatalogIndex(table=t, tracks=tracks, lsh_seed=99, model_sha256=DIGEST)
        path = tmp_path / "i.bmix"
        save_index(path, index)
        back = load_index(path)
        assert np.array_equal(back.table.offsets, t.offsets)
        assert back.table.postings.tobytes() == t.postings.tobytes()
        assert back.table.prints.tobytes() == t.prints.tobytes()
        assert np.array_equal(table_triples(back.table), table_triples(t))
        assert back.tracks[2].name == "two"
        assert back.tracks[2].duration == 29.5
        assert back.lsh_seed == 99
        assert back.model_sha256 == DIGEST
        assert np.array_equal(back.spec.selections, make_lsh_spec(99).selections)

    def test_file_sized_by_postings(self, tmp_path):
        """Header, directory, 4 bytes per posting, 8 per print, then the track records."""
        path = tmp_path / "i.bmix"
        save_index(path, _small_index())
        assert path.stat().st_size == HEADER_BYTES + 4 * (2**18 + 1) + 4 * 3 + 8 * 3 + 3 * (14 + 1)
        raw = path.read_bytes()
        assert struct.unpack_from("<3I", raw, POSTINGS_AT) == (1 << 26 | 1, 2 << 26 | 2, 3 << 26 | 0)

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
        def edit(raw):
            raw[34:42] = struct.pack("<Q", n_postings)
            raw[50:54] = struct.pack("<I", n_tracks)

        path = _forge(tmp_path, edit)
        with pytest.raises(ValueError, match=f"truncated index file .* claims {n_postings} postings, 3 prints and {n_tracks} tracks"):
            load_index(path)

    @pytest.mark.parametrize("n_prints", [1 << 40, 1 << 61])
    def test_header_print_count_beyond_file_rejected(self, tmp_path, n_prints):
        path = _forge(tmp_path, lambda raw: raw.__setitem__(slice(42, 50), struct.pack("<Q", n_prints)))
        with pytest.raises(ValueError, match=f"^truncated index file .* claims 3 postings, {n_prints} prints and 3 tracks"):
            load_index(path)

    @pytest.mark.parametrize("version", [1, 3])
    def test_other_version_rejected(self, tmp_path, version):
        path = _forge(tmp_path, lambda raw: raw.__setitem__(slice(4, 6), struct.pack("<H", version)))
        with pytest.raises(
            ValueError, match=rf"^unsupported index version {version} in .*forged.bmix.*reads version 4; rebuild the index with `printdex index`$"
        ):
            load_index(path)

    def test_version_3_file_rejected(self, tmp_path):
        """A whole version-3 file (5-byte postings: the low code bits as u8, then the print as u32) fails on its version."""

        def edit(raw):
            raw[4:6] = struct.pack("<H", 3)
            words = struct.unpack_from("<3I", raw, POSTINGS_AT)
            raw[POSTINGS_AT : POSTINGS_AT + 12] = b"".join(struct.pack("<BI", w >> 26, w & (2**26 - 1)) for w in words)

        with pytest.raises(ValueError, match=r"^unsupported index version 3 .*rebuild the index with `printdex index`$"):
            load_index(_forge(tmp_path, edit))

    def test_version_2_file_rejected(self, tmp_path):
        """A whole version-2 file (46-byte header, 12-byte postings) fails on its version, not as truncated."""
        path = tmp_path / "v2.bmix"
        header = struct.pack("<HHHHHQIIIQI", 2, 51, 10, 16, 5, 0, 11025, 220, 752, 1, 1)
        path.write_bytes(b"BMIX" + header + struct.pack("<III", 7, 1, 5) + struct.pack("<IdH", 1, 1.0, 1) + b"x")
        with pytest.raises(ValueError, match=r"^unsupported index version 2 .*rebuild the index with `printdex index`$"):
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
        path = _forge(tmp_path, lambda raw: raw.__setitem__(field, value.to_bytes(field.stop - field.start, "little")))
        with pytest.raises(ValueError, match=r"unsupported index geometry in .*this build needs \(51, 10, 16, 5, 11025, 220, 752\)$"):
            load_index(path)

    @pytest.mark.parametrize(
        "forgery, message",
        [
            ("swapped_codes", r"postings are not sorted by \(code, print\)"),
            ("swapped_prints", r"postings are not sorted by \(code, print\)"),
            ("print_id_out_of_range", "a posting names print 3 of 3"),
        ],
        ids=["swapped_codes", "swapped_prints", "print_id_out_of_range"],
    )
    def test_forged_posting_codes_rejected(self, tmp_path, forgery, message):
        first, second = (slice(POSTINGS_AT + 4 * i, POSTINGS_AT + 4 * i + 4) for i in range(2))

        def edit(raw):
            if forgery == "swapped_codes":
                raw[first], raw[second] = raw[second], raw[first]
            elif forgery == "swapped_prints":  # same low bits, prints 2 then 1
                raw[first] = struct.pack("<I", 1 << 26 | 2)
                raw[second] = struct.pack("<I", 1 << 26 | 1)
            else:  # low bits 1, print 3
                raw[first] = struct.pack("<I", 1 << 26 | 3)

        with pytest.raises(ValueError, match=rf"^corrupt index file .*forged.bmix.*: {message}$"):
            load_index(_forge(tmp_path, edit))

    @pytest.mark.parametrize("entry, value", [(0, 1), (2**18, 2), (2, 1)], ids=["start_not_0", "end_not_postings", "decreasing"])
    def test_forged_directory_rejected(self, tmp_path, entry, value):
        at = HEADER_BYTES + 4 * entry
        path = _forge(tmp_path, lambda raw: raw.__setitem__(slice(at, at + 4), struct.pack("<I", value)))
        with pytest.raises(ValueError, match=r"^corrupt index file .*: the directory does not rise from 0 to the posting count 3$"):
            load_index(path)

    @pytest.mark.parametrize("row", [b"\x01\x00\x00\x00\x05\x00\x00\x00", b"\x01\x00\x00\x00\x04\x00\x00\x00"], ids=["repeated", "decreasing"])
    def test_forged_print_table_rejected(self, tmp_path, row):
        """Print 1, (2, 6), becomes (1, 5), a copy of print 0, or (1, 4), below it."""
        at = POSTINGS_AT + 4 * 3 + 8
        path = _forge(tmp_path, lambda raw: raw.__setitem__(slice(at, at + 8), row))
        with pytest.raises(ValueError, match=r"^corrupt index file .*: prints are not strictly increasing by \(track, time\)$"):
            load_index(path)

    def test_print_without_track_record_rejected(self, tmp_path):
        path = tmp_path / "i.bmix"
        save_index(path, _small_index({1: TrackInfo("x", 1.0), 2: TrackInfo("y", 1.0), 4: TrackInfo("w", 1.0)}))
        with pytest.raises(ValueError, match=r"^corrupt index file .*: track 3 has prints but no track record$"):
            load_index(path)

    def test_repeated_track_id_rejected(self, tmp_path):
        """A second record for track 1 would rename it and leave track 2's prints without a record."""
        second = POSTINGS_AT + 4 * 3 + 8 * 3 + 14 + len("x")  # track 1's record comes first

        def edit(raw):
            assert struct.unpack_from("<I", raw, second) == (2,)
            raw[second : second + 4] = struct.pack("<I", 1)

        with pytest.raises(ValueError, match=r"^corrupt index file .*forged.bmix.*: track id 1 is recorded twice$"):
            load_index(_forge(tmp_path, edit))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bmix"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError):
            load_index(path)
