import numpy as np
import pytest

from printdex import pipeline, search
from printdex.degrade import apply as apply_degradation
from printdex.degrade import parse_spec
from printdex.hashing import (
    N_LSH,
    N_RELIABLE,
    CatalogIndex,
    HashTable,
    TrackInfo,
    codes_from_bits,
    extended_code,
    load_index,
    make_lsh_spec,
    save_index,
)
from printdex.prints import N_BANDS
from printdex.reduction import ReductionModel
from printdex.search import (
    MatchHistogram,
    cone_weights,
    count_matches,
    query_codes,
    query_index,
    refine_alignment,
    select_candidates,
    time_coherence,
)

FRAME_PERIOD = 220 / 11025
F_A = 4.0  # analysis times per second in the synthetic index


def _synthetic_index(track_gammas, duration_s=30.0, seed=42, n_bands=5):
    """Index of random 40-bit codes: track_gammas[track][time_idx][band]."""
    spec = make_lsh_spec(seed)
    rng = np.random.default_rng(seed + 1)
    table = HashTable()
    tracks = {}
    for track_id, gammas in track_gammas.items():
        n_times = gammas.shape[0]
        frames = np.round(np.linspace(0.1, duration_s - 0.1, n_times) / FRAME_PERIOD).astype(np.int64)
        for ti in range(n_times):
            for b in range(n_bands):
                bits = ((gammas[ti, b] >> np.arange(40, dtype=np.uint64)) & 1).astype(np.uint8)
                betas = codes_from_bits(bits[None, :], spec)[0]
                chosen = np.sort(rng.choice(N_LSH, size=N_RELIABLE, replace=False))
                codes = extended_code(b, chosen, betas[chosen])
                table.insert(codes, np.full(N_RELIABLE, track_id), np.full(N_RELIABLE, frames[ti]))
        tracks[track_id] = TrackInfo(f"t{track_id}", duration_s)
    table.freeze()
    return CatalogIndex(table=table, tracks=tracks, lsh_seed=seed)


def _query_codes_for(gammas, spec, times):
    codes, qtimes = [], []
    for ti in range(gammas.shape[0]):
        for b in range(gammas.shape[1]):
            bits = ((gammas[ti, b] >> np.arange(40, dtype=np.uint64)) & 1).astype(np.uint8)
            betas = codes_from_bits(bits[None, :], spec)[0]
            codes.append(extended_code(b, np.arange(N_LSH), betas))
            qtimes.append(np.full(N_LSH, times[ti]))
    return np.concatenate(codes), np.concatenate(qtimes)


class TestCountMatches:
    def test_verbatim_self_retrieval_and_ideal_count(self):
        rng = np.random.default_rng(0)
        duration = 30.0
        n_times = int(duration * F_A)
        gammas = {tid: rng.integers(0, 1 << 40, size=(n_times, 5), dtype=np.uint64) for tid in (1, 2, 3)}
        index = _synthetic_index(gammas)
        times = np.linspace(0.1, duration - 0.1, n_times)
        codes, qtimes = _query_codes_for(gammas[2], index.spec, times)
        hist = count_matches(codes, qtimes, index, duration)
        assert hist.track_ids[0] == 2
        # every stored posting of track 2 is matched: distinct count is exact
        mask = hist.match_track == 2
        distinct = len(set(zip(hist.match_t[mask].tolist(), hist.match_tau[mask].tolist())))
        assert hist.count_for(2) >= n_times * 5 * 10
        own = index.table.postings["track"] == 2
        assert int(own.sum()) == n_times * 5 * 10

    def test_empty_table(self):
        index = _synthetic_index({1: np.random.default_rng(1).integers(0, 1 << 40, (4, 5), dtype=np.uint64)})
        codes = np.array([123, 456])
        hist = count_matches(codes, np.array([0.0, 1.0]), index, 7.0)
        assert hist.count_for(99) == 0

    def test_25_minute_posting_roundtrips_into_its_segment(self, tmp_path):
        segment_frames = int(round(15.0 / FRAME_PERIOD))
        segment_start = 75000 // segment_frames * segment_frames
        table = HashTable()
        # frame 75 000 and the first frame of its segment, then the frame before that segment
        table.insert([9, 9, 9], [1, 1, 1], [75000, segment_start, segment_start - 1])
        table.freeze()
        index = CatalogIndex(table=table, tracks={1: TrackInfo("long", 1500.0)}, lsh_seed=0)
        save_index(tmp_path / "long.bmix", index)
        back = load_index(tmp_path / "long.bmix")
        assert back.table.postings.tobytes() == table.postings.tobytes()
        assert back.table.postings["time"].max() == 75000
        hist = count_matches(np.array([9]), np.array([0.0]), back, 0.0)  # a zero-length query's window is one segment
        assert hist.count_for(1) == 2
        assert 75000 * FRAME_PERIOD in hist.match_t.tolist()

    def test_empty_query_rejected(self):
        index = _synthetic_index({1: np.random.default_rng(2).integers(0, 1 << 40, (4, 5), dtype=np.uint64)})
        with pytest.raises(ValueError):
            count_matches(np.array([]), np.array([]), index, 7.0)

    def test_collision_model_short_sim(self):
        """Unrelated 30 s query vs 30 s reference: mean collisions near 10.98."""
        rng = np.random.default_rng(3)
        total = 0
        trials = 60
        for _ in range(trials):
            ref = rng.integers(0, 1 << 40, size=(120, 5), dtype=np.uint64)
            qry = rng.integers(0, 1 << 40, size=(120, 5), dtype=np.uint64)
            index = _synthetic_index({1: ref}, seed=int(rng.integers(1 << 30)))
            codes, qtimes = _query_codes_for(qry, index.spec, np.linspace(0, 29.9, 120))
            counts, _ = index.table.lookup_many(codes)
            total += counts.sum()
        mean = total / trials
        assert abs(mean - 10.98) / 10.98 < 0.25  # short run; acceptance uses 200 trials

    def test_collision_scaling_linear_in_reference_duration(self):
        rng = np.random.default_rng(4)
        means = []
        durations = (15.0, 30.0, 60.0)
        for d_r in durations:
            total = 0
            trials = 40
            for _ in range(trials):
                ref = rng.integers(0, 1 << 40, size=(int(d_r * F_A), 5), dtype=np.uint64)
                qry = rng.integers(0, 1 << 40, size=(120, 5), dtype=np.uint64)
                index = _synthetic_index({1: ref}, duration_s=d_r, seed=int(rng.integers(1 << 30)))
                codes, qtimes = _query_codes_for(qry, index.spec, np.linspace(0, 29.9, 120))
                counts, _ = index.table.lookup_many(codes)
                total += counts.sum()
            means.append(total / trials)
        predicted_slope = 30.0 * F_A**2 * 10 * 5 / 65536.0
        slope = np.polyfit(durations, means, 1)[0]
        assert abs(slope - predicted_slope) / predicted_slope < 0.20


class TestSelectCandidates:
    def _hist(self, ids, counts):
        return MatchHistogram(
            track_ids=np.array(ids), counts=np.array(counts),
            match_track=np.array([]), match_t=np.array([]), match_tau=np.array([]),
        )

    def test_rule_with_padding(self):
        hist = self._hist([10, 20, 30], [100, 60, 49])
        assert select_candidates(hist).tolist() == [10, 20, 30]  # padded to pool size

    def test_rule_without_padding_needed(self):
        ids = list(range(1, 31))
        counts = [1000] + [600] * 10 + [400] * 19
        hist = self._hist(ids, counts)
        chosen = select_candidates(hist)
        assert len(chosen) == 11  # N_i >= N_1/2 rule exceeds the minimum

    def test_cap_at_500(self):
        ids = list(range(600))
        hist = self._hist(ids, [50] * 600)
        assert len(select_candidates(hist)) == 500

    def test_single_track(self):
        hist = self._hist([7], [3])
        assert select_candidates(hist).tolist() == [7]

    def test_all_zero_empty(self):
        hist = self._hist([1, 2], [0, 0])
        assert len(select_candidates(hist)) == 0


def _cone_oracle(t, tau, alpha):
    """Brute force over every pair of matches: 1 + later matches inside the cone."""
    t = np.asarray(t, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    oracle = np.ones(len(t))
    for i in range(len(t)):
        later = t > t[i]
        slope = (tau[later] - tau[i]) / (t[later] - t[i])
        oracle[i] += np.count_nonzero((1 / alpha <= slope) & (slope <= alpha))
    return oracle


class TestConeWeights:
    def test_unit_slope_line(self):
        for n in (10, 34, 98):
            t = np.arange(n, dtype=float)
            tau = t - 5.0
            w = cone_weights(t, tau, 1.2)
            assert np.array_equal(w, np.arange(n, 0, -1))

    def test_negative_slope_excluded(self):
        t = np.arange(8, dtype=float)
        tau = -t + 3.0
        assert np.array_equal(cone_weights(t, tau, 1.3), np.ones(8))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        frame = 220 / 11025
        cases = [(rng.uniform(0, 30, 200), rng.uniform(0, 30, 200), 1.3) for _ in range(5)]
        # frame-grid times with many equal t and equal tau values
        cases += [(rng.integers(0, 25, 150) * frame, rng.integers(0, 25, 150) * frame, alpha) for alpha in (1.3, 1.4)]
        # exact 5:7 and 7:5 frame slopes sit on the cone's edges at alpha_max = 1.4
        steps = np.arange(12)
        edge_t = np.concatenate([7 * steps, 5 * steps, 7 * steps]) * frame
        edge_tau = np.concatenate([5 * steps, 7 * steps, 7 * steps + 3]) * frame
        cases.append((edge_t, edge_tau, 1.4))
        # sizes straddling the row block
        cases += [(rng.integers(0, 40, n) * frame, rng.uniform(0, 1, n), 1.4) for n in (1, 31, 32, 33, 65)]
        # as one anchor pair's codes give them: every point of a frame grid 1-40 times, shuffled
        grid_t, grid_tau = (g.ravel() * frame for g in np.meshgrid(np.arange(0, 60, 5), np.arange(0, 60, 5)))
        copies = rng.integers(1, 41, len(grid_t))
        order = rng.permutation(copies.sum())
        cases += [(np.repeat(grid_t, copies)[order], np.repeat(grid_tau, copies)[order], alpha) for alpha in (1.3, 1.4)]
        # points that share t but differ in tau
        shared_t = np.repeat(rng.integers(0, 6, 40), rng.integers(1, 5, 40)) * frame
        cases.append((shared_t, rng.integers(0, 8, len(shared_t)) * frame, 1.4))
        # the 5:7 edge slopes again, each point repeated
        edge_copies = rng.integers(1, 10, len(edge_t))
        order = rng.permutation(edge_copies.sum())
        cases.append((np.repeat(edge_t, edge_copies)[order], np.repeat(edge_tau, edge_copies)[order], 1.4))
        # one point, many times
        cases.append((np.full(70, 3 * frame), np.full(70, frame), 1.4))
        for t, tau, alpha in cases:
            assert np.array_equal(cone_weights(t, tau, alpha), _cone_oracle(t, tau, alpha))

    def test_empty_input(self):
        w = cone_weights(np.array([]), np.array([]), 1.4)
        assert w.shape == (0,) and w.dtype == np.float64

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            cone_weights(np.zeros(2), np.zeros(2), 1.0)


def _coherence_oracle(t, tau, weights, sigma):
    """Independent O(n + bins) path: sorted offsets with prefix sums."""
    u = t - tau
    bins = np.floor(u / sigma).astype(np.int64)
    lo, hi = bins.min(), bins.max()
    best_score, best_bin = -1.0, 0
    for b in range(lo, hi + 1):
        mass = weights[(bins >= b - 1) & (bins <= b + 1)].sum()
        if mass > best_score:
            best_score, best_bin = mass, b
    return best_score, (best_bin + 0.5) * sigma


class TestTimeCoherence:
    def test_exact_line(self):
        t = np.linspace(0, 10, 20)
        tau = t - 5.0
        w = np.ones(20)
        score, delta = time_coherence(t, tau, w, 0.1)
        assert score == 20.0
        assert abs(delta - 5.0) <= 0.1

    def test_empty(self):
        assert time_coherence(np.array([]), np.array([]), np.array([]), 0.25) == (0.0, 0.0)

    def test_matches_oracle_on_random_sets(self):
        # integer-valued weights (as cone weighting produces): sums are exact
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(5, 300))
            t = rng.uniform(0, 40, n)
            tau = rng.uniform(0, 10, n)
            w = rng.integers(1, 6, n).astype(float)
            score, delta = time_coherence(t, tau, w, 0.25)
            o_score, o_delta = _coherence_oracle(t, tau, w, 0.25)
            assert score == o_score
            assert delta == o_delta

    def test_matches_oracle_with_float_weights(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(5, 200))
            t = rng.uniform(0, 40, n)
            tau = rng.uniform(0, 10, n)
            w = rng.uniform(0.5, 3.0, n)
            score, delta = time_coherence(t, tau, w, 0.25)
            o_score, o_delta = _coherence_oracle(t, tau, w, 0.25)
            assert score == pytest.approx(o_score, rel=1e-12)
            assert delta == o_delta

    def test_cone_weights_rescue_stretched_line(self):
        """Out-of-window collinear pairs still contribute via the weights."""
        t = np.linspace(0, 12, 25)
        tau = 1.3 * t - 2.0
        w = cone_weights(t, tau, 1.4)
        sigma = 0.1
        weighted_score, _ = time_coherence(t, tau, w, sigma)
        unweighted_score, _ = time_coherence(t, tau, np.ones(25), sigma)
        assert weighted_score > unweighted_score

    def test_cone_weighting_keeps_argmax_on_unstretched_data(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0, 10, 30)
        tau = t - 4.0
        outliers_t = rng.uniform(0, 10, 10)
        outliers_tau = rng.uniform(0, 10, 10)
        t_all = np.concatenate([t, outliers_t])
        tau_all = np.concatenate([tau, outliers_tau])
        w = cone_weights(t_all, tau_all, 1.4)
        _, delta_w = time_coherence(t_all, tau_all, w, 0.25)
        _, delta_u = time_coherence(t_all, tau_all, np.ones(40), 0.25)
        assert delta_w == delta_u


class TestRefineAlignment:
    def test_exact_unit_line(self):
        t = np.linspace(0, 10, 30)
        tau = t - 5.0
        alpha, delta, n_in, low = refine_alignment(t, tau, 5.0, 0.25, 1.4)
        assert abs(alpha - 1.0) < 1e-9
        assert abs(delta - 5.0) < 1e-9
        assert n_in == 30 and not low

    def test_stretched_line_recovered(self):
        t = np.linspace(0, 12, 40)
        tau = 1.3 * t - 2.0
        w = cone_weights(t, tau, 1.4)
        score, delta0 = time_coherence(t, tau, w, 0.25)
        alpha, delta, n_in, low = refine_alignment(t, tau, delta0, 0.25, 1.4)
        assert abs(alpha - 1.3) <= 0.02
        assert abs(delta - 2.0) <= 0.1
        assert not low

    def test_outliers_tolerated(self):
        rng = np.random.default_rng(8)
        t_line = np.linspace(0, 12, 70)
        tau_line = 1.3 * t_line - 2.0
        t_out = rng.uniform(0, 12, 30)
        tau_out = rng.uniform(tau_line.min(), tau_line.max(), 30)
        t = np.concatenate([t_line, t_out])
        tau = np.concatenate([tau_line, tau_out])
        w = cone_weights(t, tau, 1.4)
        _, delta0 = time_coherence(t, tau, w, 0.25)
        alpha, delta, n_in, low = refine_alignment(t, tau, delta0, 0.25, 1.4, weights=w)
        assert abs(alpha - 1.3) <= 0.05

    def test_too_few_inliers_flagged(self):
        alpha, delta, n_in, low = refine_alignment(np.array([1.0]), np.array([0.5]), 99.0, 0.1, 1.4)
        assert low and alpha == 1.0 and delta == 99.0

    def test_alpha_clamped(self):
        t = np.linspace(0, 5, 20)
        tau = 2.5 * t - 1.0  # stretch beyond alpha_max
        alpha, *_ = refine_alignment(t, tau, float(np.median(t - tau)), 3.0, 1.4)
        alpha2, *_ = refine_alignment(t, tau, float(np.median(t - tau)), 3.0, 1.2)
        assert alpha <= 1.4 + 1e-12
        assert alpha2 <= 1.2 + 1e-12


class TestQueryIndex:
    def test_clean_self_query(self, small_setup):
        s = small_setup
        buf = pipeline.load_track(s.entries[5])
        excerpt = pipeline.cut_excerpt(buf, 4.0, 7.0)
        res = query_index(excerpt, s.index, s.model)
        assert res.step1_ranking[0] == s.entries[5].track_id
        assert res.best.track_id == s.entries[5].track_id
        assert abs(res.best.alpha - 1.0) < 0.05
        assert abs(res.best.delta_t_star - 4.0) < 0.5
        assert not res.no_match

    def test_step2_top_equals_step1_on_clean_self_queries(self, small_setup):
        s = small_setup
        for i in (0, 3, 7, 11):
            buf = pipeline.load_track(s.entries[i])
            excerpt = pipeline.cut_excerpt(buf, 6.0, 7.0)
            res = query_index(excerpt, s.index, s.model)
            assert res.step1_ranking[0] == s.entries[i].track_id
            assert res.best.track_id == s.entries[i].track_id

    def test_unrelated_query_no_match(self, small_setup):
        import corpus

        s = small_setup
        scores = []
        for seed in range(5):
            un = corpus.synth_track(5_000_000 + seed, duration_s=7.0)
            res = query_index(un, s.index, s.model)
            assert res.no_match
            scores.append(res.best.coherence_score if res.best else 0.0)
        assert max(scores) < 30  # far below genuine-match scores

    def test_offset_recovered_mid_track(self, small_setup):
        s = small_setup
        buf = pipeline.load_track(s.entries[2])
        excerpt = pipeline.cut_excerpt(buf, 10.0, 7.0)
        res = query_index(excerpt, s.index, s.model)
        assert res.best.track_id == s.entries[2].track_id
        assert abs(res.best.delta_t_star - 10.0) <= 0.5

    def test_same_results_with_bruteforce_cone_weights(self, small_setup, monkeypatch):
        import corpus

        s = small_setup
        clean = [pipeline.cut_excerpt(pipeline.load_track(s.entries[i]), start, 7.0) for i, start in ((1, 2.0), (4, 9.0))]
        excerpts = clean + [
            apply_degradation(parse_spec("time_stretch:cents=30", seed=2), clean[0]),
            apply_degradation(parse_spec("white_noise:snr_db=6", seed=3), clean[1]),
            corpus.synth_track(5_000_100, duration_s=7.0),
        ]
        fast = [query_index(x, s.index, s.model) for x in excerpts]
        repeated_points = []

        def oracle(t, tau, alpha_max):
            repeated_points.append(len(set(zip(t.tolist(), tau.tolist()))) < len(t))
            return _cone_oracle(t, tau, alpha_max)

        monkeypatch.setattr(search, "cone_weights", oracle)
        slow = [query_index(x, s.index, s.model) for x in excerpts]
        assert any(repeated_points)
        assert [r.no_match for r in fast] == [False, False, False, False, True]
        for a, b in zip(fast, slow):
            # SearchResult equality covers track, STEP 1 count, score, alpha, delta*, inliers and low confidence
            assert a.results == b.results
            assert np.array_equal(a.step1_ranking, b.step1_ranking)
            assert a.no_match == b.no_match

    def test_short_excerpt_rejected(self, small_setup):
        s = small_setup
        buf = pipeline.load_track(s.entries[0])
        with pytest.raises(ValueError):
            query_index(pipeline.cut_excerpt(buf, 0.0, 2.0), s.index, s.model)

    def test_model_with_other_band_count_rejected(self, small_setup):
        s = small_setup
        four_bands = ReductionModel(bands=s.model.bands[:4], in_dim=s.model.in_dim, out_dim=s.model.out_dim)
        buf = pipeline.load_track(s.entries[0])
        with pytest.raises(ValueError, match=r"^model has 4 bands but the index has 5$"):
            query_index(buf, s.index, four_bands)

    def test_degraded_query_still_found(self, small_setup):
        s = small_setup
        buf = pipeline.load_track(s.entries[9])
        excerpt = pipeline.cut_excerpt(buf, 3.0, 7.0)
        noisy = apply_degradation(parse_spec("white_noise:snr_db=6", seed=1), excerpt)
        res = query_index(noisy, s.index, s.model)
        assert res.best.track_id == s.entries[9].track_id

    def test_index_postings_among_query_codes_at_same_anchor(self, small_setup):
        s = small_setup
        entry = s.entries[3]
        codes, times, n_prints, _ = query_codes(pipeline.load_track(entry), s.index, s.model)
        counts, postings = s.index.table.lookup_many(codes)
        frames = np.repeat(np.rint(times / FRAME_PERIOD).astype(np.int64), counts)
        same_anchor = (postings["track"] == entry.track_id) & (postings["time"] == frames)
        per_print = N_BANDS * N_RELIABLE
        assert np.count_nonzero(s.index.table.postings["track"] == entry.track_id) == n_prints * per_print
        assert np.count_nonzero(same_anchor) == n_prints * per_print
