"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale fixture
(112 tracks x 30 s, trained model, index, 200 queries) is built once per
session; the full suite is sized for a laptop-class machine.
"""

import time

import numpy as np
import pytest
import scipy.signal

from corpus import build_corpus, synth_track
from reference import apply_chain, simulate_unchanged_codes
from stft_oracle import dft2_magnitude, loglog_convert, modify_amplitudes

from printdex import degrade, pipeline
from printdex.audio import stft
from printdex.cli import main as cli_main
from printdex.degrade import parse_spec
from printdex.hashing import (
    EXT_TABLE_SIZE,
    N_LSH,
    N_RELIABLE,
    collision_mean,
    expected_unchanged,
    make_lsh_spec,
)
from printdex.prints import F_MAX, F_MIN, N_BANDS, N_LOGFREQ, SEGMENT_FRAMES, frequency_map
from printdex.reduction import (
    BandChain,
    ReductionModel,
    compose_final,
    fit_ica,
    fit_iccr,
    fit_ompca,
    hadamard_matrix,
    reduce_prints,
)
from printdex.search import ALPHA_MAX, SIGMA, cone_weights, refine_alignment, time_coherence

pytestmark = pytest.mark.acceptance


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


class TestCriterion1LshStatistics:
    def test_lsh_statistics(self):
        start = time.monotonic()
        table = {1: 34.0, 5: 6.02, 9: 0.86}
        details = []
        ok = True
        for k in range(1, 11):
            mc = simulate_unchanged_codes(k, 100_000, seed=1000 + k)
            expected = expected_unchanged(k)
            rel = abs(mc - expected) / expected
            ok &= rel < 0.03
            details.append(f"k={k}: mc={mc:.3f} mu={expected:.3f} rel={rel:.3%}")
        for k, ref in table.items():
            ok &= abs(expected_unchanged(k) - ref) / ref < 0.005
        ok &= collision_mean() == 51 / 65536
        ok &= expected_unchanged(20) / collision_mean() == 1.0
        runtime = time.monotonic() - start
        ok &= runtime < 10.0
        _report("LSH statistics (Monte-Carlo vs Table values)", ok, f"runtime {runtime:.1f}s; " + "; ".join(details[:3]))


class TestCriterion2CollisionModel:
    def test_collision_model(self):
        start = time.monotonic()
        rng = np.random.default_rng(77)
        d_r = d_e = 30.0
        f_a, l_prime, n_b = 4.0, 10, 5
        n_ref = int(d_r * f_a)
        n_qry = int(d_e * f_a)
        total = 0
        trials = 200
        for _ in range(trials):
            # reference: 10 of 51 selections per (time, band), random 16-bit codes
            ref_slots = np.concatenate([b * N_LSH + np.sort(rng.choice(N_LSH, l_prime, replace=False)) for _ in range(n_ref) for b in range(n_b)])
            ref_codes = (ref_slots.astype(np.uint32) << 16) | rng.integers(0, 1 << 16, len(ref_slots), dtype=np.uint32)
            ref_sorted = np.sort(ref_codes)
            # query: all 51 selections per (time, band)
            qry_slots = np.tile(np.arange(n_b * N_LSH, dtype=np.uint32), n_qry)
            qry_codes = (qry_slots << 16) | rng.integers(0, 1 << 16, len(qry_slots), dtype=np.uint32)
            left = np.searchsorted(ref_sorted, qry_codes, side="left")
            right = np.searchsorted(ref_sorted, qry_codes, side="right")
            total += int((right - left).sum())
        mean = total / trials
        predicted = d_r * d_e * f_a**2 * l_prime * n_b / 2**16
        rel = abs(mean - predicted) / predicted
        runtime = time.monotonic() - start
        ok = rel < 0.15 and runtime < 60.0
        _report("Collision model (Eq. prediction 10.98)", ok, f"mean={mean:.2f} predicted={predicted:.2f} rel={rel:.2%} runtime={runtime:.1f}s")


class TestCriterion3AlgebraicInvariants:
    def test_algebraic_invariants(self):
        rng = np.random.default_rng(99)
        ok = True
        details = []
        # Hadamard exact orthogonality at K in {4, 40} (integer arithmetic)
        for k in (4, 40):
            h_int = (hadamard_matrix(k) * np.sqrt(k)).round().astype(np.int64)
            ok &= np.array_equal(h_int @ h_int.T, k * np.eye(k, dtype=np.int64))
        details.append("hadamard exact")
        # OMPCA row Gram and Rayleigh monotonicity
        pos = rng.standard_normal((20, 4000)) * rng.uniform(0.3, 1.5, (20, 1))
        neg = rng.standard_normal((20, 4000)) * rng.uniform(0.5, 3.0, (20, 1))
        p, q = fit_ompca(pos, neg, 12)
        gram_err = np.abs(p @ p.T - np.eye(12)).max()
        ok &= gram_err < 1e-8
        ok &= np.all(np.diff(q) <= q[:-1] * 1e-6 + 1e-12)
        details.append(f"ompca gram {gram_err:.1e}")
        # ICA output covariance
        z = rng.uniform(-1, 1, (10, 8000)) * rng.uniform(0.5, 2.0, (10, 1))
        mix = rng.standard_normal((10, 10))
        p_ica, t_ica, _ = fit_ica(mix @ z, seed=7)
        y = p_ica @ (mix @ z) + t_ica[:, None]
        cov_err = np.abs(np.cov(y, ddof=1) - np.eye(10)).max()
        ok &= cov_err <= 0.05
        details.append(f"ica cov dev {cov_err:.3f}")
        # ICCR duplicate detection, 50 fixtures
        hits = 0
        for trial in range(50):
            r = np.random.default_rng(500 + trial)
            dim = int(r.integers(20, 80))
            x = r.standard_normal((dim, 6 * dim))
            i, j = r.choice(dim, 2, replace=False)
            x[i] = x[j]
            _, j0 = fit_iccr(x)
            hits += j0 == dim - 1
        ok &= hits == 50
        details.append(f"iccr {hits}/50")
        # compose_final equals chained application on 1000 vectors
        chain = _fitted_chain(rng)
        x = rng.standard_normal((chain.p_iccr.shape[1], 1000))
        direct = apply_chain(chain, x)
        fact = chain.p_final @ x + chain.t_final[:, None]
        comp_err = np.abs(direct - fact).max() / max(np.abs(direct).max(), 1.0)
        ok &= comp_err < 1e-9
        details.append(f"compose rel err {comp_err:.1e}")
        _report("Algebraic invariants suite", ok, "; ".join(details))


def _fitted_chain(rng) -> BandChain:
    dim, lda_dim, out_dim = 48, 16, 8
    centers = rng.uniform(0, 2, (40, dim))
    prints, class_ids, is_orig = [], [], []
    for c in range(40):
        prints.append(centers[c])
        class_ids.append(c)
        is_orig.append(True)
        for _ in range(4):
            prints.append(np.abs(centers[c] + 0.1 * rng.standard_normal(dim)))
            class_ids.append(c)
            is_orig.append(False)
    from printdex.reduction import train_band

    return train_band(
        np.array(prints), np.array(class_ids), np.array(is_orig),
        np.abs(rng.uniform(0, 2, (300, dim))),
        lda_dim=lda_dim, out_dim=out_dim, seed=3, enforce_min_originals=False,
    )


class TestCriterion4PrintInvariance:
    def test_print_invariance(self):
        ok = True
        details = []
        rng = np.random.default_rng(123)
        # |2D-DFT| circular shift invariance
        f = rng.uniform(0, 1, (32, 64))
        a = dft2_magnitude(f).coeffs
        b = dft2_magnitude(np.roll(np.roll(f, 9, axis=0), 21, axis=1)).coeffs
        shift_err = np.abs(a - b).max() / a.max()
        ok &= shift_err <= 1e-9
        details.append(f"dft shift {shift_err:.1e}")
        # pitch translation on synthetic tonal spectra
        spec = stft(synth_track(1, duration_s=4.0), frequency_map())
        period = spec.hop_samples / spec.sample_rate
        freqs = np.arange(spec.n_bins) * spec.bin_hz
        times = np.arange(SEGMENT_FRAMES) * period

        def tonal(f0):
            g = np.zeros_like(freqs)
            for harm in range(1, 6):
                fc = f0 * harm
                if fc < 5300:
                    g += harm**-0.8 * np.exp(-0.5 * ((freqs - fc) / (0.02 * fc)) ** 2)
            return np.outer(g, 0.6 + 0.4 * np.cos(2 * np.pi * 1.3 * (times - 0.5)))

        ratio = (F_MAX / F_MIN) ** (1.0 / (N_LOGFREQ - 1))
        h1 = loglog_convert(tonal(300.0), spec.bin_hz, period).values
        h2 = loglog_convert(tonal(300.0 * ratio**18), spec.bin_hz, period).values
        interior = np.arange(25, 70)
        trans_err = np.linalg.norm(h2[interior] / h2.max() - h1[interior - 18] / h1.max()) / np.linalg.norm(h2[interior] / h2.max())
        ok &= trans_err < 0.05
        details.append(f"pitch translation {trans_err:.3f}")
        # filtering/modulation containment on a flooring-inactive band
        bump = np.outer(np.sin(np.linspace(0, np.pi, 32)), np.cos(np.linspace(0, 2, 64))) ** 2
        noise = scipy.signal.convolve2d(rng.uniform(0, 0.2, (32, 64)), np.ones((5, 9)) / 45.0, mode="same", boundary="symm")
        band = 1.0 + 0.3 * noise + 0.05 * bump
        y0 = dft2_magnitude(modify_amplitudes(band)).coeffs.reshape(32, 33)
        response = np.exp(0.05 * np.sin(np.linspace(0, 3, 32)))
        y_filt = dft2_magnitude(modify_amplitudes(band * response[:, None])).coeffs.reshape(32, 33)
        filt_err = np.linalg.norm(y_filt[:, 1:] - y0[:, 1:]) / np.linalg.norm(y0[:, 1:])
        ok &= filt_err < 0.10
        modulation = np.exp(0.05 * np.sin(np.linspace(0, 4, 64)))
        y_mod = dft2_magnitude(modify_amplitudes(band * modulation[None, :])).coeffs.reshape(32, 33)
        mod_err = np.linalg.norm(y_mod[1:, :] - y0[1:, :]) / np.linalg.norm(y0[1:, :])
        ok &= mod_err < 0.10
        details.append(f"filtering {filt_err:.3f} modulation {mod_err:.3f}")
        _report("Print invariance suite", ok, "; ".join(details))


class TestCriterion5OracleEquivalences:
    def test_oracle_equivalences(self):
        ok = True
        details = []
        rng = np.random.default_rng(321)
        # time_coherence vs sliding-window oracle, 100 random pair sets
        mismatches = 0
        for _ in range(100):
            n = int(rng.integers(5, 250))
            t = rng.uniform(0, 40, n)
            tau = rng.uniform(0, 12, n)
            w = rng.integers(1, 7, n).astype(float)
            score, delta = time_coherence(t, tau, w)
            u = t - tau
            bins = np.floor(u / SIGMA).astype(np.int64)
            best_score, best_delta = -1.0, 0.0
            for b in range(bins.min(), bins.max() + 1):
                mass = w[(bins >= b - 1) & (bins <= b + 1)].sum()
                if mass > best_score:
                    best_score, best_delta = mass, (b + 0.5) * SIGMA
            mismatches += not (score == best_score and delta == best_delta)
        ok &= mismatches == 0
        details.append(f"coherence mismatches {mismatches}/100")
        # cone_weights vs O(n^2) oracle
        cone_bad = 0
        for _ in range(10):
            n = 150
            t = rng.uniform(0, 30, n)
            tau = rng.uniform(0, 30, n)
            w = cone_weights(t, tau)
            oracle = np.ones(n)
            for a in range(n):
                for m in range(n):
                    if t[m] > t[a]:
                        slope = (tau[m] - tau[a]) / (t[m] - t[a])
                        if 1 / ALPHA_MAX <= slope <= ALPHA_MAX:
                            oracle[a] += 1
            cone_bad += not np.array_equal(w, oracle)
        ok &= cone_bad == 0
        details.append(f"cone mismatches {cone_bad}/10")
        # refine_alignment on the clean stretched line
        t = np.linspace(0, 12, 50)
        tau = 1.3 * t - 2.0
        _, delta0 = time_coherence(t, tau, cone_weights(t, tau))
        alpha, delta, *_ = refine_alignment(t, tau, delta0, np.ones(len(t)))
        clean_ok = abs(alpha - 1.3) <= 0.02 and abs(delta - 2.0) <= 0.1
        ok &= clean_ok
        details.append(f"clean line alpha={alpha:.4f} delta={delta:.3f}")
        # with 30% outliers
        worst = 0.0
        for trial in range(5):
            r = np.random.default_rng(900 + trial)
            t_line = np.linspace(0, 12, 70)
            tau_line = 1.3 * t_line - 2.0
            t_all = np.concatenate([t_line, r.uniform(0, 12, 30)])
            tau_all = np.concatenate([tau_line, r.uniform(tau_line.min(), tau_line.max(), 30)])
            w = cone_weights(t_all, tau_all)
            _, d0 = time_coherence(t_all, tau_all, w)
            a_est, *_ = refine_alignment(t_all, tau_all, d0, w)
            worst = max(worst, abs(a_est - 1.3))
        ok &= worst <= 0.05
        details.append(f"outlier worst dalpha {worst:.4f}")
        _report("Oracle equivalences", ok, "; ".join(details))


class TestCriterion6DeskScaleEndToEnd:
    def test_desk_scale_recognition(self, desk_setup):
        start = time.monotonic()
        s = desk_setup
        conditions = [
            ("clean", None, False),
            ("white_noise_12dB", parse_spec("white_noise:snr_db=12"), False),
            ("pitch_up_half_tone", parse_spec("pitch_shift:semitones=0.5"), False),
            ("pitch_down_half_tone", parse_spec("pitch_shift:semitones=-0.5"), False),
            ("stretch_plus_30c", parse_spec("time_stretch:cents=30"), False),
            ("stretch_minus_30c", parse_spec("time_stretch:cents=-30"), False),
        ]
        report = pipeline.evaluate(s.index, s.model, s.entries, s.queries, conditions, seed=5)
        rates = {c.label: c.step2_rate for c in report.cells}
        pitch_rate = (rates["pitch_up_half_tone"] + rates["pitch_down_half_tone"]) / 2
        stretch_rate = (rates["stretch_plus_30c"] + rates["stretch_minus_30c"]) / 2
        runtime = time.monotonic() - start
        ok = (
            rates["clean"] == 100.0
            and rates["white_noise_12dB"] >= 90.0
            and pitch_rate >= 80.0
            and stretch_rate >= 75.0
            and runtime < 1800.0
        )
        detail = (
            f"clean={rates['clean']:.1f}% white12={rates['white_noise_12dB']:.1f}% "
            f"pitch±½t={pitch_rate:.1f}% stretch±30c={stretch_rate:.1f}% "
            f"({len(s.queries)} queries x {len(conditions)} conditions, eval {runtime:.0f}s)"
        )
        print("\n" + report.table())
        _report("Desk-scale end-to-end recognition", ok, detail)
        # observed pattern: the coherence step does not lose to the counting
        # step by more than 2 points in nearly all grid cells
        good_cells = sum(1 for c in report.cells if c.step2_rate >= c.step1_rate - 2.0)
        assert good_cells >= len(report.cells) - 1

    def test_catalog_print_count(self, desk_setup):
        s = desk_setup
        n_prints = s.index.table.n_postings / N_RELIABLE
        expected = len(s.entries) * 30.0 * 4.0 * 5  # tracks x seconds x F_a x bands
        assert abs(n_prints - expected) / expected < 0.30


def _ablate_ica_ht(model: ReductionModel) -> ReductionModel:
    """Same chains with ICA and Hadamard stages replaced by identity."""
    bands = []
    for chain in model.bands:
        dim = chain.p_ica.shape[0]
        ab = BandChain(
            p_iccr=chain.p_iccr,
            p_lda=chain.p_lda,
            p_ica=np.eye(dim),
            t_ica=np.zeros(dim),
            p_ompca=chain.p_ompca,
            p_ht=np.eye(chain.p_ht.shape[0]),
            j0=chain.j0,
            sigma_e=np.ones(model.out_dim),
        )
        bands.append(compose_final(ab))
    return ReductionModel(bands=bands, in_dim=model.in_dim, out_dim=model.out_dim)


class TestCriterion7UniformityBenefit:
    def test_bucket_uniformity(self, desk_setup):
        s = desk_setup
        models = {"full": s.model, "ablated": _ablate_ica_ht(s.model)}
        spec = make_lsh_spec(s.index.lsh_seed)
        counts = {name: np.zeros(EXT_TABLE_SIZE, dtype=np.int64) for name in models}
        n_prints = 0
        variant_specs = [
            None,
            parse_spec("white_noise:snr_db=12"),
            parse_spec("pitch_shift:semitones=0.5"),
            parse_spec("time_stretch:cents=30"),
        ]
        for e_idx, entry in enumerate(s.entries):
            buf = pipeline.load_track(entry)
            variants = variant_specs if e_idx < 45 else [None]
            for v_idx, dspec in enumerate(variants):
                vbuf = buf if dspec is None else degrade.apply(dspec.reseeded(e_idx * 10 + v_idx), buf)
                kept, coeffs = pipeline.analyze(vbuf)
                if len(kept) == 0:
                    continue
                n_prints += len(kept) * N_BANDS
                for name, model in models.items():
                    codes = pipeline.index_postings(reduce_prints(coeffs, model), model, spec)
                    np.add.at(counts[name], codes, 1)
        ratios = {name: c.max() / (c.sum() / EXT_TABLE_SIZE) for name, c in counts.items()}
        ok = n_prints >= 100_000 and ratios["full"] < ratios["ablated"]
        _report(
            "Uniformity benefit of ICA+Hadamard",
            ok,
            f"{n_prints} prints; max/mean full={ratios['full']:.0f} ablated={ratios['ablated']:.0f}",
        )


class TestCriterion8Determinism:
    def test_byte_identical_runs(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        manifest, entries = build_corpus(corpus_dir, 12, duration_s=12.0)
        train_args = [
            "--times-per-track", "8", "--pool-times-per-track", "25", "--allow-small",
            "--variant", "white_noise:snr_db=12", "--variant", "graphic_eq:gain_db=6",
            "--variant", "time_stretch:cents=20",
        ]
        artifacts = {}
        for run in ("run1", "run2"):
            d = tmp_path / run
            d.mkdir()
            model = str(d / "model.bmrm")
            index = str(d / "index.bmix")
            report = str(d / "report.tsv")
            assert cli_main(["train", "--manifest", manifest, "--out", model, "--seed", "9", *train_args]) == 0
            assert cli_main(["index", "--manifest", manifest, "--model", model, "--out", index, "--lsh-seed", "4"]) == 0
            assert (
                cli_main(
                    [
                        "evaluate", "--manifest", manifest, "--index", index, "--model", model,
                        "--queries", "5", "--duration", "7", "--query-seed", "2", "--seed", "3",
                        "--degrade", "white12=white_noise:snr_db=12", "--out", report,
                    ]
                )
                == 0
            )
            artifacts[run] = tuple(open(p, "rb").read() for p in (model, index, report))
        ok = all(a == b for a, b in zip(artifacts["run1"], artifacts["run2"]))
        sizes = [len(a) for a in artifacts["run1"]]
        _report("Determinism (byte-identical model/index/report)", ok, f"file sizes {sizes}")
