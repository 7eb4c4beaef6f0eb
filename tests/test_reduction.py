import dataclasses
import struct

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from printdex import reduction
from printdex.reduction import (
    ReductionModel,
    TrainingError,
    _eigh,
    apply_reduction,
    build_distributions,
    class_index,
    fit_ica,
    fit_iccr,
    fit_lda,
    fit_ompca,
    hadamard_matrix,
    is_valid_hadamard_size,
    load_model,
    reduce_prints,
    save_model,
    scatter_matrices,
    train_band,
)

from reference import apply_chain, between_class_scatter, fit_ompca_on_data, noise_deviations


def _pencil(kind, n, rng):
    """(a, b) with b None, well-conditioned, or a rank-deficient covariance
    regularized the way fit_ompca regularizes C_pos."""
    if kind == "near_singular":
        c = np.atleast_2d(np.cov(rng.standard_normal((n, n // 2 + 1))))
        b = c + np.eye(n) * (1e-8 * np.trace(c) / n + 1e-300)
        return np.atleast_2d(np.cov(rng.standard_normal((n, 500)))), b
    m = rng.standard_normal((n, n))
    if kind == "standard":
        return m + m.T, None
    w = rng.standard_normal((n, 3 * n + 2))
    return m + m.T, w @ w.T / (3 * n + 2)


class TestEigh:
    """numpy-only eigensolver against scipy.linalg.eigh as the oracle.

    Every check is scaled by n * eps * cond(b): the Cholesky reduction's
    error grows with the conditioning of b, as in scipy's sygv.
    """

    @pytest.mark.parametrize(
        "kind,n",
        [(kind, n) for kind in ("standard", "definite") for n in (1, 2, 41, 80)]
        + [("near_singular", n) for n in (2, 41, 80)],
    )
    def test_matches_scipy_and_b_orthonormal(self, kind, n):
        rng = np.random.default_rng(n)
        a, b = _pencil(kind, n, rng)
        evals, evecs = _eigh(a, b)
        ref = scipy.linalg.eigh(a, b, eigvals_only=True)
        bm = np.eye(n) if b is None else b
        tol = 8 * n * np.finfo(float).eps * np.linalg.cond(bm)
        assert evals.shape == (n,) and evecs.shape == (n, n)
        assert np.all(np.diff(evals) >= 0)
        assert np.abs(evals - ref).max() <= tol * np.abs(ref).max()
        residual = np.linalg.norm(a @ evecs - bm @ evecs * evals, axis=0)
        scale = (np.linalg.norm(a, 2) + np.abs(evals) * np.linalg.norm(bm, 2)) * np.linalg.norm(evecs, axis=0)
        assert np.all(residual <= tol * scale)
        assert np.abs(evecs.T @ bm @ evecs - np.eye(n)).max() <= tol


class TestIccr:
    def test_duplicated_row_detected(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 500))
        x[10] = x[3]
        p, j0 = fit_iccr(x)
        assert j0 == 63
        assert np.abs(p @ p.T - np.eye(j0)).max() < 1e-9

    def test_full_rank_keeps_dimension(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 400))
        p, j0 = fit_iccr(x)
        assert j0 == 40

    def test_zero_row_drops_dimension(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 300))
        x[7] = 0.0
        p, j0 = fit_iccr(x)
        assert j0 == 29

    def test_all_zero_rejected(self):
        with pytest.raises(TrainingError):
            fit_iccr(np.zeros((10, 50)))

    def test_min_samples_enforced(self):
        rng = np.random.default_rng(3)
        with pytest.raises(TrainingError):
            fit_iccr(rng.standard_normal((50, 60)), enforce_min_samples=True)

    def test_idempotent_on_independent_data(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 300))
        p1, j1 = fit_iccr(x)
        z = p1 @ x
        p2, j2 = fit_iccr(z)
        assert j1 == j2 == 20
        assert np.abs(p2 @ p2.T - np.eye(20)).max() < 1e-9

    def test_wide_matrix_svd_path(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 25))  # fewer samples than dims
        p, j0 = fit_iccr(x)
        assert j0 <= 25


def _scatter(x, class_ids, is_original):
    record_class, original_row = class_index(class_ids, is_original)
    return scatter_matrices(x, record_class, len(original_row))


def _first_of_each(class_ids):
    """Marks each class's first record as its original."""
    first = np.unique(class_ids, return_index=True)[1]
    return np.isin(np.arange(len(class_ids)), first)


class TestScatterAccumulator:
    """(T, B, mu) from ``scatter_matrices`` over ``class_index``."""

    def test_identical_records(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        classes = np.repeat(np.arange(3), 5)
        t, b, mu = _scatter(np.tile(v, (15, 1)), classes, _first_of_each(classes))
        assert np.abs(t).max() < 1e-12
        assert np.abs(b).max() < 1e-12
        assert np.allclose(mu, v)

    def test_two_singleton_classes(self):
        x1, x2 = np.array([1.0, 0.0, 2.0]), np.array([3.0, 1.0, 0.0])
        t, b, mu = _scatter(np.stack([x1, x2]), np.array(["a", "b"]), np.array([True, True]))
        sample_cov = np.cov(np.stack([x1, x2]).T, ddof=1)
        assert np.allclose(b, sample_cov, atol=1e-12)
        assert np.abs(t - b).max() < 1e-12  # W = T - B = 0

    def test_matches_oneshot_covariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((100, 8))
        classes = np.repeat(np.arange(20), 5)
        t, b, mu = _scatter(x, classes, _first_of_each(classes))
        assert np.allclose(t, np.cov(x.T, ddof=1), atol=1e-10)
        means = np.stack([x[classes == c].mean(axis=0) for c in range(20)])
        b_direct = means.T @ means / 19 - (20 / 19) * np.outer(x.mean(axis=0), x.mean(axis=0))
        assert np.allclose(b, b_direct, atol=1e-10)

    def test_between_class_matches_loop_oracle(self):
        """Interleaved classes of unequal size, against one outer product per class."""
        rng = np.random.default_rng(7)
        classes = rng.permutation(np.repeat(np.arange(9), np.arange(1, 10)))
        x = rng.standard_normal((len(classes), 6)) + classes[:, None]
        record_class, original_row = class_index(classes, _first_of_each(classes))
        _, b, _ = scatter_matrices(x, record_class, len(original_row))
        ref = between_class_scatter(x, record_class, len(original_row))
        assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_duplicate_original_rejected(self):
        with pytest.raises(TrainingError, match="^class a has more than one original record$"):
            class_index(np.array(["a", "a", "b"]), np.array([True, True, True]))

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError, match="need at least 2 classes"):
            class_index(np.array(["a", "a"]), np.array([True, False]))

    def test_class_without_original_rejected(self):
        with pytest.raises(TrainingError, match="^class 7 lacks an original record$"):
            class_index(np.array([3, 7, 7]), np.array([True, False, False]))


class TestLda:
    def test_two_gaussians_recover_axis(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((400, 3))
        pts[:200, 0] -= 5.0
        pts[200:, 0] += 5.0
        classes = np.repeat([0, 1], 200)
        t, b, mu = _scatter(pts, classes, _first_of_each(classes))
        p, evals = fit_lda(t, b, 1, n_classes=2, n_samples=400)
        cos = abs(p[0] @ np.array([1.0, 0.0, 0.0])) / np.linalg.norm(p[0])
        assert cos > 0.99

    def test_eigenvalues_sorted_and_bounded(self):
        rng = np.random.default_rng(9)
        centers = rng.standard_normal((40, 6)) * 1.5
        classes = np.repeat(np.arange(40), 30)
        x = centers[classes] + rng.standard_normal((1200, 6))
        t, b, mu = _scatter(x, classes, _first_of_each(classes))
        p, evals = fit_lda(t, b, 5, n_classes=40, n_samples=1200)
        assert np.all(np.diff(evals) <= 1e-12)
        assert np.all(evals >= -1e-9)
        assert np.all(evals <= 1.0 + 1e-6)

    def test_zero_between_class(self):
        t = np.eye(4)
        b = np.zeros((4, 4))
        p, evals = fit_lda(t, b, 2, n_classes=10, n_samples=1000)
        assert np.abs(evals).max() < 1e-9
        assert p.shape == (2, 4)

    def test_k_ge_c_rejected(self):
        with pytest.raises(TrainingError):
            fit_lda(np.eye(3), np.eye(3), 3, n_classes=3, n_samples=30)

    @pytest.mark.parametrize("k", [0, -5])
    def test_k_below_one_rejected(self, k):
        """[:k] with a negative k would keep all but |k| rows; k = 0 has no rows to sign-fix."""
        with pytest.raises(TrainingError) as info:
            fit_lda(np.eye(3), np.eye(3), k, n_classes=10, n_samples=30)
        assert str(info.value) == f"LDA needs K >= 1, got K={k}"

    @pytest.mark.parametrize("last", [0.0, -1.0])
    def test_total_covariance_not_positive_definite_rejected(self, last):
        # n_samples >= 10 * dim, so no shrinkage term rescues T
        t = np.diag([1.0, 2.0, 3.0, last])
        with pytest.raises(TrainingError, match="total covariance not invertible") as info:
            fit_lda(t, np.eye(4), 2, n_classes=10, n_samples=40)
        assert "\n" not in str(info.value)


class TestIca:
    def test_independent_input_stays_white(self):
        rng = np.random.default_rng(10)
        z = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(4, 8000))
        p, t, converged = fit_ica(z, seed=1)
        y = p @ z + t[:, None]
        assert converged
        assert np.abs(y.mean(axis=1)).max() < 1e-6
        assert np.abs(np.cov(y, ddof=1) - np.eye(4)).max() <= 0.05

    def test_unmixes_uniform_sources(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(-1, 1, size=(2, 20000))
        a = np.array([[1.0, 0.6], [-0.4, 1.2]])
        p, t, converged = fit_ica(a @ s, seed=2)
        assert converged
        y = p @ (a @ s) + t[:, None]
        kurt = scipy.stats.kurtosis(y, axis=1, fisher=True)
        assert np.abs(kurt - (-1.2)).max() < 0.1

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((5, 2000)) ** 3
        p1, t1, c1 = fit_ica(z, seed=3)
        p2, t2, c2 = fit_ica(z, seed=3)
        assert np.array_equal(p1, p2) and np.array_equal(t1, t2)

    def test_nonconvergence_falls_back_to_whitening(self, monkeypatch):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((3, 500))
        monkeypatch.setattr(reduction, "ICA_MAX_ITER", 1)
        p, t, converged = fit_ica(z, seed=4)
        assert not converged
        y = p @ z + t[:, None]
        assert np.abs(np.cov(y, ddof=1) - np.eye(3)).max() < 1e-8


class TestBuildDistributions:
    def test_no_degradation_gives_zero_pos(self):
        x = np.random.default_rng(14).standard_normal((4, 6))
        x[:, 1] = x[:, 0]
        x[:, 3] = x[:, 2]
        x[:, 5] = x[:, 4]
        class_ids = np.array([0, 0, 1, 1, 2, 2])
        is_orig = np.array([True, False, True, False, True, False])
        pos, neg = build_distributions(x, *class_index(class_ids, is_orig), seed=0)
        assert pos.shape == (4, 3)
        assert np.abs(pos).max() < 1e-12
        assert neg.shape == (4, 3)
        assert np.abs(neg).max() > 0

    def test_missing_original_rejected(self):
        x = np.zeros((2, 3))
        with pytest.raises(TrainingError, match="class 1 lacks an original record"):
            build_distributions(x, *class_index(np.array([0, 0, 1]), np.array([True, False, False])), seed=0)

    def test_neg_never_uses_own_class(self):
        rng = np.random.default_rng(15)
        n_classes = 5
        x = rng.standard_normal((3, n_classes * 2))
        class_ids = np.repeat(np.arange(n_classes), 2)
        is_orig = np.tile([True, False], n_classes)
        pos, neg = build_distributions(x, *class_index(class_ids, is_orig), seed=1)
        # a zero negative column would mean the own original was drawn
        assert np.all(np.linalg.norm(neg - pos, axis=0) > 1e-9)


def _elongated_cloud(angle_deg, long_std, short_std, n, rng):
    theta = np.radians(angle_deg)
    basis = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    raw = np.diag([long_std, short_std]) @ rng.standard_normal((2, n))
    return basis @ raw


class TestOmpca:
    def test_identity_pos_gives_neg_pca(self):
        rng = np.random.default_rng(16)
        pos = rng.standard_normal((4, 5000))
        pos = np.linalg.cholesky(np.linalg.inv(np.cov(pos))) .T @ (pos - pos.mean(axis=1, keepdims=True))
        neg = rng.standard_normal((4, 5000)) * np.array([[3.0], [1.0], [0.5], [0.2]])
        p, q = fit_ompca(pos, neg, 2)
        evals, evecs = np.linalg.eigh(np.cov(neg))
        pca1 = evecs[:, -1]
        assert abs(p[0] @ pca1) > 0.999

    def test_2d_cone_geometry_matches_bruteforce(self):
        rng = np.random.default_rng(17)
        neg = _elongated_cloud(30.0, 4.0, 0.8, 4000, rng)
        pos = _elongated_cloud(120.0, 2.0, 0.3, 4000, rng)
        p, q = fit_ompca(pos, neg, 2)
        c_p, c_n = np.cov(pos), np.cov(neg)
        thetas = np.radians(np.arange(0.0, 180.0, 0.02))
        dirs = np.stack([np.cos(thetas), np.sin(thetas)])
        quotients = np.einsum("ij,ik,kj->j", dirs, c_n, dirs) / np.einsum("ij,ik,kj->j", dirs, c_p, dirs)
        best = dirs[:, np.argmax(quotients)]
        angle = np.degrees(np.arccos(np.clip(abs(best @ p[0]), 0, 1)))
        assert angle < 1.0
        assert np.abs(p @ p.T - np.eye(2)).max() < 1e-8

    def test_orthonormal_rows_and_monotone_quotients(self):
        rng = np.random.default_rng(18)
        pos = rng.standard_normal((12, 3000)) * rng.uniform(0.5, 2.0, (12, 1))
        neg = rng.standard_normal((12, 3000)) * rng.uniform(0.5, 4.0, (12, 1))
        p, q = fit_ompca(pos, neg, 6)
        assert np.abs(p @ p.T - np.eye(6)).max() < 1e-8
        assert np.all(np.diff(q) <= q[:-1] * 1e-6 + 1e-12)

    def test_k_too_large_rejected(self):
        with pytest.raises(TrainingError):
            fit_ompca(np.zeros((3, 10)), np.zeros((3, 10)), 4)

    @pytest.mark.parametrize("kind", ["whitened_pos", "cones", "scaled", "rank_9_of_10", "rank_4_of_10"])
    def test_matches_data_projection_oracle(self, kind):
        """Covariances projected step by step equal those of the projected data.

        A rank-deficient ``pos`` leaves C_pos singular; only the regularizer
        makes the pencil definite, and its null directions come first with
        quotients near 1e8. With one such direction both forms agree to
        1e-10. With six, both forms carry the pencil's n * eps * cond error
        on those rows (about 4e-8 each against a 40-digit solution), so the
        tolerance scales with the conditioning, as in ``TestEigh``.
        """
        rng = np.random.default_rng(21)
        if kind == "whitened_pos":
            pos = rng.standard_normal((4, 5000))
            pos = np.linalg.cholesky(np.linalg.inv(np.cov(pos))).T @ (pos - pos.mean(axis=1, keepdims=True))
            neg, k = rng.standard_normal((4, 5000)) * np.array([[3.0], [1.0], [0.5], [0.2]]), 2
        elif kind == "cones":
            neg, pos, k = _elongated_cloud(30.0, 4.0, 0.8, 4000, rng), _elongated_cloud(120.0, 2.0, 0.3, 4000, rng), 2
        elif kind == "scaled":
            pos = rng.standard_normal((12, 3000)) * rng.uniform(0.5, 2.0, (12, 1))
            neg, k = rng.standard_normal((12, 3000)) * rng.uniform(0.5, 4.0, (12, 1)), 6
        else:
            rank = int(kind.split("_")[1])
            pos = rng.standard_normal((10, rank)) @ rng.standard_normal((rank, 2000))
            neg, k = rng.standard_normal((10, 2000)) * rng.uniform(0.5, 4.0, (10, 1)), 8
        tol = 1e-10
        if kind == "rank_4_of_10":
            c_pos = np.cov(pos)
            tol = 8 * 10 * np.finfo(float).eps * np.linalg.cond(c_pos + np.eye(10) * (1e-8 * np.trace(c_pos) / 10))
        p, q = fit_ompca(pos, neg, k)
        p_ref, q_ref = fit_ompca_on_data(pos, neg, k)
        assert np.abs(p - p_ref).max() <= tol
        assert np.all(np.abs(q - q_ref) <= tol * np.abs(q_ref))


class TestHadamard:
    def test_k4_matches_reference(self):
        h = hadamard_matrix(4)
        expected = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        assert np.allclose(h, expected)

    def test_k1(self):
        assert np.array_equal(hadamard_matrix(1), [[1.0]])

    def test_k40_orthogonal_equal_magnitudes(self):
        h = hadamard_matrix(40)
        assert np.abs(h @ h.T - np.eye(40)).max() < 1e-12
        assert np.allclose(np.abs(h), 1.0 / np.sqrt(40))

    def test_exact_integer_orthogonality(self):
        for k in (4, 12, 20, 40):
            h_int = (hadamard_matrix(k) * np.sqrt(k)).round().astype(np.int64)
            assert np.array_equal(h_int @ h_int.T, k * np.eye(k, dtype=np.int64))

    def test_valid_sizes(self):
        valid = [1, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 128]
        for k in valid:
            assert is_valid_hadamard_size(k)
            hadamard_matrix(k)
        for k in (3, 6, 10, 14, 26):
            assert not is_valid_hadamard_size(k)
            with pytest.raises(ValueError):
                hadamard_matrix(k)


def _synthetic_band(rng, n_classes=30, n_degraded=6, dim=60):
    """Class-structured nonnegative data with a noisy degradation subspace."""
    centers = rng.uniform(0, 2, (n_classes, dim)) * rng.uniform(0.2, 1.0, dim)
    noise_dirs = rng.standard_normal((dim, dim)) * 0.05
    prints, class_ids, is_orig = [], [], []
    for c in range(n_classes):
        prints.append(centers[c])
        class_ids.append(c)
        is_orig.append(True)
        for _ in range(n_degraded):
            prints.append(np.abs(centers[c] + noise_dirs @ rng.standard_normal(dim) * 0.4))
            class_ids.append(c)
            is_orig.append(False)
    return np.array(prints), np.array(class_ids), np.array(is_orig)


@pytest.fixture(scope="module")
def synth_chain():
    rng = np.random.default_rng(19)
    prints, class_ids, is_orig = _synthetic_band(rng)
    extra = np.abs(rng.uniform(0, 2, (400, 60)) * rng.uniform(0.2, 1.0, 60))
    chain = train_band(
        prints, class_ids, is_orig, extra, lda_dim=16, out_dim=8, seed=5, enforce_min_originals=False
    )
    return chain, prints, class_ids, is_orig, extra


class TestTrainBandAndCompose:
    def test_compose_matches_chained_application(self, synth_chain):
        chain, prints, *_ = synth_chain
        rng = np.random.default_rng(20)
        x = rng.standard_normal((60, 200))
        direct = apply_chain(chain, x)
        factorized = chain.p_final @ x + chain.t_final[:, None]
        scale = np.abs(direct).max()
        assert np.abs(direct - factorized).max() < 1e-9 * max(scale, 1.0)

    def test_sigma_e_matches_reduced_residuals(self, synth_chain):
        chain, prints, class_ids, is_orig, _ = synth_chain
        ref = noise_deviations(chain, prints, *class_index(class_ids, is_orig))
        assert np.all(np.abs(chain.sigma_e - ref) <= 1e-10 * ref)

    def test_zero_vector_maps_to_translation(self, synth_chain):
        chain, *_ = synth_chain
        model = ReductionModel(bands=[chain], in_dim=60, out_dim=8)
        assert np.allclose(apply_reduction(np.zeros(60), model, 0), chain.t_final)

    def test_shapes_and_invariants(self, synth_chain):
        chain, *_ = synth_chain
        assert chain.p_final.shape == (8, 60)
        assert np.abs(chain.p_ompca @ chain.p_ompca.T - np.eye(8)).max() < 1e-8
        assert chain.sigma_e.shape == (8,)
        assert np.all(chain.sigma_e > 0)

    def test_band_mismatch_rejected(self, synth_chain):
        chain, *_ = synth_chain
        model = ReductionModel(bands=[chain], in_dim=60, out_dim=8)
        with pytest.raises(ValueError):
            apply_reduction(np.zeros(60), model, 1)

    def test_decorrelation_of_reduced_originals(self, synth_chain):
        """Orthogonal stages preserve the unit covariance from the ICA fit."""
        chain, prints, class_ids, is_orig, extra = synth_chain
        model = ReductionModel(bands=[chain], in_dim=60, out_dim=8)
        pool = apply_reduction(np.vstack([prints[is_orig], extra]), model, 0)
        corr = np.corrcoef(pool.T)
        off = np.abs(corr - np.diag(np.diag(corr))).max()
        assert off <= 0.1

    def test_model_file_roundtrip(self, synth_chain, tmp_path):
        chain, *_ = synth_chain
        model = ReductionModel(bands=[chain], in_dim=60, out_dim=8)
        path = tmp_path / "m.bmrm"
        save_model(path, model)
        back = load_model(path)
        assert back.n_bands == 1
        assert back.in_dim == 60 and back.out_dim == 8
        band = back.bands[0]
        assert band.j0 == chain.j0
        for name in ("p_final", "t_final", "sigma_e"):
            assert np.array_equal(getattr(band, name), getattr(chain, name).astype(np.float32).astype(np.float64))
        assert band.metadata == chain.metadata and band.metadata["ica_seed"] == "5"
        assert all(getattr(band, name) is None for name in ("p_iccr", "p_lda", "p_ica", "t_ica", "p_ompca", "p_ht"))
        with pytest.raises(TrainingError, match="stage p_iccr not fitted"):
            apply_chain(band, np.zeros(60))

    def test_class_without_original_rejected(self, synth_chain):
        chain, prints, class_ids, is_orig, extra = synth_chain
        is_orig = is_orig & (class_ids != 3)
        with pytest.raises(TrainingError, match="^class 3 lacks an original record$"):
            train_band(prints, class_ids, is_orig, extra, lda_dim=16, out_dim=8, seed=5, enforce_min_originals=False)

    def test_save_twice_identical_bytes(self, synth_chain, tmp_path):
        chain, *_ = synth_chain
        model = ReductionModel(bands=[chain], in_dim=60, out_dim=8)
        p1, p2 = tmp_path / "a.bmrm", tmp_path / "b.bmrm"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"sigma_e": None}, "sigma_e must hold 8 values"),
            ({"sigma_e": np.ones(7)}, "sigma_e must hold 8 values"),
            ({"sigma_e": np.ones(9)}, "sigma_e must hold 8 values"),
            ({"p_final": None, "t_final": None}, "compose the model before saving"),
        ],
    )
    def test_incomplete_chain_not_saved(self, synth_chain, tmp_path, change, error):
        chain, *_ = synth_chain
        path = tmp_path / "m.bmrm"
        with pytest.raises(ValueError, match=error):
            save_model(path, ReductionModel(bands=[dataclasses.replace(chain, **change)], in_dim=60, out_dim=8))
        assert not path.exists()

    @pytest.mark.parametrize("damage", ["to_10_bytes", "to_30_bytes", "last_5_bytes", "forged_rank"])
    def test_damaged_model_file_rejected(self, synth_chain, tmp_path, damage):
        chain, *_ = synth_chain
        path = tmp_path / "m.bmrm"
        save_model(path, ReductionModel(bands=[chain], in_dim=60, out_dim=8))
        raw = path.read_bytes()
        if damage == "forged_rank":
            # in_dim (header bytes 10..14) sizes every band's p_final read
            raw = raw[:10] + struct.pack("<I", 0xFFFFFFFF) + raw[14:]
        else:
            raw = raw[: {"to_10_bytes": 10, "to_30_bytes": 30, "last_5_bytes": -5}[damage]]
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="truncated model file"):
            load_model(path)


class TestReducePrints:
    @pytest.mark.parametrize("n", [0, 25])
    def test_equals_per_band_apply_reduction(self, synth_chain, n):
        chain, prints, *_ = synth_chain
        other = dataclasses.replace(chain, p_final=chain.p_final[::-1].copy(), t_final=chain.t_final[::-1].copy())
        model = ReductionModel(bands=[chain, other], in_dim=60, out_dim=8)
        coeffs = np.stack([prints[:n], prints[25 : 25 + n]], axis=1)
        reduced = reduce_prints(coeffs, model)
        assert reduced.shape == (n, 2, 8)
        for b in range(2):
            assert np.array_equal(reduced[:, b, :], apply_reduction(coeffs[:, b, :], model, b))
