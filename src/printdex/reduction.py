"""Per-band learned affine reduction: 1056 -> j0 -> 80 -> 80 -> 40 -> 40.

Five stages, each learned on augmented training data and finally factorized
into a single affine map:

  ICCR    rejects linearly dependent components (conditioning),
  LDA     discriminant reduction over (signal, anchor) classes,
  ICA     rotation to independent components (uniform hash-bucket filling),
  OMPCA   orthogonal recursive reduction recovering robustness under a
          Mahalanobis metric from the degradation-error covariance,
  HT      Hadamard mixing equalizing per-component robustness.

Classes group the prints of one (original signal, anchor time) pair across
degraded variants. All stages are fitted per frequency band. The stage
matrices live only in memory during training; the model file holds the
composed map of each band (``p_final``, ``t_final``), the noise deviations
``sigma_e`` the hashing reads, the retained rank ``j0`` and the training
metadata.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from printdex.parallel import parallel_map

LDA_DIM = 80
OUT_DIM = 40
ICCR_REL_THRESHOLD = 1e-5
MIN_ICCR_SAMPLES_FACTOR = 4
# FastICA has converged when every row of the rotation keeps its direction to
# within ICA_TOL (|cosine| to its previous value), and falls back to plain
# whitening if that takes more than ICA_MAX_ITER iterations.
ICA_MAX_ITER = 500
ICA_TOL = 1e-6

MODEL_MAGIC = b"BMRM"
MODEL_VERSION = 2


class TrainingError(ValueError):
    """Training data violates a fitting precondition."""


def _eigh(a: np.ndarray, b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of symmetric ``a``, or of the pencil ``a v = l b v``.

    ``b`` must be symmetric positive definite; a failed Cholesky factorization
    raises ``np.linalg.LinAlgError``. The pencil is reduced as LAPACK ``sygv``
    does it, with ``L`` inverted once: ``b = L L^T``, ``C = L^-1 a L^-T``,
    ``v = L^-T y``, so that ``v^T b v = I``. Every fit runs on numpy's LAPACK only: scipy ships a
    second OpenBLAS with its own thread pool, and alternating numpy products
    with ``scipy.linalg`` calls makes each pool wait for the other's
    still-spinning worker threads.
    """
    if b is None:
        return np.linalg.eigh(a)
    inv_low = np.linalg.inv(np.linalg.cholesky(b))
    c = inv_low @ a @ inv_low.T
    evals, y = np.linalg.eigh((c + c.T) / 2.0)
    return evals, inv_low.T @ y


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Flip row signs so the largest-|.| entry is positive (determinism)."""
    idx = np.argmax(np.abs(rows), axis=1)
    signs = np.sign(rows[np.arange(rows.shape[0]), idx])
    signs[signs == 0] = 1.0
    return rows * signs[:, None]


# ---------------------------------------------------------------------------
# ICCR


def fit_iccr(x: np.ndarray, enforce_min_samples: bool = False) -> tuple[np.ndarray, int]:
    """Reject linearly dependent components of X (J x N) via SVD.

    Returns (P, j0): the rows of P are the left singular vectors whose
    singular value exceeds s1 * ICCR_REL_THRESHOLD. P @ P.T = I. The second
    moment is deliberately uncentered (the inputs are nonnegative DFT
    magnitudes).
    """
    x = np.asarray(x, dtype=np.float64)
    j, n = x.shape
    if enforce_min_samples and n < MIN_ICCR_SAMPLES_FACTOR * j:
        raise TrainingError(f"ICCR needs >= {MIN_ICCR_SAMPLES_FACTOR * j} prints, got {n}")
    if n >= j:
        # eigh of the Gram matrix: cheaper than a full SVD for tall data
        gram = x @ x.T
        evals, evecs = _eigh(gram)
        order = np.argsort(evals)[::-1]
        svals = np.sqrt(np.clip(evals[order], 0.0, None))
        basis = evecs[:, order].T
    else:
        basis, svals, _ = np.linalg.svd(x, full_matrices=False)
        basis = basis.T
    if svals.size == 0 or svals[0] == 0.0:
        raise TrainingError("ICCR input matrix is all-zero")
    j0 = int(np.sum(svals > svals[0] * ICCR_REL_THRESHOLD))
    return _fix_signs(basis[:j0]), j0


# ---------------------------------------------------------------------------
# Classes and LDA


def class_index(class_ids: np.ndarray, is_original: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(record_class, original_row)``: each record's class, as a position in
    the sorted distinct ``class_ids``, and the row of each class's original.

    There must be at least 2 classes, each with exactly one original record.
    """
    labels, record_class = np.unique(np.asarray(class_ids), return_inverse=True)
    if len(labels) < 2:
        raise TrainingError("need at least 2 classes")
    rows = np.flatnonzero(np.asarray(is_original, dtype=bool))
    n_originals = np.bincount(record_class[rows], minlength=len(labels))
    if n_originals.max() > 1:
        raise TrainingError(f"class {labels[np.argmax(n_originals)]} has more than one original record")
    if n_originals.min() == 0:
        raise TrainingError(f"class {labels[np.argmin(n_originals)]} lacks an original record")
    original_row = np.empty(len(labels), dtype=np.intp)
    original_row[record_class[rows]] = rows
    return record_class, original_row


def scatter_matrices(x: np.ndarray, record_class: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, B, mu) of the rows of x: total covariance, between-class covariance, mean.

    ``record_class`` gives each row's class in ``range(n_classes)``; the
    class centers are the class means, and B comes from one product of the
    (n_classes x dim) center matrix with itself.
    """
    x = np.asarray(x, dtype=np.float64)
    n, dim = x.shape
    mu = x.sum(axis=0) / n
    t = (x.T @ x) / (n - 1) - (n / (n - 1)) * np.outer(mu, mu)
    centers = np.zeros((n_classes, dim))
    np.add.at(centers, record_class, x)
    centers /= np.bincount(record_class, minlength=n_classes)[:, None]
    b = (centers.T @ centers) / (n_classes - 1) - (n_classes / (n_classes - 1)) * np.outer(mu, mu)
    return (t + t.T) / 2.0, (b + b.T) / 2.0, mu


def fit_lda(t: np.ndarray, b: np.ndarray, k: int, n_classes: int, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvectors of T^-1 B, rows ordered by decreasing eigenvalue.

    T gets a shrinkage term 1e-4 * trace(T)/dim when the sample count is
    below 10x the dimension (keeps the generalized eigenproblem well-posed
    at desk scale). Returns (P_lda, eigenvalues).
    """
    dim = t.shape[0]
    if k < 1:
        raise TrainingError(f"LDA needs K >= 1, got K={k}")
    if k >= n_classes:
        raise TrainingError(f"LDA needs K < C (K={k}, C={n_classes})")
    if k > dim:
        raise TrainingError(f"K={k} exceeds dimension {dim}")
    t_reg = t
    if n_samples < 10 * dim:
        t_reg = t + np.eye(dim) * (1e-4 * np.trace(t) / dim)
    try:
        evals, evecs = _eigh(b, t_reg)
    except np.linalg.LinAlgError as exc:
        raise TrainingError(f"total covariance not invertible: {exc}") from exc
    order = np.argsort(evals)[::-1][:k]
    return _fix_signs(evecs[:, order].T), evals[order]


# ---------------------------------------------------------------------------
# FastICA (symmetric updates, cubic nonlinearity)


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    evals, evecs = _eigh(w @ w.T)
    evals = np.clip(evals, 1e-12 * evals.max(), None)
    return (evecs * (1.0 / np.sqrt(evals))) @ evecs.T @ w


def fit_ica(z: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray, bool]:
    """Fit Y = P @ X + t with Y centered, unit-variance and independent.

    Symmetric (parallel) fixed-point iteration with the cubic nonlinearity.
    If the rotation does not converge within ICA_MAX_ITER, falls back to plain
    whitening (decorrelation without rotation) and reports converged=False.
    """
    z = np.asarray(z, dtype=np.float64)
    dim, n = z.shape
    mean = z.mean(axis=1)
    zc = z - mean[:, None]
    cov = zc @ zc.T / (n - 1)
    evals, evecs = _eigh(cov)
    evals = np.clip(evals, evals.max() * 1e-12, None)
    whiten = (evecs * (1.0 / np.sqrt(evals))) @ evecs.T
    xw = whiten @ zc
    rng = np.random.default_rng(seed)
    w = _sym_decorrelate(rng.standard_normal((dim, dim)))
    converged = False
    for _ in range(ICA_MAX_ITER):
        wx = w @ xw
        w_new = (wx * wx * wx) @ xw.T / n - (3.0 * np.mean(wx**2, axis=1))[:, None] * w
        w_new = _sym_decorrelate(w_new)
        delta = np.max(np.abs(np.abs(np.sum(w_new * w, axis=1)) - 1.0))
        w = w_new
        if delta < ICA_TOL:
            converged = True
            break
    p = _fix_signs(w @ whiten if converged else whiten)
    return p, -p @ mean, converged


# ---------------------------------------------------------------------------
# OMPCA


def build_distributions(x: np.ndarray, record_class: np.ndarray, original_row: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative difference distributions from transformed prints.

    x holds column vectors already taken through ICCR -> LDA -> ICA, indexed
    by ``class_index``. Each degraded column yields one positive difference
    (to its own original) and one negative difference (to one uniformly
    drawn mismatched original).
    """
    x = np.asarray(x, dtype=np.float64)
    degraded = np.setdiff1d(np.arange(len(record_class)), original_row)
    own = record_class[degraded]
    other = np.empty_like(own)
    rng = np.random.default_rng(seed)
    for i, c in enumerate(own):
        other[i] = rng.integers(len(original_row))
        while other[i] == c:
            other[i] = rng.integers(len(original_row))
    deg = x[:, degraded]
    return deg - x[:, original_row[own]], deg - x[:, original_row[other]]


def _householder_with_first_column(g: np.ndarray) -> np.ndarray:
    """Orthogonal matrix whose first column is +-g (g unit-norm)."""
    d = len(g)
    v = g.copy()
    s = 1.0 if g[0] >= 0 else -1.0
    v[0] += s
    h = np.eye(d) - (2.0 / (v @ v)) * np.outer(v, v)
    return h


def fit_ompca(pos: np.ndarray, neg: np.ndarray, k: int = OUT_DIM) -> tuple[np.ndarray, np.ndarray]:
    """Recursive orthogonal discriminant reduction.

    At each step the top generalized eigenvector of (C_pos^-1 C_neg) in the
    current complementary subspace is extracted and extended to an
    orthogonal basis by a Householder reflection. The covariances of the
    difference columns ``pos`` and ``neg`` (J x n) are computed once; each
    step takes both, and the accumulated basis, onto the complement ``Q``
    as ``Q^T C Q``, which is the covariance of the projected data. C_pos is
    regularized afresh at each step. Returns (P (k x J) with orthonormal
    rows, generalized Rayleigh quotients, which are non-increasing).
    """
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    j = pos.shape[0]
    if k > j:
        raise TrainingError(f"cannot extract {k} directions from dimension {j}")
    cov_pos = np.atleast_2d(np.cov(pos))
    cov_neg = np.atleast_2d(np.cov(neg))
    basis = np.eye(j)
    rows = np.empty((k, j))
    quotients = np.empty(k)
    for step in range(k):
        c_pos = cov_pos + np.eye(cov_pos.shape[0]) * (1e-8 * np.trace(cov_pos) / cov_pos.shape[0] + 1e-300)
        _, evecs = _eigh(cov_neg, c_pos)
        g = evecs[:, -1]
        g = g / np.linalg.norm(g)
        if g[np.argmax(np.abs(g))] < 0:
            g = -g
        quotients[step] = (g @ cov_neg @ g) / (g @ c_pos @ g)
        rows[step] = g @ basis
        if step < k - 1:
            comp = _householder_with_first_column(g)[:, 1:]
            cov_pos = comp.T @ cov_pos @ comp
            cov_neg = comp.T @ cov_neg @ comp
            basis = comp.T @ basis
    return rows, quotients


# ---------------------------------------------------------------------------
# Hadamard transform


def _is_paley_size(k: int) -> bool:
    q = k - 1
    if q < 3 or q % 4 != 3:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def is_valid_hadamard_size(k: int) -> bool:
    if k in (1, 2):
        return True
    if k % 4 != 0:
        return False
    return is_valid_hadamard_size(k // 2) or _is_paley_size(k)


def _paley_int(k: int) -> np.ndarray:
    q = k - 1
    chi = -np.ones(q, dtype=np.int64)
    chi[0] = 0
    squares = np.unique(np.arange(1, q, dtype=np.int64) ** 2 % q)
    chi[squares] = 1
    diff = (np.arange(q)[None, :] - np.arange(q)[:, None]) % q
    jacobsthal = chi[diff]
    h = np.empty((k, k), dtype=np.int64)
    h[0, 0] = 0
    h[0, 1:] = 1
    h[1:, 0] = -1
    h[1:, 1:] = jacobsthal
    h += np.eye(k, dtype=np.int64)
    return h


def _hadamard_int(k: int) -> np.ndarray:
    if k == 1:
        return np.array([[1]], dtype=np.int64)
    if k == 2:
        return np.array([[1, 1], [1, -1]], dtype=np.int64)
    if k % 4 == 0:
        if is_valid_hadamard_size(k // 2):
            return np.kron(_hadamard_int(2), _hadamard_int(k // 2))
        if _is_paley_size(k):
            return _paley_int(k)
    raise ValueError(f"no Hadamard construction for size {k}")


def hadamard_matrix(k: int) -> np.ndarray:
    """Orthogonal matrix with entries +-1/sqrt(k).

    Sylvester doubling where possible, Paley-I (quadratic residues over a
    prime q = k-1, q = 3 mod 4) otherwise; k = 40 comes out as
    H_2 kron H_20 with H_20 from the prime 19.
    """
    h = _hadamard_int(k)
    if not np.array_equal(h @ h.T, k * np.eye(k, dtype=np.int64)):
        raise ValueError(f"Hadamard construction failed orthogonality for size {k}")
    return h / np.sqrt(k)


# ---------------------------------------------------------------------------
# Model container, composition, serialization


@dataclass
class BandChain:
    """Reduction of one frequency band.

    ``p_final``/``t_final`` (the composed map), ``sigma_e`` and ``j0`` are
    what a loaded model has; the stage matrices exist only after training.
    """

    j0: int
    p_final: np.ndarray | None = None
    t_final: np.ndarray | None = None
    sigma_e: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)
    p_iccr: np.ndarray | None = None
    p_lda: np.ndarray | None = None
    p_ica: np.ndarray | None = None
    t_ica: np.ndarray | None = None
    p_ompca: np.ndarray | None = None
    p_ht: np.ndarray | None = None

    def check_stages(self) -> None:
        for name in ("p_iccr", "p_lda", "p_ica", "t_ica", "p_ompca", "p_ht"):
            if getattr(self, name) is None:
                raise TrainingError(f"stage {name} not fitted")


@dataclass
class ReductionModel:
    bands: list
    in_dim: int
    out_dim: int = OUT_DIM

    @property
    def n_bands(self) -> int:
        return len(self.bands)


def compose_final(chain: BandChain) -> BandChain:
    """Factorize the five stages into P_final (40 x 1056) and t_final (40)."""
    chain.check_stages()
    mix = chain.p_ht @ chain.p_ompca
    chain.p_final = mix @ chain.p_ica @ chain.p_lda @ chain.p_iccr
    chain.t_final = mix @ chain.t_ica
    return chain


def apply_reduction(x: np.ndarray, model: ReductionModel, band: int) -> np.ndarray:
    """Reduce prints of one band (0-based) with the factorized affine map.

    Accepts a single 1056-vector or a (n, 1056) batch.
    """
    if not 0 <= band < model.n_bands:
        raise ValueError(f"band {band} out of range [0, {model.n_bands})")
    chain = model.bands[band]
    if chain.p_final is None:
        raise TrainingError("model not composed")
    return np.asarray(x, dtype=np.float64) @ chain.p_final.T + chain.t_final


def reduce_prints(coeffs: np.ndarray, model: ReductionModel) -> np.ndarray:
    """Reduce (n, bands, in_dim) prints to (n, bands, out_dim), band by band."""
    reduced = np.empty((coeffs.shape[0], coeffs.shape[1], model.out_dim))
    for b in range(coeffs.shape[1]):
        reduced[:, b, :] = apply_reduction(coeffs[:, b, :], model, b)
    return reduced


# --- serialization ---------------------------------------------------------


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """Read exactly n bytes; a length past the end of the file raises ValueError
    before anything is read or allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"truncated model file {path!r}: {what} needs {n} bytes, {left} left")
    return fh.read(n)


def _read_matrix(fh, shape, path, what: str) -> np.ndarray:
    raw = _read_exact(fh, 4 * math.prod(shape), path, what)
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)


def _model_bytes(model: ReductionModel) -> bytes:
    """The version-2 BMRM model file (little-endian, float32 arrays).

    Header: magic, version u16, n_bands u16, out_dim u16, in_dim u32. Per
    band: j0 u32, p_final (out_dim x in_dim), t_final (out_dim), sigma_e
    (out_dim), a u32 metadata count and that many u32-length-prefixed UTF-8
    ``key=value`` strings in key order.
    """
    for b, chain in enumerate(model.bands):
        if chain.p_final is None or chain.t_final is None:
            raise TrainingError(f"band {b}: compose the model before saving")
        if chain.sigma_e is None or np.shape(chain.sigma_e) != (model.out_dim,):
            raise ValueError(f"band {b}: sigma_e must hold {model.out_dim} values, got {np.shape(chain.sigma_e)}")
    parts = [MODEL_MAGIC, struct.pack("<HHHI", MODEL_VERSION, model.n_bands, model.out_dim, model.in_dim)]
    for chain in model.bands:
        parts.append(struct.pack("<I", chain.j0))
        parts.extend(np.ascontiguousarray(m, dtype="<f4").tobytes() for m in (chain.p_final, chain.t_final, chain.sigma_e))
        parts.append(struct.pack("<I", len(chain.metadata)))
        for key in sorted(chain.metadata):
            blob = f"{key}={chain.metadata[key]}".encode("utf-8")
            parts += [struct.pack("<I", len(blob)), blob]
    return b"".join(parts)


def save_model(path, model: ReductionModel) -> None:
    """Write ``model`` as a BMRM file (see ``_model_bytes``)."""
    data = _model_bytes(model)
    with open(path, "wb") as fh:
        fh.write(data)


def model_sha256(model: ReductionModel) -> str:
    """Hex SHA-256 of the file ``save_model`` writes for ``model``.

    A loaded model writes back the bytes it was read from, so this equals
    the model file's digest; an index records it to pair with its model.
    """
    return hashlib.sha256(_model_bytes(model)).hexdigest()


def load_model(path) -> ReductionModel:
    with open(path, "rb") as fh:
        if fh.read(4) != MODEL_MAGIC:
            raise ValueError(f"{path!r} is not a model file")
        version, n_bands, out_dim, in_dim = struct.unpack("<HHHI", _read_exact(fh, 10, path, "header"))
        if version != MODEL_VERSION:
            raise ValueError(f"unsupported model version {version} in {path!r}: this build reads version {MODEL_VERSION}")
        bands = []
        for b in range(n_bands):
            where = f"band {b}"
            (j0,) = struct.unpack("<I", _read_exact(fh, 4, path, where))
            p_final = _read_matrix(fh, (out_dim, in_dim), path, where)
            t_final = _read_matrix(fh, (out_dim,), path, where)
            sigma_e = _read_matrix(fh, (out_dim,), path, where)
            (n_meta,) = struct.unpack("<I", _read_exact(fh, 4, path, where))
            meta = {}
            for _ in range(n_meta):
                (ln,) = struct.unpack("<I", _read_exact(fh, 4, path, where))
                key, _, value = _read_exact(fh, ln, path, where).decode("utf-8").partition("=")
                meta[key] = value
            bands.append(BandChain(j0=j0, p_final=p_final, t_final=t_final, sigma_e=sigma_e, metadata=meta))
        return ReductionModel(bands=bands, in_dim=in_dim, out_dim=out_dim)


# ---------------------------------------------------------------------------
# Trainer


def train_band(
    prints: np.ndarray,
    class_ids: np.ndarray,
    is_original: np.ndarray,
    extra_originals: np.ndarray | None = None,
    *,
    lda_dim: int = LDA_DIM,
    out_dim: int = OUT_DIM,
    seed: int = 0,
    enforce_min_originals: bool = True,
) -> BandChain:
    """Fit the full chain for one band.

    ``prints`` is (n, in_dim) with class labels; ``extra_originals`` is an
    optional pool of additional unlabeled original-signal prints that only
    feeds the ICCR and ICA fits (those need far more samples than classes).
    ``sigma_e`` is the per-component deviation of the reduced residuals
    (degraded print minus its original), taken as the OMPCA and Hadamard
    rows applied to the positive differences: the affine terms cancel in a
    difference. It is floored at 1e-9 * max(its largest entry, 1), so it
    stays strictly positive.
    """
    prints = np.asarray(prints, dtype=np.float64)
    is_original = np.asarray(is_original, dtype=bool)
    record_class, original_row = class_index(class_ids, is_original)
    originals = prints[is_original]
    pool = originals if extra_originals is None else np.vstack([originals, extra_originals])
    p_iccr, j0 = fit_iccr(pool.T, enforce_min_samples=enforce_min_originals)
    z_all = prints @ p_iccr.T
    t, b, _ = scatter_matrices(z_all, record_class, len(original_row))
    p_lda, lda_evals = fit_lda(t, b, lda_dim, len(original_row), n_samples=len(prints))
    pool_lda = (pool @ p_iccr.T) @ p_lda.T
    p_ica, t_ica, converged = fit_ica(pool_lda.T, seed=seed)
    y_all = (z_all @ p_lda.T) @ p_ica.T + t_ica
    pos, neg = build_distributions(y_all.T, record_class, original_row, seed=seed + 1)
    p_ompca, quotients = fit_ompca(pos, neg, out_dim)
    chain = BandChain(
        p_iccr=p_iccr,
        p_lda=p_lda,
        p_ica=p_ica,
        t_ica=t_ica,
        p_ompca=p_ompca,
        p_ht=hadamard_matrix(out_dim),
        j0=j0,
        metadata={
            "ica_seed": str(seed),
            "neg_seed": str(seed + 1),
            "ica_converged": str(int(converged)),
            "n_records": str(len(prints)),
            "n_classes": str(len(original_row)),
            "n_original_pool": str(len(pool)),
            "lda_eig_max": repr(float(lda_evals[0])),
            "rayleigh_first": repr(float(quotients[0])),
            "rayleigh_last": repr(float(quotients[-1])),
        },
    )
    compose_final(chain)
    sigma = (chain.p_ht @ p_ompca @ pos).std(axis=1, ddof=1)
    chain.sigma_e = np.maximum(sigma, 1e-9 * max(float(sigma.max()), 1.0))
    return chain


def train_reduction(
    prints: np.ndarray,
    class_ids: np.ndarray,
    is_original: np.ndarray,
    pools: np.ndarray | None = None,
    *,
    lda_dim: int = LDA_DIM,
    seed: int = 0,
    enforce_min_originals: bool = True,
) -> ReductionModel:
    """Fit all per-band chains, one band per ``parallel_map`` item.

    ``prints`` is (n, bands, in_dim) with one class label per record;
    ``pools`` is an optional (m, bands, in_dim) stack of extra original
    prints. Seeds are derived per band for determinism. Each band is fitted
    at one OpenBLAS thread, in a forked worker or in this process, so the
    model's bytes do not depend on the CPU count.
    """

    def fit_band(b):
        return train_band(
            prints[:, b],
            class_ids,
            is_original,
            None if pools is None else pools[:, b],
            lda_dim=lda_dim,
            seed=seed * 1000 + b,
            enforce_min_originals=enforce_min_originals,
        )

    bands = list(parallel_map(fit_band, range(prints.shape[1])))
    return ReductionModel(bands=bands, in_dim=prints.shape[2])
