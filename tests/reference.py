"""Test-side reference forms of the hashing and reduction stages.

The production paths (``hashing.derive_codes``, ``reduction.reduce_prints``)
are batched and use the composed affine map; these take one print, or one
stage, at a time. The reduction fits work on second moments; their data
forms here loop over classes, re-project the difference data at each OMPCA
step and take the noise deviations from the composed map's outputs. The
two survival simulations check the LSH model: under its independence
approximation, and with exactly k flipped bits.
``table_triples`` decodes a frozen hash table into the (code, track, time)
triples it stores, for brute-force lookups.
"""

import numpy as np
import scipy.special

from printdex.hashing import CODE_BITS, DIR_SHIFT, PRINT_BITS, LshSpec, codes_from_bits, make_lsh_spec
from printdex.reduction import BandChain, ReductionModel, _eigh, _householder_with_first_column, apply_reduction


def binarize(z) -> int:
    """40-bit code: bit k set iff component k >= 0."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (CODE_BITS,):
        raise ValueError(f"expected {CODE_BITS} components, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite component in reduced print")
    bits = (z >= 0).astype(np.uint64)
    return int((bits << np.arange(CODE_BITS, dtype=np.uint64)).sum())


def reliability(z: np.ndarray, sigma_e: np.ndarray, spec: LshSpec) -> np.ndarray:
    """Probability that no bit of each code flips under Gaussian perturbation.

    Per component, p_k = Phi(-|z_k| / sigma_k) is the sign-flip probability;
    a code survives when none of its 16 selected bits flip (independence
    approximation).
    """
    z = np.asarray(z, dtype=np.float64)
    sigma_e = np.asarray(sigma_e, dtype=np.float64)
    p_flip = 0.5 * scipy.special.erfc(np.abs(z) / (sigma_e * np.sqrt(2.0)))
    keep = np.log1p(-np.minimum(p_flip, 1.0 - 1e-300))
    return np.exp(keep[spec.selections.astype(np.int64)].sum(axis=1))


def simulate_unchanged_codes(k: int, trials: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of expected_unchanged(k) under its independence model.

    Bits flip independently with probability k/40 (k corrupted bits on
    average); a derived code is unchanged exactly when none of its selected
    bits flipped.
    """
    rng = np.random.default_rng(seed)
    flips = rng.random((trials, CODE_BITS)) < k / CODE_BITS
    return float((~flips[:, make_lsh_spec(0).selections.astype(np.int64)].any(axis=2)).sum(axis=1).mean())


def unchanged_codes_exact_flips(k: int, trials: int, seed: int = 0) -> float:
    """Mean number of the 51 codes unchanged when exactly k distinct bits of a random code flip.

    Compares the codes ``codes_from_bits`` derives before and after; the
    expectation is 51 * C(40 - k, 16) / C(40, 16).
    """
    spec = make_lsh_spec(0)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (trials, CODE_BITS), dtype=np.uint8)
    flips = np.argsort(rng.random((trials, CODE_BITS)), axis=1) < k  # k distinct positions per trial
    same = codes_from_bits(bits, spec) == codes_from_bits(bits ^ flips, spec)
    return float(same.sum(axis=1).mean())


def apply_chain(chain: BandChain, x: np.ndarray) -> np.ndarray:
    """Stage-by-stage application (reference path for the factorized map)."""
    chain.check_stages()
    z = chain.p_iccr @ x
    z = chain.p_lda @ z
    z = chain.p_ica @ z + (chain.t_ica if z.ndim == 1 else chain.t_ica[:, None])
    z = chain.p_ompca @ z
    return chain.p_ht @ z


def table_triples(table) -> np.ndarray:
    """(n_postings, 3) int64 rows (code, track, time) of a frozen table, in stored order.

    Bucket b of the directory holds ``offsets[b]:offsets[b + 1]``; a posting
    is the u32 ``low << PRINT_BITS | print id``, and its code is the bucket
    shifted left by DIR_SHIFT plus ``low``.
    """
    rows = []
    for bucket in np.flatnonzero(np.diff(table.offsets.astype(np.int64))):
        for i in range(int(table.offsets[bucket]), int(table.offsets[bucket + 1])):
            low, print_id = divmod(int(table.postings[i]), 1 << PRINT_BITS)
            track, time = table.prints[print_id]
            rows.append(((int(bucket) << DIR_SHIFT) | int(low), int(track), int(time)))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def between_class_scatter(x: np.ndarray, record_class: np.ndarray, n_classes: int) -> np.ndarray:
    """Between-class covariance of the rows of x, one center outer product at a time."""
    x = np.asarray(x, dtype=np.float64)
    n, dim = x.shape
    mu = x.sum(axis=0) / n
    centers = np.zeros((n_classes, dim))
    np.add.at(centers, record_class, x)
    centers /= np.bincount(record_class, minlength=n_classes)[:, None]
    _, first = np.unique(record_class, return_index=True)
    center_outer = np.zeros((dim, dim))
    for c in record_class[np.sort(first)]:
        center_outer += np.outer(centers[c], centers[c])
    b = center_outer / (n_classes - 1) - (n_classes / (n_classes - 1)) * np.outer(mu, mu)
    return (b + b.T) / 2.0


def fit_ompca_on_data(pos: np.ndarray, neg: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """OMPCA that projects both difference sets onto each step's complement
    and recomputes their covariances from the projected data."""
    cur_pos = np.asarray(pos, dtype=np.float64)
    cur_neg = np.asarray(neg, dtype=np.float64)
    j = cur_pos.shape[0]
    basis = np.eye(j)
    rows = np.empty((k, j))
    quotients = np.empty(k)
    for step in range(k):
        c_pos = np.atleast_2d(np.cov(cur_pos))
        c_neg = np.atleast_2d(np.cov(cur_neg))
        c_pos = c_pos + np.eye(c_pos.shape[0]) * (1e-8 * np.trace(c_pos) / c_pos.shape[0] + 1e-300)
        _, evecs = _eigh(c_neg, c_pos)
        g = evecs[:, -1] / np.linalg.norm(evecs[:, -1])
        if g[np.argmax(np.abs(g))] < 0:
            g = -g
        quotients[step] = (g @ c_neg @ g) / (g @ c_pos @ g)
        rows[step] = g @ basis
        comp = _householder_with_first_column(g)[:, 1:]
        cur_pos, cur_neg, basis = comp.T @ cur_pos, comp.T @ cur_neg, comp.T @ basis
    return rows, quotients


def noise_deviations(chain: BandChain, prints: np.ndarray, record_class: np.ndarray, original_row: np.ndarray) -> np.ndarray:
    """sigma_e of a composed chain: reduce every print, subtract each degraded
    print's original, take the per-component deviation."""
    reduced = apply_reduction(prints, ReductionModel(bands=[chain], in_dim=prints.shape[1]), 0)
    degraded = np.setdiff1d(np.arange(len(prints)), original_row)
    residuals = reduced[degraded] - reduced[original_row[record_class[degraded]]]
    sigma = residuals.std(axis=0, ddof=1)
    return np.maximum(sigma, 1e-9 * max(float(np.abs(reduced).max()), 1.0))
