"""Binarization, LSH code derivation, reliability, and the extended hash table.

A reduced 40-dim print is binarized by sign into a 40-bit integer. Exact
40-bit matching would be destroyed by a single flipped bit, so 51 smaller
16-bit codes are derived from reproducible pseudo-random bit selections: a
degradation that flips a few bits corrupts some of the 51 codes but rarely
all. Codes from the 5 bands and 51 selections share one table through 24-bit
extended codes (8-bit slot = band * 51 + selection, plus the 16-bit code).
``derive_codes`` is the one derivation from reduced prints to extended codes,
batched over bands and prints: the index stores each print's 10 most reliable
codes and a query looks up all 51, both through it, so that reference and
query sub-codes agree bit for bit. The one-print scalar forms and the
Monte-Carlo check of ``expected_unchanged`` are test oracles
(``tests/reference.py``).

The table is one array of (code, track, time) postings sorted in that order,
so the index file grows with the catalog; lookups go through 2^18 + 1 bucket
starts over ``code >> 6``, derived from the sorted codes and never stored.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from printdex import audio as _audio

CODE_BITS = 40
N_LSH = 51
LSH_BITS = 16
N_RELIABLE = 10
N_BANDS = 5
EXT_TABLE_SIZE = 1 << 24
DIR_SHIFT = 6  # one lookup-directory bucket per 64 consecutive codes
# STEP 1 counts matches per 15 s reference segment: 752 frames.
SEGMENT_FRAMES = int(round(15.0 * _audio.SAMPLE_RATE / _audio.HOP_SAMPLES))

INDEX_MAGIC = b"BMIX"
INDEX_VERSION = 2

_POSTING_DTYPE = np.dtype([("code", "<u4"), ("track", "<u4"), ("time", "<u4")])
_MASK64 = (1 << 64) - 1


def binarize_bits(z: np.ndarray) -> np.ndarray:
    """Batch binarization: (..., 40) reduced prints -> (..., 40) uint8 bits."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite component in reduced print")
    return (z >= 0).astype(np.uint8)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class LshSpec:
    """51 reproducible selections of 16 distinct bit positions in [0, 40)."""

    seed: int
    selections: np.ndarray  # (N_LSH, LSH_BITS) int8

    def __post_init__(self):
        if self.selections.shape != (N_LSH, LSH_BITS):
            raise ValueError("selections must be 51 x 16")


def make_lsh_spec(seed: int) -> LshSpec:
    """Derive the bit selections from a 64-bit seed.

    One splitmix64 stream seeded with ``seed`` drives a partial Fisher-Yates
    shuffle of [0..39] per selection; the first 16 entries are kept. Same
    seed, same spec, forever.
    """
    state = seed & _MASK64
    selections = np.empty((N_LSH, LSH_BITS), dtype=np.int8)
    for ell in range(N_LSH):
        positions = list(range(CODE_BITS))
        for i in range(LSH_BITS):
            state, rnd = _splitmix64(state)
            j = i + rnd % (CODE_BITS - i)
            positions[i], positions[j] = positions[j], positions[i]
        selections[ell] = positions[:LSH_BITS]
    selections.setflags(write=False)
    return LshSpec(seed=seed, selections=selections)


def codes_from_bits(bits: np.ndarray, spec: LshSpec) -> np.ndarray:
    """Batch code derivation: (..., 40) bits -> (..., 51) uint16."""
    gathered = bits[..., spec.selections.astype(np.int64)].astype(np.uint16)
    weights = (1 << np.arange(LSH_BITS, dtype=np.uint16)).astype(np.uint16)
    return (gathered * weights).sum(axis=-1, dtype=np.uint32).astype(np.uint16)


def reliability_batch(z: np.ndarray, sigma_e: np.ndarray, spec: LshSpec) -> np.ndarray:
    """(..., n, 40) reduced prints -> (..., n, 51) reliabilities.

    ``sigma_e`` is (40,), or (..., 40) with one deviation vector per leading
    index of ``z``.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    sigma_e = np.asarray(sigma_e, dtype=np.float64)
    p_flip = 0.5 * scipy.special.erfc(np.abs(z) / (sigma_e[..., None, :] * np.sqrt(2.0)))
    keep = np.log1p(-np.minimum(p_flip, 1.0 - 1e-300))
    return np.exp(keep[..., spec.selections.astype(np.int64)].sum(axis=-1))


def extended_code(band, lsh_index, beta) -> np.ndarray:
    """24-bit extended code: (band * 51 + selection) << 16 | beta.

    ``band`` is 0-based so the slot fits 8 bits (max 254 for 5 bands).
    """
    slot = np.asarray(band, dtype=np.uint32) * N_LSH + np.asarray(lsh_index, dtype=np.uint32)
    return (slot << 16) | np.asarray(beta, dtype=np.uint32)


def derive_codes(reduced: np.ndarray, sigma_e, spec: LshSpec, n_keep: int) -> np.ndarray:
    """Extended codes of reduced prints, all bands at once.

    ``reduced`` is (n, bands, 40) and ``sigma_e`` holds each band's 40 noise
    deviations. Returns band-major codes (bands, n, n_keep): per print, the
    ``n_keep`` most reliable of the 51 codes (ties keep the lower selection
    index), in selection order. Reliabilities are computed only to choose
    the kept codes, so keeping all 51 never reads ``sigma_e``.
    """
    if not 1 <= n_keep <= N_LSH:
        raise ValueError(f"codes kept per print must be in [1, {N_LSH}], got {n_keep}")
    if reduced.shape[-1] != CODE_BITS:
        raise ValueError(f"reduced prints must have {CODE_BITS} components, got {reduced.shape[-1]}")
    z = np.ascontiguousarray(np.swapaxes(reduced, 0, 1), dtype=np.float64)
    betas = codes_from_bits(binarize_bits(z), spec)
    selection = np.arange(N_LSH)
    if n_keep < N_LSH:
        rel = reliability_batch(z, sigma_e, spec)
        selection = np.sort(np.argsort(-rel, axis=2, kind="stable")[:, :, :n_keep], axis=2)
        betas = np.take_along_axis(betas, selection, axis=2)
    bands = np.arange(z.shape[0])[:, None, None]
    return extended_code(bands, selection, betas)


def expected_unchanged(k: int) -> float:
    """Mean number of the 51 codes surviving k corrupted bits out of 40.

    The independence approximation of the paper's table: each selected bit
    survives with probability 1 - k/40, a 16-bit code with (1 - k/40)**16,
    giving 34.0/6.02/0.86 at k = 1/5/9. With exactly k distinct bits flipped,
    a code survives when its 16 positions avoid all k, so the exact count is
    51 * C(40 - k, 16) / C(40, 16): 30.6/3.29/0.24 at k = 1/5/9.
    """
    if not 0 <= k <= CODE_BITS:
        raise ValueError(f"k must be in [0, {CODE_BITS}]")
    return N_LSH * (1.0 - k / CODE_BITS) ** LSH_BITS


def collision_mean() -> float:
    """Mean collisions of one code pair for unrelated audio: L / 2^b."""
    return N_LSH / float(1 << LSH_BITS)


# ---------------------------------------------------------------------------
# Hash table and catalog index


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated arange(start, start+count) for all ranges, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = starts - np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(shifts, counts) + np.arange(total)


def _directory(codes: np.ndarray) -> np.ndarray:
    """Start of each ``code >> DIR_SHIFT`` bucket in sorted ``codes``, then the end."""
    return np.cumsum(np.bincount((codes >> DIR_SHIFT).astype(np.int64) + 1, minlength=(EXT_TABLE_SIZE >> DIR_SHIFT) + 1))


class HashTable:
    """Postings sorted by (code, track, time) and their bucket directory ``offsets``.

    Inserts collect until ``freeze`` sorts them; ``postings`` is None until then.
    """

    def __init__(self):
        self._pending: list = []
        self.offsets: np.ndarray | None = None
        self.postings: np.ndarray | None = None

    def insert(self, codes, tracks, times) -> None:
        if self.postings is not None:
            raise RuntimeError("cannot insert into a frozen table")
        codes = np.atleast_1d(np.asarray(codes))
        if codes.size and (codes.min() < 0 or codes.max() >= EXT_TABLE_SIZE):
            raise ValueError(f"extended code outside [0, {EXT_TABLE_SIZE})")
        recs = np.empty(len(codes), dtype=_POSTING_DTYPE)
        recs["code"] = codes
        for name, values in (("track", tracks), ("time", times)):
            values = np.asarray(values)
            limit = np.iinfo(_POSTING_DTYPE[name]).max
            if values.size and (values.min() < 0 or values.max() > limit):
                raise ValueError(f"posting {name} outside the field's range [0, {limit}]")
            recs[name] = values
        self._pending.append(recs)

    def freeze(self) -> None:
        if self.postings is not None:
            return
        recs = np.concatenate(self._pending) if self._pending else np.empty(0, dtype=_POSTING_DTYPE)
        self.postings = recs[np.lexsort((recs["time"], recs["track"], recs["code"]))]
        self.offsets = _directory(self.postings["code"])
        self._pending = []

    def lookup_many(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Postings for many codes at once.

        Returns (counts per code, concatenated postings in code order).
        """
        if self.postings is None:
            raise RuntimeError("freeze the table before lookup")
        codes = np.asarray(codes, dtype=np.int64)
        starts = self.offsets[codes >> DIR_SHIFT]
        sizes = self.offsets[(codes >> DIR_SHIFT) + 1] - starts
        rows = _gather_ranges(starts, sizes)
        keep = self.postings["code"][rows] == np.repeat(codes, sizes)
        counts = np.bincount(np.repeat(np.arange(len(codes)), sizes)[keep], minlength=len(codes))
        return counts, self.postings[rows[keep]]

    @property
    def n_postings(self) -> int:
        return 0 if self.postings is None else len(self.postings)

    def bucket_loads(self) -> np.ndarray:
        """Postings per distinct extended code."""
        return np.diff(np.flatnonzero(np.diff(self.postings["code"], prepend=-1, append=-1)))


@dataclass
class TrackInfo:
    """Name and duration of one catalog track; ``CatalogIndex.tracks`` keys it by id."""

    name: str
    duration: float


@dataclass
class CatalogIndex:
    """Frozen hash table plus track metadata.

    The rate, hop, segment length, band count and L' are this build's
    constants; the file header repeats them and ``load_index`` checks them.
    """

    table: HashTable
    tracks: dict
    lsh_seed: int
    n_bands: int = N_BANDS
    spec: LshSpec = field(default=None)

    def __post_init__(self):
        if self.spec is None:
            self.spec = make_lsh_spec(self.lsh_seed)


def save_index(path, index: CatalogIndex) -> None:
    """Write the version-2 BMIX index file: header, sorted postings, track records."""
    table = index.table
    if table.postings is None:
        raise RuntimeError("freeze the table before saving")
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(
            struct.pack(
                "<HHHHHQIIIQI",
                INDEX_VERSION,
                N_LSH,
                N_RELIABLE,
                LSH_BITS,
                index.n_bands,
                index.lsh_seed & _MASK64,
                _audio.SAMPLE_RATE,
                _audio.HOP_SAMPLES,
                SEGMENT_FRAMES,
                table.n_postings,
                len(index.tracks),
            )
        )
        np.ascontiguousarray(table.postings, dtype=_POSTING_DTYPE).tofile(fh)
        for tid in sorted(index.tracks):
            info = index.tracks[tid]
            name = info.name.encode("utf-8")
            fh.write(struct.pack("<IdH", tid, info.duration, len(name)))
            fh.write(name)


def _read_exact(fh, n: int, path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated index file {path!r}: {what} needs {n} bytes, {len(data)} left")
    return data


def load_index(path) -> CatalogIndex:
    """Read a version-2 BMIX file whose header geometry is this build's."""
    with open(path, "rb") as fh:
        if fh.read(4) != INDEX_MAGIC:
            raise ValueError(f"{path!r} is not an index file")
        header = struct.unpack("<HHHHHQIIIQI", _read_exact(fh, 42, path, "header"))
        (version, n_lsh, n_reliable, lsh_bits, n_bands, seed, sample_rate, hop, segment_frames, n_postings, n_tracks) = header
        if version != INDEX_VERSION:
            raise ValueError(f"unsupported index version {version} in {path!r}: this build reads version {INDEX_VERSION}")
        geometry = (n_lsh, n_reliable, lsh_bits, n_bands, sample_rate, hop, segment_frames)
        expected = (N_LSH, N_RELIABLE, LSH_BITS, N_BANDS, _audio.SAMPLE_RATE, _audio.HOP_SAMPLES, SEGMENT_FRAMES)
        if geometry != expected:
            raise ValueError(
                f"unsupported index geometry in {path!r}: (L, L', b, bands, sample rate, hop, segment frames) is {geometry}, "
                f"this build needs {expected}"
            )
        # A forged count must fail here, not as a MemoryError in the read it sizes.
        needed = 4 + 42 + _POSTING_DTYPE.itemsize * n_postings + 14 * n_tracks
        size = os.fstat(fh.fileno()).st_size
        if needed > size:
            raise ValueError(
                f"truncated index file {path!r}: header claims {n_postings} postings and {n_tracks} tracks, "
                f"needing at least {needed} bytes, file has {size}"
            )
        postings = np.frombuffer(_read_exact(fh, _POSTING_DTYPE.itemsize * n_postings, path, "postings"), dtype=_POSTING_DTYPE)
        codes = postings["code"]
        if n_postings and (np.any(codes[1:] < codes[:-1]) or codes[-1] >= EXT_TABLE_SIZE):
            raise ValueError(f"corrupt index file {path!r}: posting codes are not sorted or not below {EXT_TABLE_SIZE}")
        tracks = {}
        for _ in range(n_tracks):
            tid, duration, name_len = struct.unpack("<IdH", _read_exact(fh, 14, path, "track record"))
            name = _read_exact(fh, name_len, path, "track name").decode("utf-8")
            if tid in tracks:
                raise ValueError(f"corrupt index file {path!r}: track id {tid} is recorded twice")
            tracks[tid] = TrackInfo(name=name, duration=duration)
    table = HashTable()
    table.offsets = _directory(codes)
    table.postings = postings
    return CatalogIndex(
        table=table,
        tracks=tracks,
        lsh_seed=seed,
        n_bands=n_bands,
    )
