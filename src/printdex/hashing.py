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

The table holds one row per indexed print, (track, frame), sorted in that
order, and one 32-bit posting per stored code: the code's low 6 bits above
the print's 26-bit row, sorted by (code, print), which is (code, track,
frame) order. Print ids are assigned at insert: each track's prints are
inserted once, in (track, frame) order, so a print's id is the running row
count. The directory of 2^18 + 1 bucket starts over ``code >> 6`` supplies
the rest of each code, so a print's track and frame are stored once instead
of in each of its 50 postings and the index file grows by 208 bytes per
print.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from printdex import audio as _audio
from printdex.prints import N_BANDS

CODE_BITS = 40
N_LSH = 51
LSH_BITS = 16
N_RELIABLE = 10
EXT_TABLE_SIZE = 1 << 24
DIR_SHIFT = 6  # one lookup-directory bucket per 64 consecutive codes
# STEP 1 counts matches per 15 s reference segment: 752 frames.
SEGMENT_FRAMES = int(round(15.0 * _audio.SAMPLE_RATE / _audio.HOP_SAMPLES))

INDEX_MAGIC = b"BMIX"
INDEX_VERSION = 4
# Directory entries are u32, so a table holds at most this many postings.
MAX_POSTINGS = (1 << 32) - 1
# A posting is one u32, (code & 63) << PRINT_BITS | print id, so a table holds
# at most this many prints.
PRINT_BITS = 26
MAX_PRINTS = 1 << PRINT_BITS

_N_BUCKETS = EXT_TABLE_SIZE >> DIR_SHIFT
_LOW_MASK = (1 << DIR_SHIFT) - 1
_PRINT_MASK = (1 << PRINT_BITS) - 1
_PRINT_DTYPE = np.dtype([("track", "<u4"), ("time", "<u4")])
# after the magic and the u16 version: L, L', b, bands, LSH seed, sample rate,
# hop, segment frames, posting, print and track counts, model SHA-256
_HEADER = struct.Struct("<HHHHQIIIQQI32s")
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


@functools.lru_cache(maxsize=None)
def make_lsh_spec(seed: int) -> LshSpec:
    """Derive the bit selections from a 64-bit seed.

    One splitmix64 stream seeded with ``seed`` drives a partial Fisher-Yates
    shuffle of [0..39] per selection; the first 16 entries are kept. Same
    seed, same spec, forever: the spec is cached per seed and read-only.
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
    """u32 start of each ``code >> DIR_SHIFT`` bucket in sorted ``codes``, then the end."""
    return np.cumsum(np.bincount((codes >> DIR_SHIFT).astype(np.int64) + 1, minlength=_N_BUCKETS + 1)).astype(np.uint32)


class HashTable:
    """Prints sorted by (track, time), postings sorted by (code, print), and the directory ``offsets``.

    ``insert`` appends one run of a track's prints and assigns each its print
    id, its row in ``prints``, so the (track, time) keys must rise strictly
    across all inserts. ``postings`` (u32) holds each code's low ``DIR_SHIFT``
    bits above its print's ``PRINT_BITS``-bit id, so (code, print) order is
    u32 order within a bucket; ``offsets`` (u32) starts each
    ``code >> DIR_SHIFT`` bucket. ``freeze`` sorts the postings; the arrays
    are None until then.
    """

    def __init__(self):
        self._prints = [np.empty(0, dtype=_PRINT_DTYPE)]
        self._keys = [np.empty(0, dtype=np.uint64)]  # code << PRINT_BITS | print id
        self._n_prints = self._n_postings = 0
        self._last = (-1, -1)  # (track, time) of the last inserted print
        self.offsets = self.postings = self.prints = None

    def insert(self, track: int, frames, codes) -> None:
        """Append ``track``'s prints at strictly increasing ``frames``, with one row of ``codes`` per print."""
        if self.postings is not None:
            raise RuntimeError("cannot insert into a frozen table")
        frames, codes = np.atleast_1d(np.asarray(frames)), np.asarray(codes)
        limit = np.iinfo(_PRINT_DTYPE["track"]).max
        if not 0 <= track <= limit or (frames.size and (frames.min() < 0 or frames.max() > limit)):
            raise ValueError(f"track {track} or one of its frames is outside the field's range [0, {limit}]")
        if codes.ndim != 2 or len(codes) != len(frames) or codes.size < len(frames):
            raise ValueError(f"codes of track {track} must be one row of at least one code per frame, got {codes.shape} for {len(frames)} frames")
        if codes.size and (codes.min() < 0 or codes.max() >= EXT_TABLE_SIZE):
            raise ValueError(f"extended code outside [0, {EXT_TABLE_SIZE})")
        if np.any(frames[1:] <= frames[:-1]):
            raise ValueError(f"frames of track {track} do not rise strictly")
        if len(frames) and (track, frames[0]) <= self._last:
            raise ValueError(f"print ({track}, {frames[0]}) follows print {self._last}: insert each (track, frame) once, in increasing order")
        n_postings = self._n_postings + codes.size
        if n_postings > MAX_POSTINGS:
            raise ValueError(f"cannot index {n_postings} postings: directory entries are u32, so at most {MAX_POSTINGS}")
        n_prints = self._n_prints + len(frames)
        if n_prints > MAX_PRINTS:
            raise ValueError(f"cannot index {n_prints} prints: a posting holds a {PRINT_BITS}-bit print id, so at most {MAX_PRINTS}")
        prints = np.empty(len(frames), dtype=_PRINT_DTYPE)
        prints["track"], prints["time"] = track, frames
        keys = codes.astype(np.uint64)
        keys <<= PRINT_BITS
        keys |= np.arange(self._n_prints, n_prints, dtype=np.uint64)[:, None]
        self._prints.append(prints)
        self._keys.append(keys.reshape(-1))
        self._n_prints, self._n_postings = n_prints, n_postings
        if len(frames):
            self._last = (int(track), int(frames[-1]))

    def freeze(self) -> None:
        if self.postings is not None:
            return
        self.prints = np.concatenate(self._prints)
        # print ids follow (track, time), so (code, print) order is (code, track, time) order
        keys = np.concatenate(self._keys)
        self._prints = self._keys = None
        keys.sort()
        self.postings = keys.astype(np.uint32)  # the low 32 bits: (code & 63) << PRINT_BITS | print id
        keys >>= PRINT_BITS
        self.offsets = _directory(keys)

    def lookup_many(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Postings for many codes at once.

        Returns (counts per code, the matched prints' (track, time) records
        concatenated in code order, each code's sorted by track and time).
        """
        if self.postings is None:
            raise RuntimeError("freeze the table before lookup")
        codes = np.asarray(codes, dtype=np.int64)
        buckets = codes >> DIR_SHIFT
        starts = self.offsets[buckets].astype(np.int64)
        sizes = self.offsets[buckets + 1].astype(np.int64) - starts
        found = self.postings[_gather_ranges(starts, sizes)]
        keep = (found >> PRINT_BITS) == np.repeat(codes & _LOW_MASK, sizes)
        counts = np.bincount(np.repeat(np.arange(len(codes)), sizes)[keep], minlength=len(codes))
        return counts, self.prints[found[keep] & _PRINT_MASK]

    @property
    def n_postings(self) -> int:
        return 0 if self.postings is None else len(self.postings)

    def bucket_loads(self) -> np.ndarray:
        """Postings per distinct extended code.

        A code's postings end where its bucket or its low bits change.
        """
        low = self.postings >> PRINT_BITS
        first = np.zeros(len(low) + 1, dtype=bool)
        first[self.offsets] = True  # offsets[-1] is len(low), which closes the last code
        first[1:-1] |= low[1:] != low[:-1]
        return np.diff(np.flatnonzero(first))


@dataclass
class TrackInfo:
    """Name and duration of one catalog track; ``CatalogIndex.tracks`` keys it by id."""

    name: str
    duration: float


@dataclass
class CatalogIndex:
    """Frozen hash table plus track metadata; ``spec`` is derived from ``lsh_seed``.

    ``model_sha256`` is the hex SHA-256 of the model file (as
    ``reduction.model_sha256`` computes it) whose prints the table holds. The
    rate, hop, segment length, band count and L' are this build's constants;
    the file header repeats them and ``load_index`` checks them.
    """

    table: HashTable
    tracks: dict
    lsh_seed: int
    model_sha256: str
    spec: LshSpec = field(init=False)

    def __post_init__(self):
        self.spec = make_lsh_spec(self.lsh_seed)


def save_index(path, index: CatalogIndex) -> None:
    """Write the version-4 BMIX index file: header, directory, postings, prints, track records."""
    table = index.table
    if table.postings is None:
        raise RuntimeError("freeze the table before saving")
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<H", INDEX_VERSION))
        fh.write(
            _HEADER.pack(
                N_LSH,
                N_RELIABLE,
                LSH_BITS,
                N_BANDS,
                index.lsh_seed & _MASK64,
                _audio.SAMPLE_RATE,
                _audio.HOP_SAMPLES,
                SEGMENT_FRAMES,
                table.n_postings,
                len(table.prints),
                len(index.tracks),
                bytes.fromhex(index.model_sha256),
            )
        )
        for array, dtype in ((table.offsets, "<u4"), (table.postings, "<u4"), (table.prints, _PRINT_DTYPE)):
            np.ascontiguousarray(array, dtype=dtype).tofile(fh)
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


def _read_array(fh, dtype, n: int, path, what: str) -> np.ndarray:
    return np.frombuffer(_read_exact(fh, np.dtype(dtype).itemsize * n, path, what), dtype=dtype)


def load_index(path) -> CatalogIndex:
    """Read a version-4 BMIX file whose header geometry is this build's, checking its sections."""
    with open(path, "rb") as fh:
        if fh.read(4) != INDEX_MAGIC:
            raise ValueError(f"{path!r} is not an index file")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, path, "header"))
        if version != INDEX_VERSION:
            raise ValueError(
                f"unsupported index version {version} in {path!r}: this build reads version {INDEX_VERSION}; "
                "rebuild the index with `printdex index`"
            )
        header = _HEADER.unpack(_read_exact(fh, _HEADER.size, path, "header"))
        (n_lsh, n_reliable, lsh_bits, n_bands, seed, sample_rate, hop, segment_frames, n_postings, n_prints, n_tracks, digest) = header
        geometry = (n_lsh, n_reliable, lsh_bits, n_bands, sample_rate, hop, segment_frames)
        expected = (N_LSH, N_RELIABLE, LSH_BITS, N_BANDS, _audio.SAMPLE_RATE, _audio.HOP_SAMPLES, SEGMENT_FRAMES)
        if geometry != expected:
            raise ValueError(
                f"unsupported index geometry in {path!r}: (L, L', b, bands, sample rate, hop, segment frames) is {geometry}, "
                f"this build needs {expected}"
            )
        # A forged count must fail here, not as a MemoryError in the read it sizes.
        needed = (
            6 + _HEADER.size + 4 * (_N_BUCKETS + 1) + 4 * n_postings + _PRINT_DTYPE.itemsize * n_prints + 14 * n_tracks
        )
        size = os.fstat(fh.fileno()).st_size
        if needed > size:
            raise ValueError(
                f"truncated index file {path!r}: header claims {n_postings} postings, {n_prints} prints and {n_tracks} tracks, "
                f"needing at least {needed} bytes, file has {size}"
            )
        offsets = _read_array(fh, "<u4", _N_BUCKETS + 1, path, "directory")
        postings = _read_array(fh, "<u4", n_postings, path, "postings")
        prints = _read_array(fh, _PRINT_DTYPE, n_prints, path, "prints")
        corrupt = f"corrupt index file {path!r}:"
        if offsets[0] != 0 or offsets[-1] != n_postings or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError(f"{corrupt} the directory does not rise from 0 to the posting count {n_postings}")
        if n_postings:
            # falls[i]: posting i sorts below posting i - 1, which only a bucket's first posting may
            falls = np.empty(n_postings + 1, dtype=bool)
            falls[0] = falls[n_postings] = False
            np.less(postings[1:], postings[:-1], out=falls[1:n_postings])
            falls[offsets] = False
            if falls.any():
                raise ValueError(f"{corrupt} postings are not sorted by (code, print)")
            top = int((postings & _PRINT_MASK).max())
            if top >= n_prints:
                raise ValueError(f"{corrupt} a posting names print {top} of {n_prints}")
        keys = (prints["track"].astype(np.uint64) << 32) | prints["time"]
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError(f"{corrupt} prints are not strictly increasing by (track, time)")
        tracks = {}
        for _ in range(n_tracks):
            tid, duration, name_len = struct.unpack("<IdH", _read_exact(fh, 14, path, "track record"))
            name = _read_exact(fh, name_len, path, "track name").decode("utf-8")
            if tid in tracks:
                raise ValueError(f"{corrupt} track id {tid} is recorded twice")
            tracks[tid] = TrackInfo(name=name, duration=duration)
    unrecorded = set(np.unique(prints["track"]).tolist()) - tracks.keys()
    if unrecorded:
        raise ValueError(f"{corrupt} track {min(unrecorded)} has prints but no track record")
    table = HashTable()
    table.offsets, table.postings, table.prints = offsets, postings, prints
    return CatalogIndex(table=table, tracks=tracks, lsh_seed=seed, model_sha256=digest.hex())
