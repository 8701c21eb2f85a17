"""Sequence similarity fallback: k-mer candidate search + banded local alignment.

Candidates are retrieved from an inverted k-mer index (shared distinct k-mer
count, ties toward the earlier insertion) and re-scored with a banded
affine-gap local aligner.  Scoring is +1 match, -1 mismatch; a gap of length L
costs ``gap_open + (L - 1) * gap_extend`` (the first gap residue pays the open
cost).  The band is centred on the main diagonal with half-width
``2 * |len(a) - len(b)| + band_pad``, so near-full-length homologs stay inside
it while the DP cost stays linear in the band width.

Two deliberately separate implementations of the same alignment contract live
here: :func:`banded_local_align` (vectorized rows, production path) and
:func:`full_local_align` (plain-loop full matrix, the reference the banded
version is checked against).  Both resolve ties identically — the best cell is
the first maximum in row-major order, and traceback prefers stop, then
diagonal, then vertical gap, then horizontal gap — so on pairs whose optimal
path stays inside the band they agree exactly, not just on score.

The banded kernel stores each row as a window of ``min(2w + 1, len(b) + 1)``
columns that moves right by at most one column a row: the band in diagonal
coordinates, narrowed to the real cells when ``b`` is short.  A DP row is about
ten in-place NumPy calls into an int32 H plane and a flag plane marking cells
whose H came from a vertical gap; E and F live one row at a time.  The best
cell is one ``argmax``, and the traceback re-derives only the path's steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ECNumber, ProteinRecord

__all__ = [
    "AlignmentError",
    "AlignmentParams",
    "AlignmentResult",
    "Hit",
    "KmerIndex",
    "banded_local_align",
    "full_local_align",
]

_NEG = -(1 << 40)  # forbidden-cell sentinel; far below any reachable score
# int32 band planes: _BAND_LIMIT keeps scores far from the sentinel and overflow
_BAND_NEG = -(1 << 29)
_BAND_LIMIT = 1 << 28


class AlignmentError(ValueError):
    """Invalid aligner parameters or a duplicate reference sequence id."""


@dataclass(frozen=True)
class AlignmentParams:
    """Knobs for candidate retrieval and banded alignment."""

    k: int = 5
    max_candidates: int = 50
    min_identity: float = 0.4
    match: int = 1
    mismatch: int = -1
    gap_open: int = 11
    gap_extend: int = 1
    band_pad: int = 16

    def __post_init__(self) -> None:
        if not 3 <= self.k <= 7:
            raise AlignmentError(f"k must be in 3..7, got {self.k}")
        if self.max_candidates < 1:
            raise AlignmentError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if not 0.0 <= self.min_identity <= 1.0:
            raise AlignmentError(f"min_identity must be in [0, 1], got {self.min_identity}")
        # the single-pass horizontal-gap scan assumes opening never beats extending
        if not self.gap_open >= self.gap_extend >= 0:
            raise AlignmentError(
                f"need gap_open >= gap_extend >= 0, got {self.gap_open}/{self.gap_extend}"
            )
        if self.band_pad < 0:
            raise AlignmentError(f"band_pad must be >= 0, got {self.band_pad}")

    def band_half_width(self, len_a: int, len_b: int) -> int:
        return 2 * abs(len_a - len_b) + self.band_pad


@dataclass(frozen=True)
class AlignmentResult:
    """Best local alignment of one pair: score plus traceback tallies."""

    score: int
    matches: int
    columns: int

    @property
    def identity(self) -> float:
        return self.matches / self.columns if self.columns else 0.0


_EMPTY = AlignmentResult(score=0, matches=0, columns=0)


@dataclass(frozen=True)
class Hit:
    """One scored database match, carrying its transferable labels."""

    id: str
    identity: float
    score: float
    columns: int
    matches: int
    labels: tuple[ECNumber, ...]


def _hit_rank_key(hit: Hit):
    return (-hit.identity, -hit.score, hit.id)


def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """Writable view of every ``width``-long window along the last axis of ``x``."""
    shape = x.shape[:-1] + (x.shape[-1] - width + 1, width)
    return np.ndarray(shape, x.dtype, x, 0, x.strides + x.strides[-1:])


def banded_local_align(a: str, b: str, params: AlignmentParams = AlignmentParams()) -> AlignmentResult:
    """Affine-gap local alignment restricted to a diagonal band.

    Out-of-band cells are unreachable, so the result is a lower bound on the
    unrestricted optimum and equals it whenever the optimal path fits in the
    band.  Planes are int32: a pair with ``(len(a) + len(b) + 4w + 4) *
    max(|match|, |mismatch|, gap_open) >= 2**28`` raises AlignmentError (with the
    default scores, lengths summing to under four million residues always fit).
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return _EMPTY
    # |j - i| < max(n, m) on every cell, so a wider band adds only dead slots
    w = min(params.band_half_width(n, m), max(n, m) - 1)
    match, mismatch = params.match, params.mismatch
    open_, ext = params.gap_open, params.gap_extend
    if (n + m + 4 * w + 4) * max(abs(match), abs(mismatch), open_, 1) >= _BAND_LIMIT:
        raise AlignmentError(f"pair of lengths {n} and {m} exceeds the int32 band limit")

    # Row i stores the ``width`` columns from u[i] on: its first real column,
    # pulled left so as not to pass the band's edge at i + w.  With width 2w + 1
    # that is the band in diagonal coordinates; when b is shorter, the window
    # holds all of b.  u steps by 0 or 1 a row, so the cells above-left and
    # above a row's first column are that step and the next in row i - 1.
    # Storage column c is column u[i] + c - 1; 0 and width + 1 are sentinels.
    width = min(2 * w + 1, m + 1)
    rows = np.arange(n + 1)
    u = np.minimum(np.maximum(rows - w, 0), rows + w + 1 - width).tolist()

    # one score row per letter of a over columns base .. u[n] + width - 1 (row n
    # reaches column m); the sentinel off the matrix and on column 0, which
    # only floors to 0
    base = min(u[1], 0)
    codes = np.full(u[n] + width - base, -1, dtype=np.int16)
    codes[-base] = -2
    codes[1 - base : m + 1 - base] = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    letters = "".join(sorted(set(a)))
    letter_codes = np.frombuffer(letters.encode("ascii"), dtype=np.uint8)[:, None]
    profile = np.where(codes == letter_codes, np.int32(match), np.int32(mismatch))
    profile[:, codes < 0] = _BAND_NEG
    floor = np.where(codes == -1, np.int32(_BAND_NEG), np.int32(0))

    h = np.full((n + 1, width + 2), _BAND_NEG, dtype=np.int32)
    h[0, 1 - u[0] : min(m, w) - u[0] + 2] = 0
    from_f = np.zeros((n + 1, width), dtype=bool)  # final H equals F
    ramp = np.arange(width, dtype=np.int32) * ext
    e_offset = ramp[:-1] + open_  # open + (t - 1) * ext for t >= 1
    scan = np.empty(width, dtype=np.int32)
    e_row = np.empty(width - 1, dtype=np.int32)
    h_win, sub_win, floor_win = _windows(h, width), _windows(profile, width), _windows(floor, width)
    f_prev, f_next = _windows(np.full((2, width + 2), _BAND_NEG, dtype=np.int32), width)
    letter_rows = [letters.index(ch) for ch in a]
    for i, (letter, first_above, first) in enumerate(zip(letter_rows, u, u[1:]), 1):
        d, c = first - first_above, first - base
        h_row, f_row = h_win[i, 1], f_next[1]
        np.add(h_win[i - 1, d], sub_win[letter, c], out=h_row)
        np.subtract(h_win[i - 1, d + 1], open_, out=scan)
        np.subtract(f_prev[d + 1], ext, out=f_row)
        np.maximum(f_row, scan, out=f_row)
        np.maximum(h_row, f_row, out=h_row)
        np.maximum(h_row, floor_win[c], out=h_row)
        # horizontal gaps in one scan: max over t' < t of h[t'] - open - (t-1-t')*ext
        np.add(h_row, ramp, out=scan)
        np.maximum.accumulate(scan, out=scan)
        np.subtract(scan[:-1], e_offset, out=e_row)
        np.maximum(h_row[1:], e_row, out=h_row[1:])
        np.equal(h_row, f_row, out=from_f[i])
        f_prev, f_next = f_next, f_prev

    # Columns past m can carry a gap out of a real cell but never beat the
    # real cell it came from, which is earlier in row-major order.
    i, col = divmod(int(np.argmax(h)), width + 2)
    best_score = int(h[i, col])
    if best_score <= 0:
        return _EMPTY

    # re-derive each step on the path: stop > diagonal > vertical > horizontal.
    # A gap carries its own value: F(i, j) is H(i-1, j) - open where it opens,
    # else F(i-1, j) - ext, and E(i, j) likewise along the row.
    matches = columns = 0
    j = u[i] + col - 1
    state, gap = "H", 0
    while i > 0 and j > 0:
        if state == "H":
            here = int(h[i, j - u[i] + 1])
            if here == 0:
                break
            same = a[i - 1] == b[j - 1]
            if here == int(h[i - 1, j - u[i - 1]]) + (match if same else mismatch):
                columns += 1
                matches += same
                i -= 1
                j -= 1
            else:
                state, gap = ("F" if from_f[i, j - u[i]] else "E"), here
        else:
            columns += 1
            i, j = (i - 1, j) if state == "F" else (i, j - 1)
            if gap == int(h[i, j - u[i] + 1]) - open_:
                state = "H"
            gap += ext
    return AlignmentResult(score=best_score, matches=matches, columns=columns)


def full_local_align(a: str, b: str, params: AlignmentParams = AlignmentParams()) -> AlignmentResult:
    """Unrestricted affine-gap local alignment, plain full-matrix loops.

    Reference implementation: quadratic everywhere, no banding, no
    vectorization.  Shares the tie policy of :func:`banded_local_align`.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return _EMPTY
    match, mismatch = params.match, params.mismatch
    open_, ext = params.gap_open, params.gap_extend

    h = [[0] * (m + 1) for _ in range(n + 1)]
    e = [[_NEG] * (m + 1) for _ in range(n + 1)]
    f = [[_NEG] * (m + 1) for _ in range(n + 1)]
    ph = [[0] * (m + 1) for _ in range(n + 1)]
    pe = [[0] * (m + 1) for _ in range(n + 1)]
    pf = [[0] * (m + 1) for _ in range(n + 1)]

    best_score, best_i, best_j = 0, 0, 0
    for i in range(1, n + 1):
        ai = a[i - 1]
        hi, hi1 = h[i], h[i - 1]
        ei, fi = e[i], f[i]
        for j in range(1, m + 1):
            ev_open = hi[j - 1] - open_
            ev_ext = ei[j - 1] - ext
            if ev_open >= ev_ext:
                ei[j] = ev_open
                pe[i][j] = 1
            else:
                ei[j] = ev_ext
            fv_open = hi1[j] - open_
            fv_ext = f[i - 1][j] - ext
            if fv_open >= fv_ext:
                fi[j] = fv_open
                pf[i][j] = 1
            else:
                fi[j] = fv_ext
            dv = hi1[j - 1] + (match if ai == b[j - 1] else mismatch)
            val = 0
            if dv > val:
                val = dv
            if fi[j] > val:
                val = fi[j]
            if ei[j] > val:
                val = ei[j]
            hi[j] = val
            if val == 0:
                ph[i][j] = 0
            elif val == dv:
                ph[i][j] = 1
            elif val == fi[j]:
                ph[i][j] = 2
            else:
                ph[i][j] = 3
            if val > best_score:
                best_score, best_i, best_j = val, i, j

    if best_score <= 0:
        return _EMPTY

    matches = columns = 0
    i, j = best_i, best_j
    state = "H"
    while True:
        if state == "H":
            code = ph[i][j]
            if code == 0:
                break
            if code == 1:
                columns += 1
                matches += a[i - 1] == b[j - 1]
                i -= 1
                j -= 1
            elif code == 2:
                state = "F"
            else:
                state = "E"
        elif state == "F":
            columns += 1
            state = "H" if pf[i][j] == 1 else "F"
            i -= 1
        else:
            columns += 1
            state = "H" if pe[i][j] == 1 else "E"
            j -= 1
    return AlignmentResult(score=best_score, matches=matches, columns=columns)


class KmerIndex:
    """Inverted index of distinct k-mers over a reference set of sequences."""

    def __init__(self, params: AlignmentParams = AlignmentParams()):
        self.params = params
        self._ids: list[str] = []
        self._seqs: list[str] = []
        self._labels: list[tuple[ECNumber, ...]] = []
        self._postings: dict[str, list[int]] = {}
        self._index_of: dict[str, int] = {}

    @classmethod
    def build(cls, records: Sequence[ProteinRecord], params: AlignmentParams = AlignmentParams()) -> "KmerIndex":
        index = cls(params)
        for rec in records:
            index._add(rec.id, rec.seq, rec.ecs)
        return index

    def _add(self, seq_id: str, seq: str, labels: tuple[ECNumber, ...]) -> None:
        if seq_id in self._index_of:
            raise AlignmentError(f"duplicate sequence id {seq_id!r}")
        idx = len(self._ids)
        self._index_of[seq_id] = idx
        self._ids.append(seq_id)
        self._seqs.append(seq)
        self._labels.append(tuple(labels))
        k = self.params.k
        for kmer in {seq[p : p + k] for p in range(len(seq) - k + 1)}:
            self._postings.setdefault(kmer, []).append(idx)

    def __len__(self) -> int:
        return len(self._ids)

    def candidates(self, query: str) -> list[int]:
        """Reference indices ranked by shared distinct k-mers, capped."""
        k = self.params.k
        counts: dict[int, int] = {}
        for kmer in {query[p : p + k] for p in range(len(query) - k + 1)}:
            for idx in self._postings.get(kmer, ()):
                counts[idx] = counts.get(idx, 0) + 1
        ranked = sorted(counts, key=lambda idx: (-counts[idx], idx))
        return ranked[: self.params.max_candidates]

    def align_all(self, query: str) -> list[Hit]:
        """Banded alignment against every candidate, best-first."""
        hits = []
        for idx in self.candidates(query):
            res = banded_local_align(query, self._seqs[idx], self.params)
            if res.columns == 0:
                continue
            hits.append(
                Hit(
                    id=self._ids[idx],
                    identity=res.identity,
                    score=float(res.score),
                    columns=res.columns,
                    matches=res.matches,
                    labels=self._labels[idx],
                )
            )
        hits.sort(key=_hit_rank_key)
        return hits
