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
coordinates, narrowed to the real cells when ``b`` is short.  The window's
start depends only on the row and on ``(w, width)``, so pairs that share
``(w, width)`` share every row's shifts and are stepped in lockstep, as in
inter-sequence SIMD aligners (SWIPE, Rognes 2011): a group axis in front of
the columns, longest ``a`` first so the pairs still inside their matrix are a
prefix, capped at ``_GROUP_CELLS`` plane cells.  A DP row is about ten
in-place NumPy calls for the whole group, into an int32 H plane and a flag
plane marking cells whose H came from a vertical gap; E and F live one row at
a time.  A group of one steps 1-D rows, so :func:`banded_local_align` costs
what a single-pair kernel does.  Each pair's best cell is one ``argmax``, and
its traceback re-derives only the path's steps.  :meth:`KmerIndex.align_many`
sends every candidate pair of a batch of queries through one grouped call.
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
# Plane cells (pairs x rows x stored columns) one lockstep group may hold
_GROUP_CELLS = 1 << 18
# DP rows whose substitution scores one gather fetches
_BLOCK_ROWS = 64
# diagonal steps the traceback reads at once
_DIAGONAL_STEPS = 128


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
    This is a group of one of :func:`_align_pairs`.
    """
    return _align_pairs([(a, b)], params)[0]


def _align_pairs(pairs: Sequence[tuple[str, str]], params: AlignmentParams) -> list[AlignmentResult]:
    """:func:`banded_local_align` of every ``(a, b)`` pair, in order.

    Pairs that share ``(w, width)`` share every row's window, so they are
    stepped in lockstep: longest ``a`` first, in groups of at most
    ``_GROUP_CELLS`` plane cells.  Raises AlignmentError, before aligning any
    pair, when one exceeds the int32 bound.
    """
    results = [_EMPTY] * len(pairs)
    bands: dict[tuple[int, int], list[int]] = {}
    for k, (a, b) in enumerate(pairs):
        n, m = len(a), len(b)
        if n == 0 or m == 0:
            continue
        w = _band_half_width(n, m, params)
        bands.setdefault((w, min(2 * w + 1, m + 1)), []).append(k)
    for (w, width), members in bands.items():
        members.sort(key=lambda k: -len(pairs[k][0]))
        start = 0
        while start < len(members):
            cells = (len(pairs[members[start]][0]) + 1) * (width + 2)
            group = members[start : start + max(1, _GROUP_CELLS // cells)]
            for k, res in zip(group, _align_group([pairs[k] for k in group], w, width, params)):
                results[k] = res
            start += len(group)
    return results


def _band_half_width(n: int, m: int, params: AlignmentParams) -> int:
    """The band half-width of a non-empty ``n`` x ``m`` pair; AlignmentError
    when its planes would pass the int32 bound."""
    # |j - i| < max(n, m) on every cell, so a wider band adds only dead slots
    w = min(params.band_half_width(n, m), max(n, m) - 1)
    scale = max(abs(params.match), abs(params.mismatch), params.gap_open, 1)
    if (n + m + 4 * w + 4) * scale >= _BAND_LIMIT:
        raise AlignmentError(f"pair of lengths {n} and {m} exceeds the int32 band limit")
    return w


def _align_group(
    pairs: Sequence[tuple[str, str]], w: int, width: int, params: AlignmentParams
) -> list[AlignmentResult]:
    """One lockstep group: non-empty pairs sharing ``(w, width)``, longest ``a`` first."""
    lens = [len(a) for a, _ in pairs]
    n, size = lens[0], len(pairs)
    match, mismatch = params.match, params.mismatch
    open_, ext = params.gap_open, params.gap_extend

    # Row i stores the ``width`` columns from u[i] on: its first real column,
    # pulled left so as not to pass the band's edge at i + w.  With width 2w + 1
    # that is the band in diagonal coordinates; when b is shorter, the window
    # holds all of b.  u steps by 0 or 1 a row, so the cells above-left and
    # above a row's first column are that step and the next in row i - 1.
    # Storage column c is column u[i] + c - 1; 0 and width + 1 are sentinels.
    # u depends on (w, width) alone, so the whole group shares it.
    rows = np.arange(n + 1)
    u = np.minimum(np.maximum(rows - w, 0), rows + w + 1 - width).tolist()

    # per pair, one score row per letter of the group's a over columns base ..
    # u[n] + width - 1 (row n reaches column m); the sentinel off the matrix and
    # on column 0, which only floors to 0
    base = min(u[1], 0)
    codes = np.full((size, u[n] + width - base), -1, dtype=np.int16)
    codes[:, -base] = -2
    for row, (_, b) in zip(codes, pairs):
        row[1 - base : len(b) + 1 - base] = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    letters = np.unique(np.frombuffer("".join(a for a, _ in pairs).encode("ascii"), dtype=np.uint8))
    profile = np.where(codes[:, None] == letters[:, None], np.int32(match), np.int32(mismatch))
    profile.transpose(0, 2, 1)[codes < 0] = _BAND_NEG
    floor = np.where(codes == -1, np.int32(_BAND_NEG), np.int32(0))
    # row i of pair g scores against profile row g * len(letters) + (letter of a[i - 1])
    letter_of = np.zeros(256, dtype=np.intp)
    letter_of[letters] = np.arange(len(letters))
    a_rows = np.zeros((n, size), dtype=np.intp)
    for g, (a, _) in enumerate(pairs):
        a_rows[: len(a), g] = letter_of[np.frombuffer(a.encode("ascii"), dtype=np.uint8)]
    a_rows += np.arange(0, size * len(letters), len(letters))
    firsts = np.array(u[1:]) - base
    sub_win = _windows(profile.reshape(size * len(letters), -1), width)

    h = np.full((n + 1, size, width + 2), _BAND_NEG, dtype=np.int32)
    for g, (_, b) in enumerate(pairs):
        h[0, g, 1 - u[0] : min(len(b), w) - u[0] + 2] = 0
    from_f = np.zeros((n + 1, size, width), dtype=bool)  # final H equals F
    ramp = np.arange(width, dtype=np.int32) * ext
    # open + (t - 1) * ext: E at t from the scan's entry t - 1; entry -1 is the sentinel
    e_offset = ramp - ext + open_
    scan = np.full((size, width + 1), _BAND_NEG, dtype=np.int32)
    e_row = np.empty((size, width), dtype=np.int32)
    # window views indexed (row, offset, pair, column): each row reads one offset
    h_win = _windows(h, width).swapaxes(1, 2)
    floor_win = _windows(floor, width).swapaxes(0, 1)
    f_win = _windows(np.full((2, size, width + 2), _BAND_NEG, dtype=np.int32), width).swapaxes(1, 2)

    # Rows run in segments of at most _BLOCK_ROWS over which the same pairs are
    # still inside their matrix: a prefix, since a is longest first.  ``pick``
    # selects them on the pair axis, or drops the axis for a group of one, so
    # a group of one steps the 1-D rows of a single pair.
    segments, start = [], 1
    for live in range(size, 0, -1):
        stop = lens[live - 1] + 1
        segments += [(lo, min(lo + _BLOCK_ROWS, stop), live) for lo in range(start, stop, _BLOCK_ROWS)]
        start = max(start, stop)
    for start, stop, live in segments:
        pick = 0 if size == 1 else slice(live)
        hw, flags, fw = h_win[:, :, pick], from_f[:, pick], floor_win[:, pick]
        f_prev, f_next = f_win[(start - 1) % 2][:, pick], f_win[start % 2][:, pick]
        sc, er = scan[pick], e_row[pick]
        sc_in, sc_out = sc[..., 1:], sc[..., :-1]
        subs = sub_win[a_rows[start - 1 : stop - 1, :live], firsts[start - 1 : stop - 1, None]]
        for i, first_above, first, sub in zip(
            range(start, stop), u[start - 1 : stop - 1], u[start:stop], subs[:, pick]
        ):
            d, c = first - first_above, first - base
            h_row, f_row = hw[i, 1], f_next[1]
            np.add(hw[i - 1, d], sub, out=h_row)
            np.subtract(hw[i - 1, d + 1], open_, out=sc_in)
            np.subtract(f_prev[d + 1], ext, out=f_row)
            np.maximum(f_row, sc_in, out=f_row)
            np.maximum(h_row, f_row, out=h_row)
            np.maximum(h_row, fw[c], out=h_row)
            # horizontal gaps in one scan: max over t' < t of h[t'] - open - (t-1-t')*ext
            np.add(h_row, ramp, out=sc_in)
            np.maximum.accumulate(sc_in, axis=-1, out=sc_in)
            np.subtract(sc_out, e_offset, out=er)
            np.maximum(h_row, er, out=h_row)
            np.equal(h_row, f_row, out=flags[i])
            f_prev, f_next = f_next, f_prev
    starts = np.array(u)
    return [_traceback(a, b, h[:, g], from_f[:, g], u, starts, params)
            for g, (a, b) in enumerate(pairs)]


def _traceback(a: str, b: str, h: np.ndarray, from_f: np.ndarray, u: list[int],
               starts: np.ndarray, params: AlignmentParams) -> AlignmentResult:
    """Score and tallies of one pair's best path, from its H and flag planes.

    ``u`` is each row's first stored column, as a list and as the array ``starts``.
    """
    # Columns past m can carry a gap out of a real cell but never beat the
    # real cell it came from, which is earlier in row-major order.  Rows past
    # len(a) were never written and keep the sentinel.
    width = h.shape[1] - 2
    i, col = divmod(int(np.argmax(h)), width + 2)
    best_score = int(h[i, col])
    if best_score <= 0:
        return _EMPTY

    # re-derive each step on the path: stop > diagonal > vertical > horizontal.
    # A gap carries its own value: F(i, j) is H(i-1, j) - open where it opens,
    # else F(i-1, j) - ext, and E(i, j) likewise along the row.
    match, mismatch = params.match, params.mismatch
    open_, ext = params.gap_open, params.gap_extend
    matches = columns = 0
    j = u[i] + col - 1
    state, gap = "H", 0
    while i > 0 and j > 0:
        if state == "H":
            # H(i - k, j - k) up the diagonal in one read; a cell left of its
            # row's window reads the sentinel column, as the DP did
            steps = np.arange(min(i, j, _DIAGONAL_STEPS) + 1)
            rows = i - steps
            diagonal = h[rows, np.maximum(j - steps - starts[rows] + 1, 0)].tolist()
            k = 0
            while k < len(diagonal) - 1:
                here = diagonal[k]
                if here == 0:
                    return AlignmentResult(score=best_score, matches=matches, columns=columns)
                same = a[i - k - 1] == b[j - k - 1]
                if here != diagonal[k + 1] + (match if same else mismatch):
                    state, gap = ("F" if from_f[i - k, j - k - u[i - k]] else "E"), here
                    break
                columns += 1
                matches += same
                k += 1
            i, j = i - k, j - k
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

    def _checked_candidates(self, query: str) -> list[int] | Exception:
        """The query's candidates, or the error that its first failing pair raises
        in :func:`_align_pairs`; references are records, so always ASCII."""
        cands = self.candidates(query)
        try:
            for idx in cands:
                _band_half_width(len(query), len(self._seqs[idx]), self.params)
            if cands:
                query.encode("ascii")
        except (AlignmentError, UnicodeEncodeError) as exc:
            return exc
        return cands

    def align_all(self, query: str) -> list[Hit]:
        """Banded alignment against every candidate, best-first: a batch of one."""
        hits = self.align_many([query])[0]
        if isinstance(hits, Exception):
            raise hits
        return hits

    def align_many(self, queries: Sequence[str]) -> list[list[Hit] | Exception]:
        """Each query's hits, best-first, or the error that fails one of its pairs.

        A pair fails when it passes the int32 bound (AlignmentError) or its
        query is not ASCII (UnicodeEncodeError).  Both are checked up front,
        so the pairs of every other query are aligned together in one call.
        """
        found = [self._checked_candidates(query) for query in queries]
        results = iter(_align_pairs(
            [(query, self._seqs[idx]) for query, cands in zip(queries, found)
             if not isinstance(cands, Exception) for idx in cands],
            self.params,
        ))
        ranked: list[list[Hit] | Exception] = []
        for cands in found:
            if isinstance(cands, Exception):
                ranked.append(cands)
                continue
            hits = [
                Hit(
                    id=self._ids[idx],
                    identity=res.identity,
                    score=float(res.score),
                    columns=res.columns,
                    matches=res.matches,
                    labels=self._labels[idx],
                )
                for idx, res in zip(cands, results)
                if res.columns
            ]
            hits.sort(key=_hit_rank_key)
            ranked.append(hits)
        return ranked
