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


def banded_local_align(a: str, b: str, params: AlignmentParams = AlignmentParams()) -> AlignmentResult:
    """Affine-gap local alignment restricted to a diagonal band.

    Out-of-band cells are unreachable, so the result is a lower bound on the
    unrestricted optimum and equals it whenever the optimal path fits in the
    band.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return _EMPTY
    w = params.band_half_width(n, m)
    match, mismatch = params.match, params.mismatch
    open_, ext = params.gap_open, params.gap_extend

    a_codes = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
    b_codes = np.frombuffer(b.encode("ascii"), dtype=np.uint8)

    # row 0 is the empty-prefix boundary: an alignment may start anywhere
    h_prev = np.zeros(m + 1, dtype=np.int64)
    f_prev = np.full(m + 1, _NEG, dtype=np.int64)

    best_score, best_i, best_j = 0, 0, 0
    # per-row traceback planes over the band: (jlo, h-source, e-source, f-source)
    empty_plane = np.empty(0, np.int8)
    rows: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = [(0, empty_plane, empty_plane, empty_plane)]

    for i in range(1, n + 1):
        jlo = max(1, i - w)
        jhi = min(m, i + w)
        if jlo > jhi:
            rows.append((jlo, empty_plane, empty_plane, empty_plane))
            h_prev = np.full(m + 1, _NEG, dtype=np.int64)
            h_prev[0] = 0
            f_prev = np.full(m + 1, _NEG, dtype=np.int64)
            continue
        cols = np.arange(jlo, jhi + 1)
        sub = np.where(b_codes[cols - 1] == a_codes[i - 1], match, mismatch).astype(np.int64)
        diag = h_prev[cols - 1] + sub
        f_cur = np.maximum(h_prev[cols] - open_, f_prev[cols] - ext)
        h_no_e = np.maximum(0, np.maximum(diag, f_cur))
        # horizontal gaps in one scan: max over j' < j of h[j'] - open - (j-1-j')*ext
        run = np.maximum.accumulate(h_no_e + cols * ext)
        e_cur = np.empty_like(h_no_e)
        e_cur[0] = _NEG
        e_cur[1:] = run[:-1] - open_ - (cols[1:] - 1) * ext
        h_cur = np.maximum(h_no_e, e_cur)

        ph = np.select(
            [h_cur == 0, h_cur == diag, h_cur == f_cur, h_cur == e_cur],
            [np.int8(0), np.int8(1), np.int8(2), np.int8(3)],
        ).astype(np.int8)
        left_h = np.empty_like(h_cur)
        left_h[0] = _NEG
        left_h[1:] = h_cur[:-1]
        pe = (e_cur == left_h - open_).astype(np.int8)
        pf = (f_cur == h_prev[cols] - open_).astype(np.int8)
        rows.append((jlo, ph, pe, pf))

        pos = int(np.argmax(h_cur))
        if int(h_cur[pos]) > best_score:
            best_score = int(h_cur[pos])
            best_i, best_j = i, jlo + pos

        nh = np.full(m + 1, _NEG, dtype=np.int64)
        nf = np.full(m + 1, _NEG, dtype=np.int64)
        nh[0] = 0
        nh[cols] = h_cur
        nf[cols] = f_cur
        h_prev, f_prev = nh, nf

    if best_score <= 0:
        return _EMPTY

    def plane(i: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        jlo, ph, pe, pf = rows[i]
        return ph, pe, pf, j - jlo

    matches = columns = 0
    i, j = best_i, best_j
    state = "H"
    while True:
        if i == 0 or j == 0:
            break  # matrix edge: empty prefix, nothing left to trace
        ph, pe, pf, off = plane(i, j)
        if state == "H":
            code = int(ph[off])
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
            state = "H" if int(pf[off]) == 1 else "F"
            i -= 1
        else:
            columns += 1
            state = "H" if int(pe[off]) == 1 else "E"
            j -= 1
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
