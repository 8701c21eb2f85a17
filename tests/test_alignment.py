"""Aligner tests: hand-scored pairs, band limits and retrieval."""

import datetime as dt
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecann.alignment import (
    AlignmentError,
    AlignmentParams,
    AlignmentResult,
    KmerIndex,
    _align_group,
    _align_pairs,
    banded_local_align,
    full_local_align,
)
from ecann.core import ProteinRecord, parse_ec_list

ALPHA = "ACDEFGHIKLMNPQRSTVWY"

_NEG = -(1 << 40)  # the oracle's forbidden-cell sentinel
_EMPTY = AlignmentResult(score=0, matches=0, columns=0)


def row_band_oracle(a: str, b: str, params: AlignmentParams = AlignmentParams()) -> AlignmentResult:
    """The row-by-row banded aligner with traceback planes, kept verbatim as the
    oracle for :func:`banded_local_align` on narrow bands.

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


def _tally(res):
    return (res.score, res.matches, res.columns)


def _rec(rid, seq, ecs="", is_enzyme=None):
    if is_enzyme is None:
        is_enzyme = bool(ecs)
    return ProteinRecord(
        id=rid,
        name=f"protein {rid}",
        seq=seq,
        is_enzyme=is_enzyme,
        ecs=parse_ec_list(ecs),
        date_integrated=dt.date(2015, 1, 1),
        date_sequence_update=dt.date(2015, 1, 1),
    )


BOTH = [banded_local_align, full_local_align]


class TestHandScoredPairs:
    @pytest.mark.parametrize("align", BOTH)
    def test_identical_sequences(self, align):
        res = align("ACDEFG", "ACDEFG")
        assert (res.score, res.matches, res.columns) == (6, 6, 6)
        assert res.identity == 1.0

    @pytest.mark.parametrize("align", BOTH)
    def test_single_mismatch_spans_full_length(self, align):
        # 5 matches - 1 mismatch = 4 beats the best exact segment (3)
        res = align("ACDEFG", "ACWEFG")
        assert (res.score, res.matches, res.columns) == (4, 5, 6)

    @pytest.mark.parametrize("align", BOTH)
    def test_expensive_gap_trims_to_local_segment(self, align):
        # bridging EFG needs an 11+2 gap against 6 matches: stay local.
        # Both exact segments score 3; the earlier end cell wins row-major.
        res = align("ACDEFGHIK", "ACDHIK")
        assert (res.score, res.matches, res.columns) == (3, 3, 3)
        assert res.identity == 1.0

    @pytest.mark.parametrize("align", BOTH)
    def test_single_residue_gap_when_flanks_pay_for_it(self, align):
        a = ALPHA + ALPHA
        b = ALPHA + ALPHA[1:]  # one residue deleted at position 20
        res = align(a, b)
        assert (res.score, res.matches, res.columns) == (39 - 11, 39, 40)
        assert res.identity == pytest.approx(39 / 40)

    @pytest.mark.parametrize("align", BOTH)
    def test_gap_extension_prices_second_residue(self, align):
        a = ALPHA + ALPHA
        b = ALPHA + ALPHA[2:]  # two residues deleted
        res = align(a, b)
        assert (res.score, res.matches, res.columns) == (38 - 12, 38, 40)

    @pytest.mark.parametrize("align", BOTH)
    def test_empty_input_scores_zero(self, align):
        res = align("", "ACD")
        assert (res.score, res.matches, res.columns) == (0, 0, 0)
        assert res.identity == 0.0
        res = align("ACD", "")
        assert res.columns == 0

    @pytest.mark.parametrize("align", BOTH)
    def test_all_mismatches_scores_zero(self, align):
        res = align("AAAA", "WWWW")
        assert res.score == 0
        assert res.columns == 0

    @pytest.mark.parametrize("align", BOTH)
    def test_first_row_major_maximum_wins_ties(self, align):
        # both single-character alignments score 1; the (1, 1) cell is first
        res = align("AA", "A")
        assert (res.score, res.matches, res.columns) == (1, 1, 1)


class TestBandRestriction:
    def test_off_diagonal_optimum_is_invisible_to_the_band(self):
        a = "M" * 20 + "W" * 20
        b = "W" * 20 + "M" * 20
        full = full_local_align(a, b)
        assert (full.score, full.matches, full.columns) == (20, 20, 20)
        banded = banded_local_align(a, b)  # equal lengths: half-width 16
        assert (banded.score, banded.matches, banded.columns) == (16, 16, 16)
        assert banded.score <= full.score

    def test_band_stays_closed_beside_its_first_rows(self):
        # five W-W matches on diagonal +15 in rows 1-5, outside half-width 10
        a = "W" * 5 + "A" * 25
        b = "C" * 15 + "W" * 5 + "C" * 10
        assert full_local_align(a, b).score == 5
        assert _tally(banded_local_align(a, b, AlignmentParams(band_pad=10))) == (0, 0, 0)

    def test_wider_pad_recovers_the_optimum(self):
        a = "M" * 20 + "W" * 20
        b = "W" * 20 + "M" * 20
        wide = banded_local_align(a, b, AlignmentParams(band_pad=40))
        assert wide.score == 20

    def test_mutated_pairs_agree_inside_the_band(self):
        import random

        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(60, 150)
            a = "".join(rng.choice(ALPHA) for _ in range(n))
            chars = list(a)
            for _ in range(rng.randint(1, 8)):  # substitutions keep the diagonal
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice(ALPHA)
            for _ in range(rng.randint(0, 3)):  # short indels: drift << 16
                pos = rng.randrange(len(chars))
                if rng.random() < 0.5 and len(chars) > 10:
                    del chars[pos]
                else:
                    chars.insert(pos, rng.choice(ALPHA))
            b = "".join(chars)
            got = banded_local_align(a, b)
            want = full_local_align(a, b)
            assert (got.score, got.matches, got.columns) == (
                want.score,
                want.matches,
                want.columns,
            )


@settings(max_examples=60, deadline=None)
@given(
    a=st.text(alphabet="ACDW", min_size=0, max_size=22),
    b=st.text(alphabet="ACDW", min_size=0, max_size=22),
)
def test_band_is_a_lower_bound_and_full_band_is_exact(a, b):
    banded = banded_local_align(a, b)
    full = full_local_align(a, b)
    assert banded.score <= full.score
    assert 0 <= banded.matches <= banded.columns
    # a pad wider than both sequences makes the band cover the whole matrix
    wide = banded_local_align(a, b, AlignmentParams(band_pad=64))
    assert (wide.score, wide.matches, wide.columns) == (
        full.score,
        full.matches,
        full.columns,
    )


def _mutant(rng: random.Random, seq: str) -> str:
    # a homolog at benchmark divergence: 4% substitutions, 0.5% insertions
    chars = []
    for ch in seq:
        r = rng.random()
        if r < 0.04:
            chars.append(rng.choice(ALPHA))
        elif r < 0.045:
            chars += [ch, rng.choice(ALPHA)]
        else:
            chars.append(ch)
    return "".join(chars)


@st.composite
def _band_cases(draw):
    kind = draw(st.sampled_from(["narrow", "benchmark", "cheap_gaps"]))
    if kind == "benchmark":
        # 60-180 aa against a mutant or an unrelated sequence, whose length gap
        # widens the band, at the default scores
        a = draw(st.text(alphabet=ALPHA, min_size=60, max_size=180))
        rng = draw(st.randoms(use_true_random=False))
        if draw(st.booleans()):
            return a, _mutant(rng, a), AlignmentParams()
        return a, draw(st.text(alphabet=ALPHA, min_size=60, max_size=180)), AlignmentParams()
    if kind == "cheap_gaps":
        # low-complexity pairs scored so that multi-residue gaps of both kinds tie
        # with other paths: the traceback's tie order decides the tallies
        alphabet = draw(st.sampled_from(["AC", "ACD"]))
        a = draw(st.text(alphabet=alphabet, min_size=5, max_size=40))
        b = draw(st.text(alphabet=alphabet, min_size=5, max_size=40))
        gap_open = draw(st.integers(0, 4))
        params = AlignmentParams(
            match=draw(st.sampled_from([1, 2, 3])),
            mismatch=draw(st.sampled_from([-1, -2, -3])),
            gap_open=gap_open,
            gap_extend=draw(st.integers(0, gap_open)),
            band_pad=draw(st.integers(0, 20)),
        )
        return a, b, params
    alphabet = draw(st.sampled_from(["AC", "ACDW", ALPHA]))
    short = draw(st.text(alphabet=alphabet, max_size=40))
    long_ = draw(st.text(alphabet=alphabet, max_size=160))
    a, b = (short, long_) if draw(st.booleans()) else (long_, short)
    gap_open = draw(st.integers(0, 12))
    gap_extend = draw(st.one_of(st.just(0), st.just(gap_open), st.integers(0, gap_open)))
    params = AlignmentParams(
        match=draw(st.sampled_from([1, 2, 3])),
        mismatch=draw(st.sampled_from([-1, -3, 0])),
        gap_open=gap_open,
        gap_extend=gap_extend,
        band_pad=draw(st.integers(0, 16)),
    )
    return a, b, params


@settings(max_examples=600, deadline=None)
@given(case=_band_cases())
@example(case=("", "ACDW", AlignmentParams(band_pad=0)))
@example(case=("ACDW" * 10, "", AlignmentParams()))
@example(case=("AC" * 20, "CA" * 80, AlignmentParams(gap_open=3, gap_extend=3, band_pad=0)))
@example(case=(ALPHA * 2, ALPHA + ALPHA[3:], AlignmentParams(gap_open=4, gap_extend=0, band_pad=0)))
@example(case=(ALPHA * 8, _mutant(random.Random(8), ALPHA * 8), AlignmentParams()))
def test_diagonal_kernel_matches_the_row_oracle(case):
    a, b, params = case
    assert _tally(banded_local_align(a, b, params)) == _tally(row_band_oracle(a, b, params))


def _band_key(a, b, params):
    n, m = len(a), len(b)
    w = min(params.band_half_width(n, m), max(n, m) - 1)
    return w, min(2 * w + 1, m + 1)


@st.composite
def _group_cases(draw):
    """Pairs that share (w, width), with a of several lengths, plus empty pairs."""
    alphabet = draw(st.sampled_from(["AC", "ACDW", ALPHA]))
    gap_open = draw(st.integers(0, 12))
    params = AlignmentParams(
        match=draw(st.sampled_from([1, 2, 3])),
        mismatch=draw(st.sampled_from([-1, -3, 0])),
        gap_open=gap_open,
        gap_extend=draw(st.integers(0, gap_open)),
        band_pad=draw(st.integers(0, 8)),
    )
    diff = draw(st.integers(0, 4))
    w = 2 * diff + params.band_pad
    seq = lambda size: draw(st.text(alphabet=alphabet, min_size=size, max_size=size))  # noqa: E731
    pairs = []
    if draw(st.booleans()):
        # b at least as long as the band: width 2w + 1, any len(b) >= 2w
        for _ in range(draw(st.integers(1, 6))):
            m = draw(st.integers(max(2 * w, diff + w + 1, 1), 2 * w + 40))
            n = m + draw(st.sampled_from([diff, -diff]))
            pairs.append((seq(n), seq(m)))
    else:
        # b shorter than the band: width len(b) + 1, a on either side of b
        m = draw(st.integers(w + 1, max(w + 1, 2 * w - 1)))
        for _ in range(draw(st.integers(1, 6))):
            pairs.append((seq(m + draw(st.sampled_from([diff, -diff]))), seq(m)))
    for _ in range(draw(st.integers(0, 2))):
        empty = ("", seq(draw(st.integers(0, 5))))
        pairs.insert(draw(st.integers(0, len(pairs))), empty if draw(st.booleans()) else empty[::-1])
    return pairs, params


@settings(max_examples=300, deadline=None)
@given(case=_group_cases())
def test_lockstep_groups_match_the_oracles(case):
    pairs, params = case
    aligned = [(a, b) for a, b in pairs if a and b]
    assert len({_band_key(a, b, params) for a, b in aligned}) == 1
    w, width = _band_key(*aligned[0], params)
    group = sorted(aligned, key=lambda pair: -len(pair[0]))
    by_pair = dict(zip(group, map(_tally, _align_group(group, w, width, params))))
    results = _align_pairs(pairs, params)
    assert len(results) == len(pairs)
    for (a, b), res in zip(pairs, results):
        want = _tally(row_band_oracle(a, b, params))
        assert _tally(res) == want
        if a and b:
            assert by_pair[(a, b)] == want
        if params.band_half_width(len(a), len(b)) >= max(len(a), len(b)) - 1:
            assert want == _tally(full_local_align(a, b, params))


def test_a_pair_past_the_int32_bound_fails_its_batch():
    wide = AlignmentParams(match=1 << 20, mismatch=-(1 << 20), gap_open=1 << 20, gap_extend=1)
    with pytest.raises(AlignmentError, match="int32"):
        _align_pairs([("ACDW", "ACDW"), (ALPHA * 5, ALPHA * 5)], wide)


def _peak_bytes(align, a, b):
    align(a, b)  # first-call imports stay out of the traced call
    tracemalloc.start()
    try:
        align(a, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_peak_memory_on_a_wide_band():
    rng = random.Random(3)
    a = "".join(rng.choice(ALPHA) for _ in range(180))
    b = "".join(rng.choice(ALPHA) for _ in range(60))
    assert AlignmentParams().band_half_width(180, 60) == 256
    assert _peak_bytes(banded_local_align, a, b) <= 4_000_000


def test_kernel_memory_follows_the_real_cells_of_a_long_query():
    # the band spans 5,999 diagonals but each row has at most 301 real cells;
    # the row kernel stores only those, as int8 traceback codes
    rng = random.Random(4)
    a = "".join(rng.choice(ALPHA) for _ in range(3000))
    b = a[1200:1500]
    assert _peak_bytes(banded_local_align, a, b) <= 1.5 * _peak_bytes(row_band_oracle, a, b)


class TestInt32Bound:
    # at these scores the bound (n + m + 4w + 4) * 2**20 < 2**28 admits n + m + 4w < 252
    WIDE = AlignmentParams(match=1 << 20, mismatch=-(1 << 20), gap_open=1 << 20, gap_extend=1)

    def test_scores_just_inside_the_bound_stay_exact(self):
        a = ALPHA * 2 + "MKV"
        b = ALPHA + "W" + ALPHA[1:] + "MKVW"  # 44 x 44, half-width 16
        got = banded_local_align(a, b, self.WIDE)
        assert _tally(got) == _tally(row_band_oracle(a, b, self.WIDE))
        assert _tally(got) == _tally(full_local_align(a, b, self.WIDE))
        assert got.score > 1 << 24

    def test_longer_pairs_at_those_scores_are_refused(self):
        with pytest.raises(AlignmentError, match="int32"):
            banded_local_align(ALPHA * 5, ALPHA * 5, self.WIDE)

    def test_default_scores_refuse_only_multi_million_residue_pairs(self):
        with pytest.raises(AlignmentError, match="int32"):
            banded_local_align("A" * 5_000_000, "AC")


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(AlignmentError):
            AlignmentParams(k=2)
        with pytest.raises(AlignmentError):
            AlignmentParams(k=8)
        with pytest.raises(AlignmentError):
            AlignmentParams(max_candidates=0)
        with pytest.raises(AlignmentError):
            AlignmentParams(min_identity=1.5)
        with pytest.raises(AlignmentError):
            AlignmentParams(gap_open=1, gap_extend=2)
        with pytest.raises(AlignmentError):
            AlignmentParams(gap_extend=-1)
        with pytest.raises(AlignmentError):
            AlignmentParams(band_pad=-1)

    def test_band_width_tracks_length_difference(self):
        p = AlignmentParams()
        assert p.band_half_width(100, 100) == 16
        assert p.band_half_width(100, 110) == 36
        assert p.band_half_width(110, 100) == 36


class TestKmerIndex:
    def test_exact_sequence_retrieves_itself(self):
        seqs = {
            "P1": ALPHA + "WYW" + ALPHA[5:],
            "P2": "".join(reversed(ALPHA)) * 2,
            "P3": ALPHA[3:] + "MMMM" + ALPHA[:9],
        }
        recs = [_rec(rid, s, "1.1.1.1") for rid, s in seqs.items()]
        index = KmerIndex.build(recs)
        hit = index.align_all(seqs["P2"])[0]
        assert hit.id == "P2"
        assert hit.identity == 1.0
        assert hit.labels == parse_ec_list("1.1.1.1")

    def test_candidates_ranked_by_shared_kmer_count(self):
        query = ALPHA + ALPHA
        near = ALPHA + ALPHA[:10]       # many shared 5-mers
        far = ALPHA[:7] + "W" * 30      # few shared 5-mers
        index = KmerIndex.build([_rec("FAR", far), _rec("NEAR", near)])
        cands = index.candidates(query)
        assert cands == [1, 0]

    def test_candidate_ties_keep_insertion_order(self):
        seq = ALPHA * 2
        index = KmerIndex.build([_rec("B", seq), _rec("A", seq)])
        assert index.candidates(ALPHA) == [0, 1]

    def test_max_candidates_caps_the_list(self):
        seq = ALPHA * 2
        recs = [_rec(f"P{i}", seq) for i in range(6)]
        index = KmerIndex.build(recs, AlignmentParams(max_candidates=3))
        assert len(index.candidates(ALPHA)) == 3

    def test_query_shorter_than_k_finds_nothing(self):
        index = KmerIndex.build([_rec("P1", ALPHA)])
        assert index.candidates("ACD") == []
        assert index.align_all("ACD") == []

    def test_hits_ordered_by_identity_then_score_then_id(self):
        query = ALPHA + ALPHA
        index = KmerIndex.build(
            [
                _rec("short", query[:8]),    # identity 1.0, score 8
                _rec("long", query[:16]),    # identity 1.0, score 16
                _rec("z-dup", query[:8]),
            ]
        )
        hits = index.align_all(query)
        assert [h.id for h in hits] == ["long", "short", "z-dup"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(AlignmentError):
            KmerIndex.build([_rec("P1", ALPHA), _rec("P1", ALPHA * 2)])

    def test_label_transfer_is_verbatim(self):
        recs = [_rec("P1", ALPHA * 3, "2.7.11.1;3.1.3.16")]
        index = KmerIndex.build(recs)
        hit = index.align_all(ALPHA * 3)[0]
        assert hit.labels == parse_ec_list("2.7.11.1;3.1.3.16")

    def test_batch_equals_one_query_calls(self):
        rng = random.Random(9)
        refs = ["".join(rng.choice(ALPHA) for _ in range(rng.randint(60, 180))) for _ in range(12)]
        index = KmerIndex.build([_rec(f"P{i}", seq, "1.1.1.1") for i, seq in enumerate(refs)])
        queries = [_mutant(rng, seq) for seq in refs for _ in range(2)]
        queries += [refs[3], refs[3][:40] + refs[7][40:], "ACD", "", "W" * 90]
        rng.shuffle(queries)
        assert index.align_many(queries) == [index.align_all(query) for query in queries]
        assert index.align_many([]) == []
