"""Aligner tests: hand-scored pairs, band limits and retrieval."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecann.alignment import (
    AlignmentError,
    AlignmentParams,
    KmerIndex,
    banded_local_align,
    full_local_align,
)
from ecann.core import ProteinRecord, parse_ec_list

ALPHA = "ACDEFGHIKLMNPQRSTVWY"


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
