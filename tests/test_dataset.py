import datetime

import pytest
from hypothesis import given, strategies as st

from ecann.core import ProteinRecord, Task, build_label_dictionary, format_ec, parse_ec
from ecann.dataset import (
    FlatfileFormatError,
    LeakageError,
    Snapshot,
    chronological_split,
    function_count_partition,
    parse_fasta,
    parse_flatfile,
    preprocess,
    validation_split,
    write_flatfile,
    write_rejects,
)


def record(rec_id, seq="MKVLAG", ecs=(), day=(2015, 1, 1), is_enzyme=None):
    if is_enzyme is None:
        is_enzyme = bool(ecs)
    when = datetime.date(*day)
    return ProteinRecord(
        id=rec_id,
        name=rec_id.lower(),
        seq=seq,
        is_enzyme=is_enzyme,
        ecs=tuple(parse_ec(e) for e in ecs),
        date_integrated=when,
        date_sequence_update=when,
    )


FLATFILE = """id\tname\tec\tis_enzyme\tfunction_count\tseq\tdate_integrated\tdate_sequence_update
P1\tprot1\t1.1.1.1; 2.3.1.41\t1\t2\tMKVLAG\t2015-03-01\t2015-03-01
P2\tprot2\t\t0\t0\tGGALVKM\t2016-07-12\t2016-08-01
P3\tprot3\t1.14.-.-\t1\t1\tMKWWTA\t2017-01-05\t2017-01-05
"""


class TestParseFlatfile:
    def test_reads_records(self, tmp_path):
        path = tmp_path / "snap.tsv"
        path.write_text(FLATFILE)
        records, rejects = parse_flatfile(path)
        assert rejects == []
        assert [r.id for r in records] == ["P1", "P2", "P3"]
        assert records[0].function_count == 2
        assert not records[1].is_enzyme
        assert format_ec(records[2].ecs[0]) == "1.14.-.-"
        assert records[0].date_integrated == datetime.date(2015, 3, 1)

    def test_gzip_round_trip(self, tmp_path):
        records = [record("A", ecs=("1.1.1.1",)), record("B", seq="GGWP")]
        path = tmp_path / "snap.tsv.gz"
        write_flatfile(records, path)
        loaded, rejects = parse_flatfile(path)
        assert rejects == []
        assert loaded == records

    def test_malformed_ec_rejected_row_not_file(self, tmp_path):
        path = tmp_path / "snap.tsv"
        bad = FLATFILE + "P4\tprot4\t1.1.1.n5\t1\t1\tMKWA\t2017-02-01\t2017-02-01\n"
        path.write_text(bad)
        records, rejects = parse_flatfile(path)
        assert len(records) == 3
        assert len(rejects) == 1
        assert rejects[0].record_id == "P4" and "preliminary" in rejects[0].reason

    def test_contradictory_labels_rejected(self, tmp_path):
        path = tmp_path / "snap.tsv"
        path.write_text(
            FLATFILE + "P5\tprot5\t1.1.1.1\t0\t1\tMKWA\t2017-02-01\t2017-02-01\n"
        )
        _, rejects = parse_flatfile(path)
        assert len(rejects) == 1 and "non-enzyme" in rejects[0].reason

    def test_missing_column_is_a_format_error(self, tmp_path):
        path = tmp_path / "snap.tsv"
        path.write_text("id\tname\tec\n")
        with pytest.raises(FlatfileFormatError, match="missing columns"):
            parse_flatfile(path)

    def test_short_row_cites_line_number(self, tmp_path):
        path = tmp_path / "snap.tsv"
        path.write_text(FLATFILE + "P9\tonly\tthree\n")
        with pytest.raises(FlatfileFormatError, match=":5"):
            parse_flatfile(path)

    def test_unknown_residues_mapped_to_x(self, tmp_path):
        path = tmp_path / "snap.tsv"
        path.write_text(
            FLATFILE + "P6\tprot6\t\t0\t0\tMK1A\t2017-02-01\t2017-02-01\n"
        )
        records, rejects = parse_flatfile(path)
        assert rejects == []
        assert records[-1].seq == "MKXA"

    def test_rejects_sidecar(self, tmp_path):
        path = tmp_path / "rej.tsv"
        from ecann.dataset import RejectRow

        write_rejects([RejectRow(4, "P4", "bad EC")], path)
        assert "P4" in path.read_text()


class TestParseFasta:
    def test_multiline_records(self, tmp_path):
        path = tmp_path / "q.fasta"
        path.write_text(">Q1 some description\nMKVL\nAG\n>Q2\nGGWP\n")
        pairs = parse_fasta(path)
        assert pairs == [("Q1", "MKVLAG"), ("Q2", "GGWP")]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "q.fasta"
        path.write_text(">Q1\nMK\n>Q1\nVL\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_fasta(path)

    def test_data_before_header_rejected(self, tmp_path):
        path = tmp_path / "q.fasta"
        path.write_text("MKVL\n")
        with pytest.raises(ValueError, match="before first header"):
            parse_fasta(path)


class TestPreprocess:
    def test_byte_identical_duplicates_collapse(self):
        rec = record("A", seq="MKVL", ecs=("1.1.1.1",))
        result = preprocess([rec, rec])
        assert len(result.records) == 1
        assert result.report.removed_duplicate == 1
        assert result.report.raw_count == 2 and result.report.clean_count == 1

    def test_same_sequence_keeps_earliest(self):
        newer = record("B", seq="MKVL", day=(2016, 1, 1))
        older = record("A", seq="MKVL", day=(2015, 1, 1))
        result = preprocess([newer, older])
        assert [r.id for r in result.records] == ["A"]

    def test_date_tie_broken_by_id(self):
        rec_b = record("B", seq="MKVL")
        rec_a = record("A", seq="MKVL")
        result = preprocess([rec_b, rec_a])
        assert [r.id for r in result.records] == ["A"]

    def test_changed_sequence_id_dropped_entirely(self):
        v1 = record("A", seq="MKVL", day=(2015, 1, 1))
        v2 = record("A", seq="MKVLW", day=(2016, 1, 1))
        keeper = record("B", seq="GGWP")
        result = preprocess([v1, v2, keeper])
        assert [r.id for r in result.records] == ["B"]
        assert result.report.removed_changed_sequence == 2
        assert result.report.raw_count == 3

    def test_label_dictionary_from_clean_records(self):
        recs = [
            record("A", seq="MKVL", ecs=("1.1.1.2",)),
            record("B", seq="GGWP", ecs=("1.1.1.1",)),
        ]
        d = build_label_dictionary(preprocess(recs).records)
        assert d.label_of(parse_ec("1.1.1.1")) == 0
        assert d.label_of(parse_ec("1.1.1.2")) == 1

    def test_accounting_balances(self, demo_snapshots):
        from ecann.demo import make_demo_records

        earlier_raw, _ = make_demo_records(seed=3)
        result = preprocess(earlier_raw)
        rep = result.report
        assert rep.raw_count == rep.clean_count + sum(rep.removals().values())


@given(st.lists(st.sampled_from(["MKVL", "GGWP", "MKWWTA", "AAAA"]), min_size=1, max_size=12))
def test_preprocess_idempotent_and_unique(seqs):
    records = [record(f"P{i}", seq=s) for i, s in enumerate(seqs)]
    once = preprocess(records)
    twice = preprocess(list(once.records))
    assert twice.records == once.records
    assert twice.report.removed_duplicate == 0
    out_seqs = [r.seq for r in once.records]
    assert len(set(out_seqs)) == len(out_seqs)


class TestSnapshot:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate ids"):
            Snapshot(
                tag="t",
                released=datetime.date(2018, 2, 28),
                records=(record("A", seq="MK"), record("A", seq="VL")),
            )

    def test_rejects_duplicate_sequences(self):
        with pytest.raises(ValueError, match="duplicate sequences"):
            Snapshot(
                tag="t",
                released=datetime.date(2018, 2, 28),
                records=(record("A", seq="MKVL"), record("B", seq="MKVL")),
            )


class TestChronologicalSplit:
    def make_snapshots(self):
        earlier = Snapshot(
            tag="2018-02",
            released=datetime.date(2018, 2, 28),
            records=(
                record("A", seq="MKVL", ecs=("1.1.1.1",), day=(2015, 1, 1)),
                record("B", seq="GGWP", day=(2016, 1, 1)),
                record("C", seq="MKWWTA", ecs=("2.3.1.41", "1.1.1.1"), day=(2017, 6, 1)),
            ),
        )
        later = Snapshot(
            tag="2020-04",
            released=datetime.date(2020, 4, 30),
            records=(
                record("A", seq="MKVL", ecs=("1.1.1.1",), day=(2015, 1, 1)),
                record("B", seq="GGWP", day=(2016, 1, 1)),
                record("C", seq="MKWWTA", ecs=("2.3.1.41", "1.1.1.1"), day=(2017, 6, 1)),
                record("D", seq="MKVLAG", ecs=("3.5.2.6",), day=(2019, 3, 1)),
                record("E", seq="WWPGKA", day=(2020, 1, 1)),
            ),
        )
        return earlier, later

    def test_test_side_is_sequence_novel(self):
        earlier, later = self.make_snapshots()
        split = chronological_split(earlier, later, Task.ENZYME)
        assert {r.id for r in split.train} == {"A", "B", "C"}
        assert {r.id for r in split.test} == {"D", "E"}

    def test_enzyme_only_tasks_filter_both_sides(self):
        earlier, later = self.make_snapshots()
        split = chronological_split(earlier, later, Task.EC_NUMBER)
        assert all(r.is_enzyme for r in split.train)
        assert all(r.is_enzyme for r in split.test)
        assert {r.id for r in split.test} == {"D"}

    def test_cutoff_bounds_both_sides(self):
        earlier, later = self.make_snapshots()
        cutoff = datetime.date(2016, 6, 30)
        split = chronological_split(earlier, later, Task.ENZYME, cutoff=cutoff)
        assert all(r.date_integrated <= cutoff for r in split.train)
        assert all(r.date_integrated > cutoff for r in split.test)

    def test_overlapping_snapshots_rejected(self):
        earlier, later = self.make_snapshots()
        with pytest.raises(ValueError, match="overlap"):
            chronological_split(later, earlier, Task.ENZYME)

    def test_leakage_assertion_fires_on_corrupt_split(self):
        from ecann.dataset import DatasetSplit

        shared = record("X", seq="MKVL", ecs=("1.1.1.1",))
        split = DatasetSplit(
            task=Task.ENZYME,
            train=(shared,),
            test=(record("Y", seq="MKVL", ecs=("1.1.1.1",)),),
        )
        with pytest.raises(LeakageError):
            split.assert_no_leakage()

    def test_demo_split_has_no_leakage_and_nonempty_sides(self, demo_snapshots):
        earlier, later = demo_snapshots
        for task in Task:
            split = chronological_split(earlier, later, task)
            split.assert_no_leakage()
            assert split.train and split.test

    def test_label_dictionary_covers_train_only(self, demo_snapshots):
        earlier, later = demo_snapshots
        split = chronological_split(earlier, later, Task.EC_NUMBER)
        d = build_label_dictionary(split.train)
        assert all(ec in d for rec in split.train for ec in rec.ecs)
        unseen = [
            rec for rec in split.test if any(ec not in d for ec in rec.ecs)
        ]
        assert unseen, "demo data should include novel-label test records"


class TestValidationSplit:
    def test_last_fraction_by_date(self):
        records = [record(f"P{i}", seq="MKVL" + "A" * i, day=(2015, 1, i + 1)) for i in range(10)]
        fit, held = validation_split(records, fraction=0.1)
        assert len(held) == 1
        assert held[0].id == "P9"
        assert max(r.date_integrated for r in fit) <= min(r.date_integrated for r in held)

    def test_ties_broken_by_id(self):
        records = [record(c, seq="MKVL" + c) for c in "DCBA"]
        fit, held = validation_split(records, fraction=0.25)
        assert held[0].id == "D"

    def test_never_empties_train(self):
        records = [record("A", seq="MK"), record("B", seq="VL")]
        fit, held = validation_split(records, fraction=0.9)
        assert len(fit) == 1 and len(held) == 1

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            validation_split([], fraction=1.5)


class TestFunctionCountPartition:
    def test_partition_sums_to_enzyme_total(self, demo_snapshots):
        earlier, _ = demo_snapshots
        partition = function_count_partition(earlier.records)
        assert sum(partition.values()) == len(earlier.enzymes)
        assert set(partition) <= set(range(1, 9))

    def test_published_partition_sums_to_enzyme_total(self):
        # Reference snapshot histogram: count-of-functions -> records.
        published = {1: 210788, 2: 9943, 3: 993, 4: 525, 5: 206, 6: 80, 7: 27, 8: 5}
        assert sum(published.values()) == 222567
