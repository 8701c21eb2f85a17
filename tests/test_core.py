import datetime
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecann.core import (
    AMINO_ACIDS,
    CONTAINER_MAGIC,
    ECParseError,
    LabelDictionary,
    Prediction,
    PredictionSource,
    ProteinRecord,
    build_label_dictionary,
    format_ec,
    format_ec_list,
    normalize_sequence,
    parse_ec,
    parse_ec_list,
    read_container,
    write_container,
)


def make_record(rec_id="P1", seq="MKV", ecs=(), is_enzyme=None, day=1):
    if is_enzyme is None:
        is_enzyme = bool(ecs)
    return ProteinRecord(
        id=rec_id,
        name=rec_id.lower(),
        seq=seq,
        is_enzyme=is_enzyme,
        ecs=tuple(parse_ec(e) for e in ecs),
        date_integrated=datetime.date(2017, 1, day),
        date_sequence_update=datetime.date(2017, 1, day),
    )


class TestParseEc:
    def test_complete_code_round_trips(self):
        ec = parse_ec("1.14.11.38")
        assert ec.levels == (1, 14, 11, 38)
        assert format_ec(ec) == "1.14.11.38"

    def test_partial_code_with_dashes(self):
        ec = parse_ec("1.14.-.-")
        assert ec.levels == (1, 14, None, None)

    def test_short_input_padded_with_unknowns(self):
        assert format_ec(parse_ec("3.5.2")) == "3.5.2.-"
        assert format_ec(parse_ec("7")) == "7.-.-.-"

    def test_whitespace_tolerated(self):
        assert format_ec(parse_ec("  2.3.1.41 ")) == "2.3.1.41"

    def test_preliminary_code_rejected_with_distinct_error(self):
        with pytest.raises(ECParseError, match="preliminary"):
            parse_ec("1.1.1.n5")

    def test_garbage_component_rejected(self):
        with pytest.raises(ECParseError, match="bad EC component"):
            parse_ec("1.a.1.1")

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ECParseError):
            parse_ec("0.1.1.1")
        with pytest.raises(ECParseError):
            parse_ec("1.-2.1.1")

    def test_top_class_range_enforced(self):
        parse_ec("7.1.1.1")
        with pytest.raises(ECParseError, match="1..7"):
            parse_ec("8.1.1.1")

    def test_too_many_components_rejected(self):
        with pytest.raises(ECParseError):
            parse_ec("1.2.3.4.5")

    def test_empty_rejected(self):
        with pytest.raises(ECParseError):
            parse_ec("   ")

    def test_known_level_after_unknown_rejected(self):
        with pytest.raises(ECParseError, match="prefix"):
            parse_ec("1.-.1.-")

    def test_ec_is_hashable_and_equal_by_value(self):
        assert parse_ec("1.1.1.1") == parse_ec("1.1.1.1")
        assert len({parse_ec("1.1.1.1"), parse_ec("1.1.1.1")}) == 1


@given(
    known=st.integers(min_value=0, max_value=4),
    top=st.integers(min_value=1, max_value=7),
    rest=st.lists(st.integers(min_value=1, max_value=9999), min_size=3, max_size=3),
)
def test_parse_preserves_prefix_completeness(known, top, rest):
    levels = [top] + rest
    parts = [str(levels[i]) if i < known else "-" for i in range(4)]
    ec = parse_ec(".".join(parts))
    assert sum(lvl is not None for lvl in ec.levels) == known
    # Known levels form a prefix by construction of the type.
    seen_unknown = False
    for lvl in ec.levels:
        if lvl is None:
            seen_unknown = True
        else:
            assert not seen_unknown
    assert parse_ec(format_ec(ec)) == ec


@given(
    pattern=st.lists(st.booleans(), min_size=4, max_size=4),
    top=st.integers(min_value=1, max_value=7),
    rest=st.lists(st.integers(min_value=1, max_value=500), min_size=3, max_size=3),
)
def test_non_prefix_patterns_always_rejected(pattern, top, rest):
    values = [top] + rest
    parts = [str(values[i]) if keep else "-" for i, keep in enumerate(pattern)]
    text = ".".join(parts)
    # Valid iff once a '-' appears no later part is known.
    seen_unknown = False
    valid = True
    for keep in pattern:
        if not keep:
            seen_unknown = True
        elif seen_unknown:
            valid = False
    if valid:
        assert format_ec(parse_ec(text)) == text
    else:
        with pytest.raises(ECParseError):
            parse_ec(text)


class TestEcList:
    def test_semicolon_with_optional_whitespace(self):
        ecs = parse_ec_list("1.1.1.1; 2.3.1.41 ;3.5.2.6")
        assert [format_ec(e) for e in ecs] == ["1.1.1.1", "2.3.1.41", "3.5.2.6"]

    def test_blank_and_dash_yield_empty(self):
        assert parse_ec_list("") == ()
        assert parse_ec_list(" - ") == ()

    def test_round_trip(self):
        text = "1.1.1.1;2.3.1.41"
        assert format_ec_list(parse_ec_list(text)) == text


class TestNormalizeSequence:
    def test_plain_sequence_unchanged(self):
        assert normalize_sequence("mkvA") == "MKVA"

    def test_unknown_characters_mapped_to_x_with_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="ecann.core"):
            out = normalize_sequence("MK*V", "P7")
        assert out == "MKXV"
        assert any("P7" in rec.message for rec in caplog.records)

    def test_alphabet_has_25_symbols(self):
        assert len(AMINO_ACIDS) == 25
        assert len(set(AMINO_ACIDS)) == 25

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            normalize_sequence("  ")


class TestProteinRecord:
    def test_function_count_follows_ec_list(self):
        rec = make_record(ecs=("1.1.1.1", "2.3.1.41"))
        assert rec.is_enzyme and rec.function_count == 2

    def test_non_enzyme_has_zero_count(self):
        rec = make_record(is_enzyme=False)
        assert rec.function_count == 0

    def test_enzyme_without_ecs_rejected(self):
        with pytest.raises(ValueError, match="1..8"):
            make_record(is_enzyme=True)

    def test_non_enzyme_with_ecs_rejected(self):
        with pytest.raises(ValueError, match="non-enzyme"):
            make_record(ecs=("1.1.1.1",), is_enzyme=False)

    def test_more_than_eight_ecs_rejected(self):
        ecs = tuple(f"1.1.1.{i}" for i in range(1, 10))
        with pytest.raises(ValueError):
            make_record(ecs=ecs)

    def test_sequence_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            make_record(seq="MK*V")


class TestLabelDictionary:
    def test_lexicographic_dense_labels(self):
        records = [
            make_record("A", ecs=("1.1.1.2",)),
            make_record("B", ecs=("1.1.1.1",)),
        ]
        d = build_label_dictionary(records)
        assert len(d) == 2
        assert d.label_of(parse_ec("1.1.1.1")) == 0
        assert d.label_of(parse_ec("1.1.1.2")) == 1

    def test_lexicographic_means_text_order(self):
        # "1.10.x" sorts before "1.2.x" as text; the convention is fixed.
        d = LabelDictionary([parse_ec("1.2.1.1"), parse_ec("1.10.1.1")])
        assert d.label_of(parse_ec("1.10.1.1")) == 0

    def test_incomplete_ecs_are_first_class_labels(self):
        d = LabelDictionary([parse_ec("1.14.-.-"), parse_ec("1.14.11.38")])
        assert len(d) == 2
        assert parse_ec("1.14.-.-") in d

    def test_duplicates_collapse(self):
        d = LabelDictionary([parse_ec("1.1.1.1"), parse_ec("1.1.1.1")])
        assert len(d) == 1

    def test_unknown_lookup_raises(self):
        d = LabelDictionary([parse_ec("1.1.1.1")])
        with pytest.raises(KeyError):
            d.label_of(parse_ec("2.1.1.1"))
        with pytest.raises(KeyError):
            d.ec_of(5)


@given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 40)), min_size=1, max_size=30))
def test_label_dictionary_is_a_bijection(pairs):
    ecs = [parse_ec(f"{a}.{b}.1.1") for a, b in pairs]
    d = LabelDictionary(ecs)
    # label_of and ec_of invert each other over the whole range.
    for label in range(len(d)):
        assert d.label_of(d.ec_of(label)) == label
    texts = [format_ec(d.ec_of(i)) for i in range(len(d))]
    assert texts == sorted(texts)
    assert len(set(texts)) == len(texts)


class TestPrediction:
    def test_ranked_ecs_must_be_sorted(self):
        good = Prediction(
            id="P1",
            is_enzyme=True,
            ranked_ecs=((parse_ec("1.1.1.1"), 0.9), (parse_ec("2.1.1.1"), 0.3)),
            source=PredictionSource.AGENTS,
        )
        assert good.function_count == 2
        with pytest.raises(ValueError, match="sorted"):
            Prediction(
                id="P1",
                is_enzyme=True,
                ranked_ecs=((parse_ec("1.1.1.1"), 0.3), (parse_ec("2.1.1.1"), 0.9)),
                source=PredictionSource.AGENTS,
            )

    def test_scores_bounded(self):
        with pytest.raises(ValueError, match="outside"):
            Prediction(
                id="P1",
                is_enzyme=True,
                ranked_ecs=((parse_ec("1.1.1.1"), 1.5),),
                source=PredictionSource.AGENTS,
            )

    def test_abstention_carries_no_ecs(self):
        pred = Prediction(id="P1", is_enzyme=None, ranked_ecs=(), source=PredictionSource.EXTERNAL)
        assert pred.abstained_on_ec()
        with pytest.raises(ValueError, match="abstention"):
            Prediction(
                id="P1",
                is_enzyme=None,
                ranked_ecs=((parse_ec("1.1.1.1"), 0.5),),
                source=PredictionSource.EXTERNAL,
            )


class _Damaged(ValueError):
    pass


def _arrays():
    return {
        "vectors": np.arange(15.0).reshape(5, 3),
        "counts": np.array([3, -1, 7], dtype=np.int32),
        "codes": np.array([[1, 25, 0], [7, 0, 0]], dtype=np.uint8),
        "empty": np.zeros(0, dtype=np.uint32),
        "links": np.array([4, 0, 2, 9, 1], dtype=np.uint32),
    }


def _raw_container(header: dict, rest: bytes) -> bytes:
    raw = json.dumps(header).encode("ascii")
    raw += b" " * (-len(raw) % 8)
    return CONTAINER_MAGIC + struct.pack("<Q", len(raw)) + raw + rest


class TestContainer:
    META = {"tag": "t", "ids": ["a", "\u00e9"], "x": 0.1}

    def test_round_trip_is_byte_identical_with_aligned_read_only_views(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(p1, "demo", self.META, _arrays())
        meta, arrays = read_container(p1, "demo", _Damaged)
        assert meta == self.META
        assert list(arrays) == list(_arrays())
        blob = p1.read_bytes()
        (head_len,) = struct.unpack_from("<Q", blob, 8)
        offset = 16 + head_len
        for name, want in _arrays().items():
            got = arrays[name]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            offset += -offset % 8
            assert blob[offset:offset + want.nbytes] == want.tobytes()
            offset += want.nbytes
        assert offset == len(blob)
        write_container(p2, "demo", meta, arrays)
        assert p2.read_bytes() == blob

    def test_every_prefix_is_truncated_and_a_trailing_byte_is_rejected(self, tmp_path):
        path = tmp_path / "a.bin"
        write_container(path, "demo", self.META, _arrays())
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(_Damaged, match="truncated"):
                read_container(path, "demo", _Damaged)
        path.write_bytes(blob + b"\0")
        with pytest.raises(_Damaged, match="1 trailing bytes"):
            read_container(path, "demo", _Damaged)

    def test_wrong_kind_and_wrong_magic_are_rejected(self, tmp_path):
        path = tmp_path / "a.bin"
        write_container(path, "demo", {}, {})
        with pytest.raises(_Damaged, match="holds 'demo', not 'other'"):
            read_container(path, "other", _Damaged)
        path.write_bytes(b"X" + path.read_bytes()[1:])
        with pytest.raises(_Damaged, match="not an ecann container"):
            read_container(path, "demo", _Damaged)

    def test_only_three_dtypes_are_written_or_read(self, tmp_path):
        path = tmp_path / "a.bin"
        with pytest.raises(ValueError, match="dtype"):
            write_container(path, "demo", {}, {"big": np.zeros(2, dtype=np.int64)})
        header = {"kind": "demo", "meta": {},
                  "arrays": [{"name": "big", "dtype": "<i8", "shape": [2]}]}
        path.write_bytes(_raw_container(header, bytes(16)))
        with pytest.raises(_Damaged, match="bad array entry"):
            read_container(path, "demo", _Damaged)

    @pytest.mark.parametrize("spec", [
        {"name": "v", "dtype": "<f8", "shape": [-1]},
        {"name": "v", "dtype": "<f8", "shape": [1.0]},
        {"name": "v", "dtype": "<f8"},
        {"dtype": "<f8", "shape": [1]},
    ])
    def test_malformed_array_entries_are_rejected(self, tmp_path, spec):
        path = tmp_path / "a.bin"
        path.write_bytes(_raw_container({"kind": "demo", "meta": {}, "arrays": [spec]}, bytes(8)))
        with pytest.raises(_Damaged, match="bad array entry"):
            read_container(path, "demo", _Damaged)

    def test_deeply_nested_header_is_a_bad_header(self, tmp_path):
        path = tmp_path / "a.bin"
        raw = b"[" * 100_000
        path.write_bytes(CONTAINER_MAGIC + struct.pack("<Q", len(raw)) + raw)
        with pytest.raises(_Damaged, match="bad container header"):
            read_container(path, "demo", _Damaged)

    def test_huge_shape_fails_truncated_before_allocating(self, tmp_path):
        path = tmp_path / "a.bin"
        header = {"kind": "demo", "meta": {},
                  "arrays": [{"name": "v", "dtype": "<f8", "shape": [2**40, 2**20]}]}
        path.write_bytes(_raw_container(header, bytes(64)))
        tracemalloc.start()
        try:
            with pytest.raises(_Damaged, match="truncated"):
                read_container(path, "demo", _Damaged)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
