import json
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecann.core import AA_INDEX, AMINO_ACIDS, CONTAINER_MAGIC, read_container, write_container
from ecann.embedding import (
    EmbeddingError,
    EmbeddingTable,
    ONE_HOT_TAG,
    one_hot_encode,
    one_hot_table,
    load_embedding_table,
    save_embedding_table,
    save_embedding_table_tsv,
)


def _per_residue_one_hot(seq, max_len):
    """The one-hot encoder as it was before residue codes: one Python step per residue."""
    if max_len <= 0:
        raise EmbeddingError(f"max_len must be positive, got {max_len}")
    vec = np.zeros(len(AMINO_ACIDS) * max_len, dtype=np.float64)
    for pos, ch in enumerate(seq[:max_len]):
        try:
            vec[pos * len(AMINO_ACIDS) + AA_INDEX[ch]] = 1.0
        except KeyError:
            raise EmbeddingError(f"character {ch!r} outside the sequence alphabet") from None
    return vec


def _outcome(fn, *args):
    """The bytes of ``fn(*args)``, or the message of the EmbeddingError it raised."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except EmbeddingError as exc:
        return str(exc)


class TestOneHot:
    def test_positions_and_alphabet_indices(self):
        vec = one_hot_encode("AC", max_len=3)
        assert vec.shape == (75,)
        assert vec[0] == 1.0  # A at position 0
        assert vec[25 + 1] == 1.0  # C at position 1
        assert vec.sum() == 2.0

    def test_truncation_beyond_max_len(self):
        vec = one_hot_encode("A" * 10, max_len=4)
        assert vec.sum() == 4.0

    def test_bad_character_rejected(self):
        with pytest.raises(EmbeddingError, match="alphabet"):
            one_hot_encode("A*C", max_len=4)

    def test_bad_max_len_rejected(self):
        with pytest.raises(EmbeddingError):
            one_hot_encode("AC", max_len=0)


@given(st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=60), st.integers(1, 50))
def test_one_hot_sum_equals_clamped_length(seq, max_len):
    vec = one_hot_encode(seq, max_len=max_len)
    assert vec.shape == (25 * max_len,)
    assert vec.sum() == min(len(seq), max_len)
    # Each position block holds at most a single 1.
    blocks = vec.reshape(max_len, 25)
    assert np.all(blocks.sum(axis=1) <= 1.0)


@given(st.text(alphabet=AMINO_ACIDS, max_size=40), st.integers(1, 30))
def test_one_hot_encode_matches_the_per_residue_oracle(seq, max_len):
    assert one_hot_encode(seq, max_len).tobytes() == _per_residue_one_hot(seq, max_len).tobytes()


@given(st.text(alphabet=AMINO_ACIDS + "#*x\x7f\xe9\u0101", max_size=40), st.integers(1, 30))
def test_one_hot_encode_names_the_first_bad_character_like_the_oracle(seq, max_len):
    assert _outcome(one_hot_encode, seq, max_len) == _outcome(_per_residue_one_hot, seq, max_len)


@given(st.lists(st.text(alphabet=AMINO_ACIDS, max_size=40), max_size=6), st.integers(1, 30))
def test_one_hot_table_rows_match_the_per_residue_oracle(seqs, max_len):
    table = one_hot_table([(f"P{k}", seq) for k, seq in enumerate(seqs)], max_len)
    assert table.matrix().shape == (len(seqs), 25 * max_len)
    assert table.matrix().flags.c_contiguous and not table.matrix().flags.writeable
    for row, seq in zip(table.matrix(), seqs):
        assert row.tobytes() == _per_residue_one_hot(seq, max_len).tobytes()


class TestEmbeddingTable:
    def test_missing_id_names_table_and_id(self):
        table = one_hot_table([("A", "MK")], max_len=4)
        with pytest.raises(KeyError, match="'B'.*one-hot"):
            table.get("B")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EmbeddingError, match="shape"):
            EmbeddingTable(tag="t", dim=3, vectors={"A": np.zeros(2)})

    def test_non_finite_rejected(self):
        with pytest.raises(EmbeddingError, match="non-finite"):
            EmbeddingTable(tag="t", dim=2, vectors={"A": np.array([1.0, np.nan])})

    def test_duplicate_one_hot_input_rejected(self):
        with pytest.raises(EmbeddingError, match="duplicate"):
            one_hot_table([("A", "MK"), ("A", "VL")], max_len=4)


class TestColumnarStore:
    def make_table(self):
        rng = np.random.default_rng(0)
        return EmbeddingTable.from_rows("custom", ["P0", "P1", "P2"], rng.normal(size=(3, 4)))

    def test_matrix_and_rows_are_read_only(self):
        table = self.make_table()
        with pytest.raises(ValueError, match="read-only"):
            table.matrix()[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table.get("P1")[0] = 1.0

    def test_rows_share_the_adopted_matrix(self):
        rows = np.arange(12.0).reshape(3, 4)
        table = EmbeddingTable.from_rows("t", ["a", "b", "c"], rows)
        assert np.shares_memory(table.matrix(), rows)
        assert np.shares_memory(table.get("b"), rows)
        np.testing.assert_array_equal(table.get("b"), rows[1])
        rows[0, 0] = -1.0  # the caller's array keeps its own write flag
        assert table.matrix()[0, 0] == -1.0

    def test_gathered_rows_are_a_copy_in_the_asked_order(self):
        table = self.make_table()
        got = table.matrix(["P2", "P0"])
        np.testing.assert_array_equal(got, table.matrix()[[2, 0]])
        assert not np.shares_memory(got, table.matrix())
        assert table.matrix([]).shape == (0, 4)

    def test_mapping_vectors_are_stored_as_float64(self):
        vectors = {"A": np.array([1.5, 2.0], dtype=np.float32)}
        table = EmbeddingTable(tag="t", dim=2, vectors=vectors)
        assert table.matrix().dtype == np.float64 and table.matrix().flags.c_contiguous
        assert vectors["A"].dtype == np.float32 and vectors["A"].flags.writeable

    def test_non_finite_row_names_its_id(self):
        rows = np.zeros((3, 2))
        rows[2, 1] = np.inf
        with pytest.raises(EmbeddingError, match="non-finite vector for c"):
            EmbeddingTable.from_rows("t", ["a", "b", "c"], rows)

    def test_retagged_load_adopts_the_stored_rows(self, tmp_path, monkeypatch):
        import ecann.embedding as embedding

        path = tmp_path / "a.bin"
        save_embedding_table(self.make_table(), path)
        read = embedding.read_container
        stored = {}

        def spy(*args):
            meta, arrays = read(*args)
            stored.update(arrays)
            return meta, arrays

        monkeypatch.setattr(embedding, "read_container", spy)
        table = load_embedding_table(path, tag="renamed")
        assert table.tag == "renamed" and table.ids() == ("P0", "P1", "P2")
        assert np.shares_memory(table.matrix(), stored["vectors"])


def _split_container(blob: bytes) -> tuple[dict, bytes]:
    """A container's JSON header and the bytes after it."""
    (head_len,) = struct.unpack_from("<Q", blob, len(CONTAINER_MAGIC))
    start = len(CONTAINER_MAGIC) + 8
    return json.loads(blob[start:start + head_len]), blob[start + head_len:]


def _join_container(header: dict, rest: bytes) -> bytes:
    raw = json.dumps(header).encode("ascii")
    raw += b" " * (-len(raw) % 8)
    return CONTAINER_MAGIC + struct.pack("<Q", len(raw)) + raw + rest


class TestTableIo:
    def make_table(self):
        rng = np.random.default_rng(0)
        vectors = {f"P{i}": rng.normal(size=7) for i in range(5)}
        return EmbeddingTable(tag="custom", dim=7, vectors=vectors)

    def test_binary_round_trip_byte_identical(self, tmp_path):
        table = self.make_table()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_embedding_table(table, p1)
        loaded = load_embedding_table(p1)
        assert loaded.tag == "custom" and loaded.dim == 7
        for rec_id in table.ids():
            np.testing.assert_array_equal(loaded.get(rec_id), table.get(rec_id))
        save_embedding_table(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        rebuilt = EmbeddingTable(tag="custom", dim=7,
                                 vectors={rec_id: loaded.get(rec_id) for rec_id in loaded.ids()})
        save_embedding_table(rebuilt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tsv_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "t.tsv"
        save_embedding_table_tsv(table, path)
        loaded = load_embedding_table(path, tag="custom")
        for rec_id in table.ids():
            np.testing.assert_allclose(loaded.get(rec_id), table.get(rec_id), rtol=0, atol=0)

    def test_ragged_tsv_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("A\t1.0\t2.0\nB\t3.0\n")
        with pytest.raises(EmbeddingError, match="expected 2 values"):
            load_embedding_table(path)

    def test_truncated_container_rejected(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "a.bin"
        save_embedding_table(table, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(EmbeddingError, match="truncated"):
            load_embedding_table(path)

    def test_every_truncation_is_a_named_error(self, tmp_path):
        path = tmp_path / "a.bin"
        save_embedding_table(self.make_table(), path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(EmbeddingError):
                load_embedding_table(path)

    @pytest.mark.parametrize("dim, match", [
        (2**32 - 1, "truncated"),  # 32 GiB of rows: fail before making any view
        (0, "dim must be positive"),  # a consistent container of zero-width rows
    ])
    def test_corrupt_dim_fails_before_reading_rows(self, tmp_path, dim, match):
        path = tmp_path / "a.bin"
        save_embedding_table(self.make_table(), path)
        header, rows = _split_container(path.read_bytes())
        assert header["arrays"] == [{"dtype": "<f8", "name": "vectors", "shape": [5, 7]}]
        header["arrays"][0]["shape"][1] = dim
        path.write_bytes(_join_container(header, rows[: 5 * dim * 8]))
        with pytest.raises(EmbeddingError, match=match):
            load_embedding_table(path)

    def test_corrupt_row_count_fails_before_reading_rows(self, tmp_path):
        path = tmp_path / "a.bin"
        save_embedding_table(self.make_table(), path)
        header, rows = _split_container(path.read_bytes())
        header["arrays"][0]["shape"][0] = 2**40
        path.write_bytes(_join_container(header, rows))
        with pytest.raises(EmbeddingError, match="truncated"):
            load_embedding_table(path)

    def test_trailing_byte_is_a_named_error(self, tmp_path):
        path = tmp_path / "a.bin"
        save_embedding_table(self.make_table(), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(EmbeddingError, match="trailing"):
            load_embedding_table(path)

    def test_ids_must_match_the_rows(self, tmp_path):
        path = tmp_path / "a.bin"
        save_embedding_table(self.make_table(), path)
        header, rows = _split_container(path.read_bytes())
        header["meta"]["ids"][1] = header["meta"]["ids"][0]
        path.write_bytes(_join_container(header, rows))
        with pytest.raises(EmbeddingError, match="duplicate"):
            load_embedding_table(path)
        header["meta"]["ids"].pop()
        path.write_bytes(_join_container(header, rows))
        with pytest.raises(EmbeddingError, match="4 ids"):
            load_embedding_table(path)

    def test_old_binary_layout_is_a_named_error(self, tmp_path):
        # The retired ECEMB1 layout: magic, <IHIQH head, tag, padded id, raw rows.
        path = tmp_path / "old.bin"
        head = b"ECEMB1\n" + struct.pack("<IHIQH", 1, 6, 7, 1, 2) + b"custom"
        path.write_bytes(head + b"P0" + np.arange(7.0).tobytes())
        with pytest.raises(EmbeddingError, match="neither an ecann container nor a UTF-8"):
            load_embedding_table(path)


class TestOneHotCodes:
    """A one-hot table is stored as one uint8 residue code per position."""

    SEQS = [("P0", "MKVLA"), ("P1", "ACDEFGHIKLMNPQRSTVWYBZXUO"), ("P2", "W")]

    def saved(self, tmp_path, max_len=8):
        path = tmp_path / "a.bin"
        save_embedding_table(one_hot_table(self.SEQS, max_len), path)
        return path

    def test_codes_are_stored_and_decode_bit_for_bit(self, tmp_path):
        path = self.saved(tmp_path)
        header, rest = _split_container(path.read_bytes())
        assert header["arrays"] == [{"dtype": "|u1", "name": "codes", "shape": [3, 8]}]
        _, arrays = read_container(path, "embedding-table", EmbeddingError)
        assert arrays["codes"][0].tolist() == [11, 9, 18, 10, 1, 0, 0, 0]  # M K V L A
        assert arrays["codes"][1].tolist() == list(range(1, 9))
        loaded = load_embedding_table(path)
        want = one_hot_table(self.SEQS, 8).matrix()
        assert loaded.tag == ONE_HOT_TAG and loaded.ids() == ("P0", "P1", "P2")
        assert loaded.matrix().tobytes() == want.tobytes()
        assert loaded.matrix().flags.c_contiguous and not loaded.matrix().flags.writeable
        again = tmp_path / "b.bin"
        save_embedding_table(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_every_prefix_is_a_named_error(self, tmp_path):
        path = self.saved(tmp_path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(EmbeddingError):
                load_embedding_table(path)

    @pytest.mark.parametrize("code", [26, 255])
    def test_a_code_above_25_is_refused(self, tmp_path, code):
        path = self.saved(tmp_path)
        meta, arrays = read_container(path, "embedding-table", EmbeddingError)
        codes = arrays["codes"].copy()
        codes[2, 3] = code
        write_container(path, "embedding-table", meta, {"codes": codes})
        with pytest.raises(EmbeddingError, match=f"row 2 holds residue code {code}, above 25"):
            load_embedding_table(path)

    def test_both_arrays_or_neither_is_refused(self, tmp_path):
        path = self.saved(tmp_path)
        meta, arrays = read_container(path, "embedding-table", EmbeddingError)
        both = {"codes": arrays["codes"], "vectors": one_hot_table(self.SEQS, 8).matrix()}
        for stored in (both, {}):
            write_container(path, "embedding-table", meta, stored)
            with pytest.raises(EmbeddingError, match="exactly one of 'vectors' and 'codes'"):
                load_embedding_table(path)

    def test_codes_of_another_dtype_are_refused(self, tmp_path):
        path = self.saved(tmp_path)
        meta, arrays = read_container(path, "embedding-table", EmbeddingError)
        write_container(path, "embedding-table", meta,
                        {"codes": arrays["codes"].astype(np.uint32)})
        with pytest.raises(EmbeddingError, match="codes must be 2-D uint8"):
            load_embedding_table(path)

    @pytest.mark.parametrize("damage", ["half", "two hot", "negative zero", "minus one"])
    def test_a_one_hot_tag_on_other_rows_is_refused_at_save(self, tmp_path, damage):
        matrix = one_hot_table(self.SEQS, 8).matrix().copy()
        block = matrix[1].reshape(8, 25)[6]  # P1's seventh position: H
        if damage == "half":
            block[7] = 0.5
        elif damage == "two hot":
            block[0] = 1.0
        elif damage == "negative zero":
            matrix[1, -1] = -0.0
        else:
            matrix[1, -1] = -1.0
        table = EmbeddingTable.from_rows(ONE_HOT_TAG, ["P0", "P1", "P2"], matrix)
        path = tmp_path / "a.bin"
        with pytest.raises(EmbeddingError, match="the vector for P1 is not one-hot"):
            save_embedding_table(table, path)
        assert not path.exists()

    def test_a_one_hot_tag_on_a_width_off_the_alphabet_is_refused_at_save(self, tmp_path):
        table = EmbeddingTable.from_rows(ONE_HOT_TAG, ["P0"], np.zeros((1, 26)))
        with pytest.raises(EmbeddingError, match="width 26 is not a multiple of 25"):
            save_embedding_table(table, tmp_path / "a.bin")
