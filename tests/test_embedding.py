import json
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecann.core import AMINO_ACIDS, CONTAINER_MAGIC
from ecann.embedding import (
    EmbeddingError,
    EmbeddingTable,
    one_hot_encode,
    one_hot_table,
    load_embedding_table,
    save_embedding_table,
    save_embedding_table_tsv,
)


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
