"""Sequence embedding tables: one-hot encoding and table I/O.

A table is one read-only ``(n, dim)`` float64 matrix plus an id -> row
map.  Tables produced by external embedding models (per-residue encoders
mean-pooled to a fixed width, etc.) are loaded from disk and treated as
opaque; the only embedding computed in-process is the positional one-hot.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    AA_INDEX, AMINO_ACIDS, CONTAINER_MAGIC, ProteinRecord, read_container, write_container,
)

DEFAULT_MAX_LEN = 1000
ONE_HOT_TAG = "one-hot"

_KIND = "embedding-table"


class EmbeddingError(ValueError):
    pass


class EmbeddingTable:
    """Record id -> fixed-width vector, held as one read-only float64 matrix in id order.

    Build a table from an id -> vector mapping, or adopt a matrix with
    :meth:`from_rows`; :meth:`get` and :meth:`matrix` hand out views of it.
    """

    def __init__(self, tag: str, dim: int, vectors: Mapping[str, np.ndarray]):
        matrix = np.empty((len(vectors), dim))
        for row, (rec_id, vec) in zip(matrix, vectors.items()):
            if np.shape(vec) != (dim,):
                raise EmbeddingError(
                    f"table {tag}: vector for {rec_id} has shape {np.shape(vec)}, "
                    f"expected ({dim},)"
                )
            row[:] = vec
        self._adopt(tag, tuple(vectors), matrix)

    @classmethod
    def from_rows(cls, tag: str, ids: Sequence[str], matrix: np.ndarray) -> "EmbeddingTable":
        """A table whose row ``i`` is the vector of ``ids[i]``; ``matrix`` is
        not copied when it is already C-contiguous float64."""
        table = cls.__new__(cls)
        table._adopt(tag, tuple(ids), matrix)
        return table

    def _adopt(self, tag: str, ids: tuple[str, ...], matrix: np.ndarray) -> None:
        matrix = np.ascontiguousarray(matrix, dtype=np.float64).view()
        if matrix.ndim != 2 or len(ids) != len(matrix):
            raise EmbeddingError(
                f"table {tag}: {len(ids)} ids for vectors of shape {matrix.shape}")
        if matrix.shape[1] <= 0:
            raise EmbeddingError(f"table {tag}: dim must be positive")
        row_of = {rec_id: row for row, rec_id in enumerate(ids)}
        if len(row_of) != len(ids):
            raise EmbeddingError(f"table {tag}: duplicate ids")
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if bad.size:
            raise EmbeddingError(f"table {tag}: non-finite vector for {ids[bad[0]]}")
        matrix.flags.writeable = False
        self.tag, self.dim = tag, matrix.shape[1]
        self._ids, self._row_of, self._matrix = ids, row_of, matrix

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, rec_id: str) -> bool:
        return rec_id in self._row_of

    def _row(self, rec_id: str) -> int:
        try:
            return self._row_of[rec_id]
        except KeyError:
            raise KeyError(f"id {rec_id!r} missing from embedding table {self.tag!r}") from None

    def get(self, rec_id: str) -> np.ndarray:
        return self._matrix[self._row(rec_id)]

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def rows(self, ids: Sequence[str]) -> np.ndarray:
        """The row number of each of ``ids``, in order."""
        return np.array([self._row(rec_id) for rec_id in ids], dtype=np.intp)

    def matrix(self, ids: Optional[Sequence[str]] = None) -> np.ndarray:
        """The whole matrix (no copy), or a copy of the rows of ``ids`` in order."""
        return self._matrix if ids is None else self._matrix[self.rows(ids)]


def one_hot_encode(seq: str, max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Positional one-hot over the 25-symbol alphabet, truncated/padded.

    The vector has one block of 25 per position; its sum equals
    min(len(seq), max_len).
    """
    if max_len <= 0:
        raise EmbeddingError(f"max_len must be positive, got {max_len}")
    vec = np.zeros(len(AMINO_ACIDS) * max_len, dtype=np.float64)
    for pos, ch in enumerate(seq[:max_len]):
        try:
            vec[pos * len(AMINO_ACIDS) + AA_INDEX[ch]] = 1.0
        except KeyError:
            raise EmbeddingError(f"character {ch!r} outside the sequence alphabet") from None
    return vec


def one_hot_table(
    pairs: Iterable[tuple[str, str]] | Iterable[ProteinRecord],
    max_len: int = DEFAULT_MAX_LEN,
) -> EmbeddingTable:
    """Encode (id, seq) pairs or records into a one-hot table."""
    if max_len <= 0:
        raise EmbeddingError(f"max_len must be positive, got {max_len}")
    items = [(item.id, item.seq) if isinstance(item, ProteinRecord) else item
             for item in pairs]
    matrix = np.zeros((len(items), len(AMINO_ACIDS) * max_len), dtype=np.float64)
    for row, (_rec_id, seq) in zip(matrix, items):
        row[:] = one_hot_encode(seq, max_len)
    return EmbeddingTable.from_rows(ONE_HOT_TAG, [rec_id for rec_id, _seq in items], matrix)


# --------------------------------------------------------------------------
# Table I/O


def save_embedding_table(table: EmbeddingTable, path: str | Path) -> None:
    """Binary container: ``meta = {tag, ids}`` and one ``(n, dim)`` float64 ``vectors``.

    Loading and re-saving is byte-identical.
    """
    write_container(path, _KIND, {"tag": table.tag, "ids": table.ids()},
                    {"vectors": table.matrix()})


def _load_binary_table(path: Path, tag: Optional[str]) -> EmbeddingTable:
    """The stored matrix becomes the table's matrix; ``tag`` overrides the stored tag."""
    meta, arrays = read_container(path, _KIND, EmbeddingError)
    try:
        stored_tag, ids, matrix = meta["tag"], meta["ids"], arrays["vectors"]
        return EmbeddingTable.from_rows(stored_tag if tag is None else tag, ids, matrix)
    except (KeyError, TypeError, EmbeddingError) as exc:
        raise EmbeddingError(f"{path}: bad embedding table: {exc}") from None


def save_embedding_table_tsv(table: EmbeddingTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec_id, vec in zip(table.ids(), table.matrix()):
            fh.write(rec_id + "\t" + "\t".join(repr(float(v)) for v in vec) + "\n")


def _load_tsv_table(path: Path, tag: str) -> EmbeddingTable:
    rows: dict[str, list[float]] = {}
    dim: Optional[int] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cols = line.rstrip("\n").split("\t")
            if line_no == 1 and cols[0].strip().lower() == "id":
                continue
            rec_id, values = cols[0], cols[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise EmbeddingError(f"{path}:{line_no}: row without values")
            elif len(values) != dim:
                raise EmbeddingError(
                    f"{path}:{line_no}: expected {dim} values, got {len(values)}"
                )
            if rec_id in rows:
                raise EmbeddingError(f"{path}:{line_no}: duplicate id {rec_id!r}")
            rows[rec_id] = [float(v) for v in values]
    if dim is None:
        raise EmbeddingError(f"{path}: empty table")
    return EmbeddingTable.from_rows(tag, list(rows), np.array(list(rows.values())))


def load_embedding_table(path: str | Path, tag: Optional[str] = None) -> EmbeddingTable:
    """Load a table from the binary container or from id\\tv0\\tv1... text."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(CONTAINER_MAGIC))
    if head == CONTAINER_MAGIC:
        return _load_binary_table(path, tag)
    try:
        return _load_tsv_table(path, tag or path.stem)
    except UnicodeDecodeError:
        raise EmbeddingError(
            f"{path}: neither an ecann container nor a UTF-8 TSV table"
        ) from None
