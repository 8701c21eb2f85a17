"""Sequence embedding tables: one-hot encoding and table I/O.

A table is one read-only ``(n, dim)`` float64 matrix plus an id -> row
map.  Tables produced by external embedding models (per-residue encoders
mean-pooled to a fixed width, etc.) are loaded from disk and treated as
opaque; the only embedding computed in-process is the positional one-hot.
A one-hot row is a pure function of its residue codes (one uint8 per
position), so one-hot tables are encoded, stored and loaded as codes and
decoded into float64 rows by one scatter.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    AMINO_ACIDS, CONTAINER_MAGIC, ProteinRecord, read_container, write_container,
)

DEFAULT_MAX_LEN = 1000
ONE_HOT_TAG = "one-hot"

_ALPHABET = len(AMINO_ACIDS)
# residue code by code point: 1..25 in alphabet order, 0 (refused) for the rest
_CODE_OF = np.zeros(128, dtype=np.uint8)
_CODE_OF[[ord(aa) for aa in AMINO_ACIDS]] = np.arange(1, _ALPHABET + 1)

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


def _residue_codes(seqs: Sequence[str], max_len: int) -> np.ndarray:
    """``(len(seqs), max_len)`` uint8 residue codes, truncated/padded.

    Code 0 pads; code ``k`` is ``AMINO_ACIDS[k - 1]``.  Only the first
    ``max_len`` residues are read; the first of them outside the alphabet
    raises EmbeddingError.
    """
    if max_len <= 0:
        raise EmbeddingError(f"max_len must be positive, got {max_len}")
    codes = np.zeros((len(seqs), max_len), dtype=np.uint8)
    for row, seq in zip(codes, seqs):
        head = seq[:max_len]
        points = np.frombuffer(head.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        row[: len(head)] = _CODE_OF[np.minimum(points, len(_CODE_OF) - 1)]
        bad = np.flatnonzero(row[: len(head)] == 0)
        if bad.size:
            raise EmbeddingError(f"character {head[bad[0]]!r} outside the sequence alphabet")
    return codes


def _decode_codes(codes: np.ndarray) -> np.ndarray:
    """The ``(n, 25 * max_len)`` float64 one-hot rows of ``(n, max_len)`` codes
    in ``0..25``, set by one scatter."""
    rows = np.zeros((codes.shape[0], _ALPHABET * codes.shape[1]))
    flat = codes.ravel()
    hot = np.flatnonzero(flat)
    rows.ravel()[hot * _ALPHABET + flat[hot] - 1] = 1.0
    return rows


def one_hot_encode(seq: str, max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Positional one-hot over the 25-symbol alphabet, truncated/padded.

    The vector has one block of 25 per position; its sum equals
    min(len(seq), max_len).
    """
    return _decode_codes(_residue_codes([seq], max_len))[0]


def one_hot_table(
    pairs: Iterable[tuple[str, str]] | Iterable[ProteinRecord],
    max_len: int = DEFAULT_MAX_LEN,
) -> EmbeddingTable:
    """Encode (id, seq) pairs or records into a one-hot table."""
    items = [(item.id, item.seq) if isinstance(item, ProteinRecord) else item
             for item in pairs]
    codes = _residue_codes([seq for _rec_id, seq in items], max_len)
    return EmbeddingTable.from_rows(
        ONE_HOT_TAG, [rec_id for rec_id, _seq in items], _decode_codes(codes))


def _one_hot_codes(table: EmbeddingTable) -> np.ndarray:
    """The residue codes of a one-hot table; raises EmbeddingError, naming
    the first bad row, unless they decode to its matrix bit for bit."""
    if table.dim % _ALPHABET:
        raise EmbeddingError(
            f"table {table.tag}: width {table.dim} is not a multiple of {_ALPHABET}")
    matrix = table.matrix()
    blocks = matrix.reshape(len(table), table.dim // _ALPHABET, _ALPHABET)
    codes = (blocks.argmax(axis=2) + 1).astype(np.uint8)
    codes[~blocks.any(axis=2)] = 0
    # row by row, so the check never holds a second table-sized matrix
    for rec_id, row, row_codes in zip(table.ids(), matrix, codes):
        decoded = _decode_codes(row_codes[None])[0]
        if not np.array_equal(decoded.view(np.uint64), row.view(np.uint64)):
            raise EmbeddingError(f"table {table.tag}: the vector for {rec_id} is not one-hot")
    return codes


def _stored_codes_matrix(codes: np.ndarray) -> np.ndarray:
    """Decode a stored ``codes`` array, refusing a wrong dtype, shape or code."""
    if codes.dtype != np.uint8 or codes.ndim != 2:
        raise EmbeddingError(f"codes must be 2-D uint8, not {codes.dtype} {codes.shape}")
    bad = np.flatnonzero(codes.ravel() > _ALPHABET)
    if bad.size:
        raise EmbeddingError(
            f"row {bad[0] // codes.shape[1]} holds residue code {codes.flat[bad[0]]}, "
            f"above {_ALPHABET}")
    return _decode_codes(codes)


# --------------------------------------------------------------------------
# Table I/O


def save_embedding_table(table: EmbeddingTable, path: str | Path) -> None:
    """Binary container with ``meta = {tag, ids}`` and one array.

    A table tagged one-hot stores ``codes``, its ``(n, max_len)`` uint8
    residue codes (see :func:`_residue_codes`), and is refused unless they
    decode to its matrix bit for bit; any other table stores ``vectors``,
    its ``(n, dim)`` float64 matrix.  Loading and re-saving is byte-identical.
    """
    meta = {"tag": table.tag, "ids": table.ids()}
    if table.tag == ONE_HOT_TAG:
        write_container(path, _KIND, meta, {"codes": _one_hot_codes(table)})
    else:
        write_container(path, _KIND, meta, {"vectors": table.matrix()})


def _load_binary_table(path: Path, tag: Optional[str]) -> EmbeddingTable:
    """The stored (or decoded) matrix becomes the table's matrix; ``tag``
    overrides the stored tag."""
    meta, arrays = read_container(path, _KIND, EmbeddingError)
    try:
        stored_tag, ids = meta["tag"], meta["ids"]
        if arrays.keys() == {"vectors"}:
            matrix = arrays["vectors"]
        elif arrays.keys() == {"codes"}:
            matrix = _stored_codes_matrix(arrays["codes"])
        else:
            raise EmbeddingError(
                f"arrays {sorted(arrays)}: need exactly one of 'vectors' and 'codes'")
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
