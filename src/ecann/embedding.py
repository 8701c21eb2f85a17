"""Sequence embedding tables: one-hot encoding and table I/O.

Tables produced by external embedding models (per-residue encoders
mean-pooled to a fixed width, etc.) are loaded from disk and treated as
opaque id -> vector maps; the only embedding computed in-process is the
positional one-hot.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    AA_INDEX, AMINO_ACIDS, CONTAINER_MAGIC, ProteinRecord, read_container, write_container,
)

DEFAULT_MAX_LEN = 1000
ONE_HOT_TAG = "one-hot"

_KIND = "embedding-table"


class EmbeddingError(ValueError):
    pass


@dataclass
class EmbeddingTable:
    """Immutable-by-convention map from record id to a fixed-width vector."""

    tag: str
    dim: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise EmbeddingError(f"table {self.tag}: dim must be positive")
        for rec_id, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise EmbeddingError(
                    f"table {self.tag}: vector for {rec_id} has shape {vec.shape}, "
                    f"expected ({self.dim},)"
                )
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"table {self.tag}: non-finite vector for {rec_id}")

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, rec_id: str) -> bool:
        return rec_id in self.vectors

    def get(self, rec_id: str) -> np.ndarray:
        try:
            return self.vectors[rec_id]
        except KeyError:
            raise KeyError(f"id {rec_id!r} missing from embedding table {self.tag!r}") from None

    def ids(self) -> list[str]:
        return list(self.vectors.keys())

    def matrix(self, ids: Sequence[str]) -> np.ndarray:
        return np.stack([self.get(i) for i in ids]) if ids else np.zeros((0, self.dim))


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
    vectors: dict[str, np.ndarray] = {}
    for item in pairs:
        if isinstance(item, ProteinRecord):
            rec_id, seq = item.id, item.seq
        else:
            rec_id, seq = item
        if rec_id in vectors:
            raise EmbeddingError(f"duplicate id {rec_id!r} in one-hot input")
        vectors[rec_id] = one_hot_encode(seq, max_len)
    dim = len(AMINO_ACIDS) * max_len
    return EmbeddingTable(tag=ONE_HOT_TAG, dim=dim, vectors=vectors)


# --------------------------------------------------------------------------
# Table I/O


def save_embedding_table(table: EmbeddingTable, path: str | Path) -> None:
    """Binary container: ``meta = {tag, ids}`` and one ``(n, dim)`` float64 ``vectors``.

    Loading and re-saving is byte-identical.
    """
    ids = table.ids()
    matrix = np.asarray(table.matrix(ids), dtype=np.float64)
    write_container(path, _KIND, {"tag": table.tag, "ids": ids}, {"vectors": matrix})


def _load_binary_table(path: Path) -> EmbeddingTable:
    meta, arrays = read_container(path, _KIND, EmbeddingError)
    try:
        tag, ids, matrix = meta["tag"], meta["ids"], arrays["vectors"]
        vectors = dict(zip(ids, matrix))
    except (KeyError, TypeError) as exc:
        raise EmbeddingError(f"{path}: bad embedding table: {exc}") from None
    if matrix.ndim != 2 or len(ids) != len(matrix):
        raise EmbeddingError(f"{path}: {len(ids)} ids for vectors of shape {matrix.shape}")
    if len(vectors) != len(ids):
        raise EmbeddingError(f"{path}: duplicate ids")
    return EmbeddingTable(tag=tag, dim=matrix.shape[1], vectors=vectors)


def save_embedding_table_tsv(table: EmbeddingTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec_id, vec in table.vectors.items():
            fh.write(rec_id + "\t" + "\t".join(repr(float(v)) for v in vec) + "\n")


def _load_tsv_table(path: Path, tag: str) -> EmbeddingTable:
    vectors: dict[str, np.ndarray] = {}
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
            if rec_id in vectors:
                raise EmbeddingError(f"{path}:{line_no}: duplicate id {rec_id!r}")
            vectors[rec_id] = np.array([float(v) for v in values], dtype=np.float64)
    if dim is None:
        raise EmbeddingError(f"{path}: empty table")
    return EmbeddingTable(tag=tag, dim=dim, vectors=vectors)


def load_embedding_table(path: str | Path, tag: Optional[str] = None) -> EmbeddingTable:
    """Load a table from the binary container or from id\\tv0\\tv1... text."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(CONTAINER_MAGIC))
    if head == CONTAINER_MAGIC:
        table = _load_binary_table(path)
        if tag is not None and tag != table.tag:
            table = EmbeddingTable(tag=tag, dim=table.dim, vectors=table.vectors)
        return table
    try:
        return _load_tsv_table(path, tag or path.stem)
    except UnicodeDecodeError:
        raise EmbeddingError(
            f"{path}: neither an ecann container nor a UTF-8 TSV table"
        ) from None
