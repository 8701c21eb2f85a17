"""Sequence embedding tables: one-hot encoding and table I/O.

Tables produced by external embedding models (per-residue encoders
mean-pooled to a fixed width, etc.) are loaded from disk and treated as
opaque id -> vector maps; the only embedding computed in-process is the
positional one-hot.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import AA_INDEX, AMINO_ACIDS, ProteinRecord, read_exact, read_struct

DEFAULT_MAX_LEN = 1000
ONE_HOT_TAG = "one-hot"

_MAGIC = b"ECEMB1\n"
_VERSION = 1


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
    """Binary container: magic, version, tag, dim, count, id width, rows.

    Rows are fixed width (padded utf-8 id, then dim little-endian
    float64), so loading and re-serializing is byte-identical.
    """
    ids = [rec_id.encode("utf-8") for rec_id in table.vectors]
    id_width = max((len(b) for b in ids), default=1)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        tag_bytes = table.tag.encode("utf-8")
        fh.write(struct.pack("<IHIQH", _VERSION, len(tag_bytes), table.dim, len(ids), id_width))
        fh.write(tag_bytes)
        for rec_id, raw in zip(ids, table.vectors.values()):
            fh.write(rec_id.ljust(id_width, b"\0"))
            fh.write(np.ascontiguousarray(raw, dtype="<f8").tobytes())


def _load_binary_table(path: Path) -> EmbeddingTable:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise EmbeddingError(f"{path}: not an embedding table container")
        version, tag_len, dim, count, id_width = read_struct(fh, "<IHIQH", EmbeddingError)
        if version != _VERSION:
            raise EmbeddingError(f"{path}: unsupported container version {version}")
        if dim == 0:
            raise EmbeddingError(f"{path}: dim must be positive")
        tag = read_exact(fh, tag_len, EmbeddingError).decode("utf-8")
        vectors: dict[str, np.ndarray] = {}
        for _ in range(count):
            rec_id = read_exact(fh, id_width, EmbeddingError).rstrip(b"\0").decode("utf-8")
            raw = read_exact(fh, dim * 8, EmbeddingError)
            vectors[rec_id] = np.frombuffer(raw, dtype="<f8").copy()
        if fh.read(1):
            raise EmbeddingError(f"{path}: trailing bytes after {count} rows")
    return EmbeddingTable(tag=tag, dim=dim, vectors=vectors)


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
        head = fh.read(len(_MAGIC))
    if head == _MAGIC:
        table = _load_binary_table(path)
        if tag is not None and tag != table.tag:
            table = EmbeddingTable(tag=tag, dim=table.dim, vectors=table.vectors)
        return table
    return _load_tsv_table(path, tag or path.stem)
