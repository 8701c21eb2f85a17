"""Core domain types: EC numbers, protein records, labels, predictions.

Everything here is immutable after construction and hashable where it
makes sense, so the types are safe to share between threads and to use
as dictionary keys.  The binary container codec that every binary
artifact is written with lives here too.
"""
from __future__ import annotations

import json
import logging
import math
import re
import struct
from dataclasses import dataclass
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# 20 standard residues plus ambiguity/rare codes (B, Z, X, U, O).
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWYBZXUO"
AA_INDEX = {aa: i for i, aa in enumerate(AMINO_ACIDS)}

# EC top-level classes run 1..7 (oxidoreductases through translocases).
EC_TOP_CLASSES = 7
EC_LEVELS = 4
UNKNOWN_LEVEL = "-"

# Multifunctional annotation is bounded: at most eight EC numbers per protein.
MAX_FUNCTIONS = 8

# Multiple EC numbers on one record are separated by semicolons,
# optionally padded with whitespace.
EC_DELIMITER = ";"

_INT_RE = re.compile(r"^[0-9]+$")
_PRELIMINARY_RE = re.compile(r"^n[0-9]+$", re.IGNORECASE)


class ECParseError(ValueError):
    """Raised when an EC string cannot be parsed into a valid code."""


@dataclass(frozen=True)
class ECNumber:
    """A four-level EC code; ``None`` marks an unknown trailing level.

    Known levels must form a prefix: once a level is unknown, all deeper
    levels are unknown too ("1.14.-.-" is valid, "1.-.14.-" is not).
    """

    levels: tuple[Optional[int], Optional[int], Optional[int], Optional[int]]

    def __post_init__(self) -> None:
        if len(self.levels) != EC_LEVELS:
            raise ECParseError(f"EC code needs {EC_LEVELS} levels, got {len(self.levels)}")
        seen_unknown = False
        for depth, lvl in enumerate(self.levels, start=1):
            if lvl is None:
                seen_unknown = True
                continue
            if seen_unknown:
                raise ECParseError(
                    f"level {depth} is known but a shallower level is unknown; "
                    "known levels must form a prefix"
                )
            if not isinstance(lvl, int) or isinstance(lvl, bool) or lvl < 1:
                raise ECParseError(f"level {depth} must be a positive integer, got {lvl!r}")
            if depth == 1 and lvl > EC_TOP_CLASSES:
                raise ECParseError(
                    f"top-level class must be in 1..{EC_TOP_CLASSES}, got {lvl}"
                )

    def __str__(self) -> str:
        return format_ec(self)


def parse_ec(text: str) -> ECNumber:
    """Parse an EC string such as "1.14.11.38" or "3.5.2.-".

    Fewer than four components are padded with unknowns ("3.5.2" means
    "3.5.2.-").  Preliminary codes like "1.1.1.n5" are rejected: they
    name provisional entries, not positions in the hierarchy.
    """
    cleaned = text.strip()
    if not cleaned:
        raise ECParseError("empty EC string")
    parts = cleaned.split(".")
    if len(parts) > EC_LEVELS:
        raise ECParseError(f"EC code has at most {EC_LEVELS} components: {text!r}")
    levels: list[Optional[int]] = []
    for depth, part in enumerate(parts, start=1):
        part = part.strip()
        if part == UNKNOWN_LEVEL or part == "":
            levels.append(None)
        elif _PRELIMINARY_RE.match(part):
            raise ECParseError(
                f"preliminary EC component {part!r} at level {depth} is not supported"
            )
        elif _INT_RE.match(part):
            levels.append(int(part))
        else:
            raise ECParseError(f"bad EC component {part!r} at level {depth} in {text!r}")
    while len(levels) < EC_LEVELS:
        levels.append(None)
    return ECNumber(tuple(levels))  # type: ignore[arg-type]


def format_ec(ec: ECNumber) -> str:
    """Canonical dotted form, unknown levels rendered as "-"."""
    return ".".join(UNKNOWN_LEVEL if lvl is None else str(lvl) for lvl in ec.levels)


def parse_ec_list(text: str) -> tuple[ECNumber, ...]:
    """Parse a semicolon-separated list of EC codes; blanks yield ()."""
    cleaned = text.strip()
    if not cleaned or cleaned == UNKNOWN_LEVEL:
        return ()
    return tuple(parse_ec(part) for part in cleaned.split(EC_DELIMITER) if part.strip())


def format_ec_list(ecs: Sequence[ECNumber]) -> str:
    return EC_DELIMITER.join(format_ec(ec) for ec in ecs)


def normalize_sequence(seq: str, record_id: str = "?") -> str:
    """Uppercase a sequence and map characters outside the alphabet to X.

    Out-of-alphabet characters are tolerated (logged, not rejected) so
    that a handful of odd residues cannot sink an entire snapshot.
    """
    cleaned = seq.strip().upper()
    if not cleaned:
        raise ValueError(f"record {record_id}: empty sequence")
    if all(ch in AA_INDEX for ch in cleaned):
        return cleaned
    mapped = []
    n_bad = 0
    for ch in cleaned:
        if ch in AA_INDEX:
            mapped.append(ch)
        else:
            mapped.append("X")
            n_bad += 1
    logger.warning("record %s: mapped %d unknown sequence character(s) to X", record_id, n_bad)
    return "".join(mapped)


@dataclass(frozen=True)
class ProteinRecord:
    """One protein entry from a snapshot flat file."""

    id: str
    name: str
    seq: str
    is_enzyme: bool
    ecs: tuple[ECNumber, ...]
    date_integrated: date
    date_sequence_update: date

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("record id must be non-empty")
        if not self.seq:
            raise ValueError(f"record {self.id}: sequence must be non-empty")
        bad = {ch for ch in self.seq if ch not in AA_INDEX}
        if bad:
            raise ValueError(
                f"record {self.id}: sequence characters outside alphabet: {sorted(bad)!r}"
            )
        if self.is_enzyme:
            if not 1 <= len(self.ecs) <= MAX_FUNCTIONS:
                raise ValueError(
                    f"record {self.id}: enzyme needs 1..{MAX_FUNCTIONS} EC numbers, "
                    f"got {len(self.ecs)}"
                )
        elif self.ecs:
            raise ValueError(f"record {self.id}: non-enzyme cannot carry EC numbers")

    @property
    def function_count(self) -> int:
        """Number of EC numbers; 0 for non-enzymes."""
        return len(self.ecs)


class Task(str, Enum):
    """The three annotation tasks, in increasing difficulty."""

    ENZYME = "enzyme-or-not"
    FUNCTION_COUNT = "function-count"
    EC_NUMBER = "ec-number"


class PredictionSource(str, Enum):
    """Which route produced a prediction."""

    ALIGNMENT = "alignment"
    AGENTS = "agents"
    # External tool output loaded through the benchmarking adapter.
    EXTERNAL = "external"


@dataclass(frozen=True)
class Prediction:
    """Final annotation for one query sequence.

    ``is_enzyme`` is None when an external tool abstained on the query;
    the pipeline itself always commits to True or False.  ``ranked_ecs``
    holds (EC, score) pairs sorted by descending score.
    """

    id: str
    is_enzyme: Optional[bool]
    ranked_ecs: tuple[tuple[ECNumber, float], ...]
    source: PredictionSource

    def __post_init__(self) -> None:
        scores = [score for _, score in self.ranked_ecs]
        for score in scores:
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"prediction {self.id}: score {score} outside [0, 1]")
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError(f"prediction {self.id}: ranked_ecs must be sorted by score")
        if self.is_enzyme is None and self.ranked_ecs:
            raise ValueError(f"prediction {self.id}: abstention cannot carry EC numbers")

    @property
    def function_count(self) -> int:
        return len(self.ranked_ecs)

    @property
    def ec_set(self) -> frozenset[str]:
        return frozenset(format_ec(ec) for ec, _ in self.ranked_ecs)

    def abstained_on_ec(self) -> bool:
        """True when the producer made no EC-level claim for this query."""
        if self.is_enzyme is None:
            return True
        return bool(self.is_enzyme) and not self.ranked_ecs


class LabelDictionary:
    """Bijection between distinct EC codes and dense integer labels.

    Labels are assigned in lexicographic order of the canonical EC text,
    so the mapping is a pure function of the EC set.
    """

    def __init__(self, ecs: Iterable[ECNumber]):
        by_text = {format_ec(ec): ec for ec in ecs}
        texts = sorted(by_text)
        self._label_to_ec: tuple[ECNumber, ...] = tuple(by_text[t] for t in texts)
        self._ec_to_label: dict[str, int] = {t: i for i, t in enumerate(texts)}

    def __len__(self) -> int:
        return len(self._label_to_ec)

    def __contains__(self, ec: ECNumber) -> bool:
        return format_ec(ec) in self._ec_to_label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelDictionary):
            return NotImplemented
        return self._label_to_ec == other._label_to_ec

    def label_of(self, ec: ECNumber) -> int:
        try:
            return self._ec_to_label[format_ec(ec)]
        except KeyError:
            raise KeyError(f"EC {format_ec(ec)} not in label dictionary") from None

    def ec_of(self, label: int) -> ECNumber:
        if not 0 <= label < len(self._label_to_ec):
            raise KeyError(f"label {label} outside 0..{len(self._label_to_ec) - 1}")
        return self._label_to_ec[label]


def build_label_dictionary(records: Iterable[ProteinRecord]) -> LabelDictionary:
    """Collect every EC (complete or not) from the records into a dictionary."""
    return LabelDictionary(ec for rec in records for ec in rec.ecs)


# --------------------------------------------------------------------------
# Binary container
#
# Every binary artifact shares one layout: the magic, a little-endian u64
# header length, a canonical JSON header {"kind", "meta", "arrays": [{"name",
# "dtype", "shape"}, ...]} padded with spaces to a multiple of 8 bytes, then
# each array's little-endian bytes starting at an 8-byte-aligned offset, and
# nothing after the last array.  Arrays are float64, int32, uint32 or uint8
# (``|u1``, which one-hot embedding tables store their residue codes in).

CONTAINER_MAGIC = b"ECANNC1\n"
_PREFIX = struct.Struct("<8sQ")
_DTYPES = ("<f8", "<i4", "<u4", "|u1")


def write_container(path: str | Path, kind: str, meta: dict, arrays: dict) -> None:
    """Write ``meta`` (JSON-able) and named float64/int32/uint32/uint8 arrays to ``path``."""
    arrays = {name: np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
              for name, arr in arrays.items()}
    specs = [{"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
             for name, arr in arrays.items()]
    if any(spec["dtype"] not in _DTYPES for spec in specs):
        raise ValueError(f"array dtypes must be among {_DTYPES}: {specs}")
    header = {"kind": kind, "meta": meta, "arrays": specs}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    raw += b" " * (-len(raw) % 8)
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(CONTAINER_MAGIC, len(raw)) + raw)
        for arr in arrays.values():
            fh.write(bytes(-fh.tell() % 8))
            fh.write(arr.data)


def read_container(path: str | Path, kind: str, error: type[ValueError]) -> tuple[dict, dict]:
    """Read a :func:`write_container` file of ``kind``; any damage raises ``error``.

    Returns the meta object and the arrays by name, as read-only views of
    the file's bytes.  Each array's size is checked against the bytes left
    before its view is made, so a corrupt shape cannot allocate anything.
    """
    data = Path(path).read_bytes()
    if len(data) < _PREFIX.size:
        raise error(f"{path}: truncated: {len(data)} bytes")
    magic, head_len = _PREFIX.unpack_from(data)
    if magic != CONTAINER_MAGIC:
        raise error(f"{path}: not an ecann container")
    offset = _PREFIX.size + head_len
    if offset > len(data):
        raise error(f"{path}: truncated: the header runs past the end")
    try:
        header = json.loads(data[_PREFIX.size:offset].decode("ascii"))
        got, meta, specs = header["kind"], header["meta"], list(header["arrays"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise error(f"{path}: bad container header: {exc}") from None
    if got != kind:
        raise error(f"{path}: holds {got!r}, not {kind!r}")
    arrays: dict[str, np.ndarray] = {}
    for spec in specs:
        shape = spec.get("shape") if isinstance(spec, dict) else None
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
                and spec.get("dtype") in _DTYPES and isinstance(spec.get("name"), str)):
            raise error(f"{path}: bad array entry {spec!r}")
        offset += -offset % 8
        count = math.prod(shape)
        size = count * np.dtype(spec["dtype"]).itemsize
        if offset + size > len(data):
            raise error(f"{path}: truncated: array {spec['name']!r} needs {size} bytes")
        arrays[spec["name"]] = np.frombuffer(data, spec["dtype"], count, offset).reshape(shape)
        offset += size
    if offset != len(data):
        raise error(f"{path}: {len(data) - offset} trailing bytes")
    return meta, arrays
