"""Snapshot flat files, preprocessing, and chronological benchmark splits.

A snapshot flat file is an eight-column, tab-separated, optionally
gzipped table with a header row::

    id  name  ec  is_enzyme  function_count  seq  date_integrated  date_sequence_update

Structural problems (missing header columns, wrong field counts) raise
:class:`FlatfileFormatError`; per-row content problems (bad EC strings,
contradictory labels, unparsable dates) are collected as reject entries
and the row is skipped, so one corrupt line cannot sink a snapshot.
"""
from __future__ import annotations

import gzip
import io
import logging
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Optional, Sequence

from .core import (
    ECParseError,
    ProteinRecord,
    Task,
    format_ec_list,
    normalize_sequence,
    parse_ec_list,
)

logger = logging.getLogger(__name__)

FLATFILE_COLUMNS = (
    "id",
    "name",
    "ec",
    "is_enzyme",
    "function_count",
    "seq",
    "date_integrated",
    "date_sequence_update",
)

_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}


class FlatfileFormatError(ValueError):
    """Structural problem in a snapshot flat file."""


class LeakageError(RuntimeError):
    """A test sequence leaked into the training side of a split."""


@dataclass(frozen=True)
class RejectRow:
    line_no: int
    record_id: str
    reason: str


def _open_text(path: Path) -> io.TextIOBase:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def parse_flatfile(path: str | Path) -> tuple[list[ProteinRecord], list[RejectRow]]:
    """Read a snapshot flat file into records plus a reject report."""
    path = Path(path)
    records: list[ProteinRecord] = []
    rejects: list[RejectRow] = []
    with _open_text(path) as fh:
        header_line = fh.readline()
        if not header_line:
            raise FlatfileFormatError(f"{path}: empty file")
        header = [c.strip() for c in header_line.rstrip("\n").split("\t")]
        if header != list(FLATFILE_COLUMNS):
            missing = [c for c in FLATFILE_COLUMNS if c not in header]
            raise FlatfileFormatError(
                f"{path}: bad header; missing columns {missing!r}" if missing
                else f"{path}: header columns out of order: {header!r}"
            )
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != len(FLATFILE_COLUMNS):
                raise FlatfileFormatError(
                    f"{path}:{line_no}: expected {len(FLATFILE_COLUMNS)} columns, "
                    f"got {len(cols)}"
                )
            row = dict(zip(FLATFILE_COLUMNS, cols))
            rec_id = row["id"].strip()
            try:
                records.append(_row_to_record(row, rec_id))
            except (ECParseError, ValueError) as exc:
                rejects.append(RejectRow(line_no, rec_id or "?", str(exc)))
    if rejects:
        logger.warning("%s: skipped %d malformed row(s)", path, len(rejects))
    return records, rejects


def _parse_bool(raw: str, what: str) -> bool:
    token = raw.strip().lower()
    if token in _TRUE:
        return True
    if token in _FALSE:
        return False
    raise ValueError(f"cannot interpret {what} flag {raw!r}")


def _row_to_record(row: dict[str, str], rec_id: str) -> ProteinRecord:
    is_enzyme = _parse_bool(row["is_enzyme"], "is_enzyme")
    ecs = parse_ec_list(row["ec"])
    if is_enzyme and not ecs:
        raise ValueError("enzyme row without any EC number")
    if not is_enzyme and ecs:
        raise ValueError("non-enzyme row lists EC numbers")
    seq = normalize_sequence(row["seq"], rec_id)
    return ProteinRecord(
        id=rec_id,
        name=row["name"].strip(),
        seq=seq,
        is_enzyme=is_enzyme,
        ecs=ecs,
        date_integrated=date.fromisoformat(row["date_integrated"].strip()),
        date_sequence_update=date.fromisoformat(row["date_sequence_update"].strip()),
    )


def write_flatfile(records: Sequence[ProteinRecord], path: str | Path) -> None:
    """Write records back out in the snapshot flat-file layout."""
    path = Path(path)
    opener: Callable = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write("\t".join(FLATFILE_COLUMNS) + "\n")
        for rec in records:
            fh.write(
                "\t".join(
                    [
                        rec.id,
                        rec.name,
                        format_ec_list(rec.ecs),
                        "1" if rec.is_enzyme else "0",
                        str(rec.function_count),
                        rec.seq,
                        rec.date_integrated.isoformat(),
                        rec.date_sequence_update.isoformat(),
                    ]
                )
                + "\n"
            )


def write_rejects(rejects: Sequence[RejectRow], path: str | Path) -> None:
    lines = ["line_no\tid\treason"]
    lines += [f"{r.line_no}\t{r.record_id}\t{r.reason}" for r in rejects]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_fasta(path: str | Path) -> list[tuple[str, str]]:
    """Read FASTA into (id, normalized sequence) pairs, order preserved."""
    path = Path(path)
    pairs: list[tuple[str, str]] = []
    current_id: Optional[str] = None
    chunks: list[str] = []

    def flush() -> None:
        if current_id is None:
            return
        seq = "".join(chunks)
        if not seq.strip():
            raise ValueError(f"{path}: empty sequence for {current_id!r}")
        pairs.append((current_id, normalize_sequence(seq, current_id)))

    with _open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                flush()
                current_id = line[1:].split()[0] if line[1:].split() else ""
                if not current_id:
                    raise ValueError(f"{path}: header without an id")
                chunks = []
            else:
                if current_id is None:
                    raise ValueError(f"{path}: sequence data before first header")
                chunks.append(line)
    flush()
    ids = [i for i, _ in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate FASTA ids")
    return pairs


# --------------------------------------------------------------------------
# Preprocessing


@dataclass(frozen=True)
class PreprocessReport:
    """Per-step removal counts; raw = clean + all removals."""

    raw_count: int
    clean_count: int
    removed_changed_sequence: int
    removed_duplicate: int

    def removals(self) -> dict[str, int]:
        return {
            "changed_sequence": self.removed_changed_sequence,
            "duplicate": self.removed_duplicate,
        }

    def validate(self) -> None:
        if self.raw_count != self.clean_count + sum(self.removals().values()):
            raise AssertionError("preprocess accounting does not balance")


@dataclass(frozen=True)
class PreprocessResult:
    records: tuple[ProteinRecord, ...]
    report: PreprocessReport


def preprocess(records: Sequence[ProteinRecord]) -> PreprocessResult:
    """Clean one snapshot.

    Steps, in order: (1) drop every record of an id whose sequence
    changed between duplicate rows, since the id's identity is in
    doubt; (2) collapse records sharing an identical sequence, keeping
    the earliest by (date_integrated, id); (3..5) canonical EC text and
    dense labels come from the parsed EC values, through
    :func:`~ecann.core.build_label_dictionary` wherever labels are
    needed; (6) the function count is simply the EC list length.
    """
    raw_count = len(records)

    seqs_by_id: dict[str, set[str]] = {}
    for rec in records:
        seqs_by_id.setdefault(rec.id, set()).add(rec.seq)
    unstable_ids = {rec_id for rec_id, seqs in seqs_by_id.items() if len(seqs) > 1}
    stable = [rec for rec in records if rec.id not in unstable_ids]
    removed_changed = raw_count - len(stable)

    best_by_seq: dict[str, ProteinRecord] = {}
    for rec in stable:
        kept = best_by_seq.get(rec.seq)
        if kept is None or (rec.date_integrated, rec.id) < (kept.date_integrated, kept.id):
            best_by_seq[rec.seq] = rec
    # Preserve input order among the kept records; a byte-identical
    # duplicate matches its first occurrence only.
    chosen = dict(best_by_seq)
    clean_list: list[ProteinRecord] = []
    for rec in stable:
        pick = chosen.get(rec.seq)
        if pick is not None and rec == pick:
            clean_list.append(rec)
            del chosen[rec.seq]
    clean = tuple(clean_list)
    removed_dupes = len(stable) - len(clean)

    report = PreprocessReport(
        raw_count=raw_count,
        clean_count=len(clean),
        removed_changed_sequence=removed_changed,
        removed_duplicate=removed_dupes,
    )
    report.validate()
    return PreprocessResult(records=clean, report=report)


@dataclass(frozen=True)
class Snapshot:
    """A preprocessed snapshot tagged with its release date."""

    tag: str
    released: date
    records: tuple[ProteinRecord, ...]

    def __post_init__(self) -> None:
        ids = [rec.id for rec in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError(f"snapshot {self.tag}: duplicate ids after preprocessing")
        seqs = [rec.seq for rec in self.records]
        if len(set(seqs)) != len(seqs):
            raise ValueError(f"snapshot {self.tag}: duplicate sequences after preprocessing")

    @property
    def enzymes(self) -> tuple[ProteinRecord, ...]:
        return tuple(rec for rec in self.records if rec.is_enzyme)


# --------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class DatasetSplit:
    """Chronological train/test split for one task."""

    task: Task
    train: tuple[ProteinRecord, ...]
    test: tuple[ProteinRecord, ...]
    cutoff: Optional[date] = None

    def assert_no_leakage(self) -> None:
        train_seqs = {rec.seq for rec in self.train}
        leaked = [rec.id for rec in self.test if rec.seq in train_seqs]
        if leaked:
            raise LeakageError(
                f"{len(leaked)} test sequence(s) present in train (e.g. {leaked[:3]})"
            )


def chronological_split(
    earlier: Snapshot,
    later: Snapshot,
    task: Task,
    cutoff: Optional[date] = None,
) -> DatasetSplit:
    """Train on the earlier snapshot, test on sequences new to the later one.

    The count and EC tasks are scored on enzymes only, so their splits
    keep enzyme records alone on both sides.  When a cutoff date is
    given, train keeps records integrated on or before it and test
    keeps records after it; the sequence-novelty rule applies either
    way, and a leakage check runs on every call.
    """
    if earlier.released >= later.released:
        raise ValueError(
            f"snapshots overlap in time: {earlier.tag} ({earlier.released}) "
            f"not before {later.tag} ({later.released})"
        )
    train = list(earlier.records)
    if cutoff is not None:
        train = [rec for rec in train if rec.date_integrated <= cutoff]
    train_seqs = {rec.seq for rec in train}
    test = [rec for rec in later.records if rec.seq not in train_seqs]
    if cutoff is not None:
        test = [rec for rec in test if rec.date_integrated > cutoff]
    if task in (Task.FUNCTION_COUNT, Task.EC_NUMBER):
        train = [rec for rec in train if rec.is_enzyme]
        test = [rec for rec in test if rec.is_enzyme]
    split = DatasetSplit(task=task, train=tuple(train), test=tuple(test), cutoff=cutoff)
    split.assert_no_leakage()
    return split


def validation_split(
    records: Sequence[ProteinRecord], fraction: float = 0.1
) -> tuple[tuple[ProteinRecord, ...], tuple[ProteinRecord, ...]]:
    """Hold out the chronologically last fraction of records.

    Ordering is by (date_integrated, id) so the cut is reproducible
    even with tied dates.  With at least two records the holdout is
    never empty and never the whole input.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    ordered = sorted(records, key=lambda rec: (rec.date_integrated, rec.id))
    n = len(ordered)
    if n < 2:
        return tuple(ordered), ()
    n_val = min(n - 1, max(1, int(n * fraction)))
    return tuple(ordered[: n - n_val]), tuple(ordered[n - n_val :])


def function_count_partition(records: Sequence[ProteinRecord]) -> dict[int, int]:
    """Histogram of function counts over enzyme records."""
    partition: dict[int, int] = {}
    for rec in records:
        if rec.is_enzyme:
            partition[rec.function_count] = partition.get(rec.function_count, 0) + 1
    return dict(sorted(partition.items()))
