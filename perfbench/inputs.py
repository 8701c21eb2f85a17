"""Deterministic benchmark inputs: the reference corpus and seeded query sets.

The training corpus is the demo corpus the ROADMAP baseline quotes,
``make_demo_records(seed=3, n_families=20)`` after ``preprocess``: 39
records, 22 enzymes, 11 EC labels, one-hot dim 25,000.  It is fixed on
purpose.  Across demo seeds the corpus changes training work five-fold
(2.3 s to 12.5 s measured) because a few per-label SVMs run ~800 sweeps
and the rest ~5, so a seed-drawn corpus would hide any regression under
10-25%.  The run seed draws everything else: the queries, their order
and the job stream.

Homolog queries are fresh mutants of training sequences and inherit the
source record's ECs; novel queries are random sequences with labels drawn
the way ``ecann.demo`` draws a family's labels.  The probe set scored for
quality is the corpus's chronological test set: records the later demo
snapshot adds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Sequence

from ecann.core import ProteinRecord, parse_ec
from ecann.dataset import preprocess
from ecann.demo import EC_POOL, make_demo_records

REFERENCE_SEED = 3

# Mirrors ecann.demo's generator: standard residues, 60-180 aa, ~4%
# substitutions plus 0.5% indels.
_RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
SUBSTITUTION_RATE = 0.04
INDEL_RATE = 0.005
_DAY = date(2020, 1, 1)


@dataclass(frozen=True)
class Size:
    """Corpus size and how many predict-homolog queries per training record.

    Every query set holds the same number of homologs of each training
    record and novel sequences at evenly spread lengths, so its cost does
    not depend on the seed; the seed only moves mutations and residues.
    """

    families: int
    max_len: int
    homolog_per_record: int  # predict-homolog; >= 100 queries give the p90 ten above it


FULL = Size(families=20, max_len=1000, homolog_per_record=3)
TINY = Size(families=10, max_len=100, homolog_per_record=1)


def reference_corpus(size: Size) -> tuple[tuple[ProteinRecord, ...], list[ProteinRecord]]:
    """(training records, chronological probe records)."""
    earlier, later = make_demo_records(seed=REFERENCE_SEED, n_families=size.families)
    train = preprocess(earlier).records
    known = {rec.id for rec in train}
    probe = [rec for rec in preprocess(later).records if rec.id not in known]
    return train, probe


def homolog_share(probe: Sequence[ProteinRecord]) -> float:
    """Share of the later snapshot's new records that belong to a known family.

    ``ecann.demo`` adds new variants of known families and a few novel
    families (ids ``NOVEL*``) between its snapshots; this is the mix of
    homolog and novel sequences a service trained on the earlier
    snapshot would be sent.
    """
    novel = sum(rec.id.startswith("NOVEL") for rec in probe)
    if not 0 < novel < len(probe):
        raise ValueError(f"probe set has {novel} novel records of {len(probe)}")
    return 1 - novel / len(probe)


def _record(rec_id: str, seq: str, ecs: Sequence[str]) -> ProteinRecord:
    return ProteinRecord(
        id=rec_id, name=rec_id.lower(), seq=seq, is_enzyme=bool(ecs),
        ecs=tuple(parse_ec(ec) if isinstance(ec, str) else ec for ec in ecs),
        date_integrated=_DAY, date_sequence_update=_DAY,
    )


def _mutate(seq: str, rng: random.Random) -> str:
    out = []
    for ch in seq:
        r = rng.random()
        if r < SUBSTITUTION_RATE:
            out.append(rng.choice(_RESIDUES))
        elif r < SUBSTITUTION_RATE + INDEL_RATE:
            if rng.random() < 0.5:
                out.append(ch)
                out.append(rng.choice(_RESIDUES))
        else:
            out.append(ch)
    return "".join(out) or seq


def homolog_queries(train: Sequence[ProteinRecord], rng: random.Random,
                    per_record: int) -> list[ProteinRecord]:
    sources = list(train) * per_record
    rng.shuffle(sources)
    return [_record(f"H{i:04d}", _mutate(src.seq, rng), src.ecs)
            for i, src in enumerate(sources)]


def novel_queries(rng: random.Random, n: int) -> list[ProteinRecord]:
    lengths = [60 + (120 * i) // max(n - 1, 1) for i in range(n)]
    rng.shuffle(lengths)
    out = []
    for i, length in enumerate(lengths):
        seq = "".join(rng.choice(_RESIDUES) for _ in range(length))
        ecs: tuple[str, ...] = ()
        if rng.random() < 0.6:
            n_ecs = rng.choices([1, 2, 3], weights=[0.8, 0.15, 0.05])[0]
            ecs = tuple(rng.sample(EC_POOL, n_ecs))
        out.append(_record(f"N{i:04d}", seq, ecs))
    return out


def write_fasta(records: Sequence[ProteinRecord], path: Path) -> None:
    path.write_text("".join(f">{rec.id}\n{rec.seq}\n" for rec in records), encoding="ascii")
