"""The three classification agents.

* :class:`EnzymeGate` — enzyme/non-enzyme by inverse-distance-weighted KNN
  over sequence embeddings (exact scan for small reference sets, graph index
  above a size threshold).
* :class:`FunctionCountModel` — two boosted-tree stages: ``sp`` separates
  mono- from multifunctional enzymes, ``mp`` picks the count 2..8 for the
  multifunctional ones.
* :class:`EcRanker` — one-vs-all linear classifiers over the EC dictionary,
  trained with ANN-sampled negatives and evaluated over an ANN shortlist,
  scored through a sigmoid.

All three train from `(records, embedding table)` pairs and are deterministic
for fixed seeds.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .ann import AnnIndex, AnnParams, brute_force_knn
from .core import (
    ECNumber, LabelDictionary, ProteinRecord, format_ec, read_container, write_container,
)
from .embedding import EmbeddingTable
from .gbdt import GbdtModel, GbdtParams, train_gbdt
from .linear import LinearModel, TrainMeta, decision, sigmoid, sparsify, train_l2svm

__all__ = [
    "AgentError",
    "RankingMode",
    "EnzymeGateParams",
    "EnzymeGate",
    "CountModelParams",
    "FunctionCountModel",
    "EcRankerParams",
    "EcRanker",
    "MAX_RECOMMENDATIONS",
    "save_classifiers",
    "load_classifiers",
]

logger = logging.getLogger(__name__)

MAX_RECOMMENDATIONS = 20

_CLASSIFIERS_KIND = "ranker-classifiers"


class AgentError(ValueError):
    """Invalid agent inputs: coverage gaps, label-range or task violations."""


def save_classifiers(path: str | Path, classifiers: dict[int, LinearModel],
                     negatives_used: dict[int, int]) -> None:
    """Write per-label classifiers as one container: each model's scalars and
    its ``negatives`` count in the meta, its arrays named
    ``<label>.indices``/``.values``/``.curve``."""
    models, arrays = [], {}
    for label, clf in sorted(classifiers.items()):
        scalars = {k: v for k, v in asdict(clf.meta).items() if k != "objective_curve"}
        models.append({"label": label, "dim": clf.dim, "bias": clf.bias,
                       "negatives": negatives_used[label], **scalars})
        arrays[f"{label}.indices"] = clf.indices
        arrays[f"{label}.values"] = clf.values
        arrays[f"{label}.curve"] = np.asarray(clf.meta.objective_curve, dtype=np.float64)
    write_container(path, _CLASSIFIERS_KIND, {"models": models}, arrays)


def load_classifiers(path: str | Path) -> tuple[dict[int, LinearModel], dict[int, int]]:
    """Read a :func:`save_classifiers` file as (classifiers, negatives used)
    by label; any damage raises AgentError."""
    stored, arrays = read_container(path, _CLASSIFIERS_KIND, AgentError)
    classifiers: dict[int, LinearModel] = {}
    negatives_used: dict[int, int] = {}
    try:
        for model in stored["models"]:
            label, dim, bias = model.pop("label"), model.pop("dim"), model.pop("bias")
            negatives_used[label] = int(model.pop("negatives"))
            curve = tuple(arrays[f"{label}.curve"].tolist())
            classifiers[label] = LinearModel(
                dim=dim, indices=arrays[f"{label}.indices"],
                values=arrays[f"{label}.values"], bias=bias,
                meta=TrainMeta(objective_curve=curve, **model),
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise AgentError(f"{path}: bad ranker classifier: {exc}") from exc
    return classifiers, negatives_used


class RankingMode(str, Enum):
    """EC output width: count-capped prediction vs. ranked top-20 list."""

    PREDICTION = "prediction"
    RECOMMENDATION = "recommendation"


def _check_coverage(records: Sequence[ProteinRecord], table: EmbeddingTable) -> None:
    missing = [rec.id for rec in records if rec.id not in table]
    if missing:
        raise AgentError(
            f"embedding table {table.tag!r} lacks {len(missing)} training ids "
            f"(first: {missing[0]!r})"
        )


def _weighted_vote(neighbors: Sequence[tuple[int, float]]) -> tuple[int, float]:
    """Inverse-distance vote over (label, distance) pairs.

    A zero-distance neighbor is an exact match: only zero-distance neighbors
    vote then, with equal weights.  Ties resolve toward the smaller label.
    Returns (label, winning weight share).
    """
    exact = [(lab, d) for lab, d in neighbors if d == 0.0]
    pool = exact if exact else neighbors
    weights: dict[int, float] = {}
    for lab, d in pool:
        weights[lab] = weights.get(lab, 0.0) + (1.0 if exact else 1.0 / d)
    winner = min(weights, key=lambda lab: (-weights[lab], lab))
    return winner, weights[winner] / sum(weights.values())


# --------------------------------------------------------------------------
# Agent 1: enzyme / non-enzyme gate


@dataclass(frozen=True)
class EnzymeGateParams:
    n_neighbors: int = 5
    exact_scan_limit: int = 50_000  # reference sets below this use brute force
    ann: AnnParams = AnnParams()

    def __post_init__(self) -> None:
        if self.n_neighbors < 1:
            raise AgentError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        if self.exact_scan_limit < 0:
            raise AgentError("exact_scan_limit must be >= 0")


class EnzymeGate:
    """Binary KNN gate; queries run against a read-only reference table."""

    def __init__(
        self,
        table: EmbeddingTable,
        labels: dict[str, bool],
        params: EnzymeGateParams,
        index: Optional[AnnIndex],
    ):
        self._table = table
        self._labels = labels
        self.params = params
        self._index = index

    @classmethod
    def train(
        cls,
        records: Sequence[ProteinRecord],
        table: EmbeddingTable,
        params: EnzymeGateParams = EnzymeGateParams(),
    ) -> "EnzymeGate":
        if not records:
            raise AgentError("cannot train the enzyme gate on zero records")
        _check_coverage(records, table)
        labels = {rec.id: rec.is_enzyme for rec in records}
        ids = tuple(rec.id for rec in records)
        reference = table
        if ids != table.ids():  # a table embedded from these records is taken as is
            reference = EmbeddingTable.from_rows(table.tag, ids, table.matrix(ids))
        index: Optional[AnnIndex] = None
        if len(reference) >= params.exact_scan_limit:
            index = AnnIndex.build(reference, params.ann)
        return cls(reference, labels, params, index)

    @property
    def uses_index(self) -> bool:
        return self._index is not None

    def predict(self, x: np.ndarray) -> tuple[bool, float]:
        """(is_enzyme, confidence); confidence is the winning weight share."""
        k = min(self.params.n_neighbors, len(self._table))
        if self._index is not None:
            ef = max(self.params.ann.ef_search, 10 * self.params.n_neighbors)
            found = self._index.search(x, k, ef_search=ef)
        else:
            found = brute_force_knn(self._table, x, k, self.params.ann.metric)
        votes = [(int(self._labels[rec_id]), dist) for rec_id, dist in found]
        label, share = _weighted_vote(votes)
        return bool(label), share


# --------------------------------------------------------------------------
# Agent 2: function count

_MIN_COUNT, _MAX_COUNT = 1, 8
_MP_CLASSES = _MAX_COUNT - 1  # counts 2..8 -> classes 0..6


@dataclass(frozen=True)
class CountModelParams:
    sp: GbdtParams = GbdtParams()
    mp: GbdtParams = GbdtParams()


@dataclass
class FunctionCountModel:
    """Two-stage count model: mono-vs-multi, then 2..8 among the multis."""

    sp: GbdtModel
    mp: GbdtModel

    @classmethod
    def train(
        cls,
        records: Sequence[ProteinRecord],
        table: EmbeddingTable,
        params: CountModelParams = CountModelParams(),
    ) -> "FunctionCountModel":
        if not records:
            raise AgentError("cannot train the count model on zero records")
        _check_coverage(records, table)
        for rec in records:
            if not rec.is_enzyme:
                raise AgentError(f"record {rec.id!r} is not an enzyme")
            if not _MIN_COUNT <= rec.function_count <= _MAX_COUNT:
                raise AgentError(
                    f"record {rec.id!r} has function count {rec.function_count}, "
                    f"outside {_MIN_COUNT}..{_MAX_COUNT}"
                )
        x = table.matrix([rec.id for rec in records])
        counts = np.array([rec.function_count for rec in records])
        sp = train_gbdt(x, (counts > 1).astype(int), params.sp, n_classes=2)
        multi = counts > 1
        if not multi.any():
            raise AgentError("no multifunctional rows: cannot train the count stage")
        mp = train_gbdt(
            x[multi], counts[multi] - 2, params.mp, n_classes=_MP_CLASSES
        )
        return cls(sp=sp, mp=mp)

    def predict(self, x: np.ndarray) -> int:
        row = np.asarray(x, dtype=np.float64).reshape(1, -1)
        if int(self.sp.predict(row)[0]) == 0:
            return 1
        return int(self.mp.predict(row)[0]) + 2

    def to_dict(self) -> dict:
        return {
            "format": "function-count-pair",
            "version": 1,
            "sp": self.sp.to_dict(),
            "mp": self.mp.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FunctionCountModel":
        if not isinstance(payload, dict):
            raise AgentError("function-count payload must be a JSON object")
        if payload.get("format") != "function-count-pair" or payload.get("version") != 1:
            raise AgentError("unrecognized function-count payload")
        return cls(
            sp=GbdtModel.from_dict(payload["sp"]),
            mp=GbdtModel.from_dict(payload["mp"]),
        )

    def save(self, path: str | Path) -> None:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        Path(path).write_text(blob, encoding="ascii")

    @classmethod
    def load(cls, path: str | Path) -> "FunctionCountModel":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="ascii")))


# --------------------------------------------------------------------------
# Agent 3: EC ranking


@dataclass(frozen=True)
class EcRankerParams:
    ann: AnnParams = AnnParams()
    negative_budget: int = 700  # sampled negatives per label (before dedup)
    shortlist_size: int = 700  # nearest points consulted at prediction time
    svm_c: float = 1.0
    svm_max_iter: int = 1200
    svm_tol: float = 0.1
    sparsify_floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.negative_budget < 1:
            raise AgentError("negative_budget must be >= 1")
        if self.shortlist_size < 1:
            raise AgentError("shortlist_size must be >= 1")
        if self.svm_c <= 0:
            raise AgentError("svm_c must be > 0")


def _points(
    records: Sequence[ProteinRecord], table: EmbeddingTable, label_dict: LabelDictionary
) -> tuple[list[str], list[int], list[str]]:
    """Each ranker point's id ``record|EC``, label and record id, in record order.

    A record contributes one point per EC it carries, a repeated EC once.
    """
    _check_coverage(records, table)
    point_ids: list[str] = []
    point_labels: list[int] = []
    point_records: list[str] = []
    for rec in records:
        if not rec.is_enzyme:
            raise AgentError(f"record {rec.id!r} is not an enzyme")
        for ec in dict.fromkeys(rec.ecs):
            point_ids.append(f"{rec.id}|{format_ec(ec)}")
            point_labels.append(label_dict.label_of(ec))
            point_records.append(rec.id)
    return point_ids, point_labels, point_records


class EcRanker:
    """One-vs-all EC classifiers over an ANN-shortlisted label space.

    Each training record contributes one point per EC it carries, so the
    point-level index is single-labeled even when records are not.
    """

    def __init__(
        self,
        label_dict: LabelDictionary,
        classifiers: dict[int, LinearModel],
        index: AnnIndex,
        label_of_point: dict[str, int],
        params: EcRankerParams,
        negatives_used: dict[int, int],
    ):
        self.label_dict = label_dict
        self.classifiers = classifiers
        self.index = index
        self.label_of_point = label_of_point
        self.params = params
        self.negatives_used = negatives_used

    @classmethod
    def train(
        cls,
        records: Sequence[ProteinRecord],
        table: EmbeddingTable,
        label_dict: LabelDictionary,
        params: EcRankerParams = EcRankerParams(),
    ) -> "EcRanker":
        if not records:
            raise AgentError("cannot train the EC ranker on zero records")
        point_ids, point_labels, point_records = _points(records, table, label_dict)
        index = AnnIndex.build(table, params.ann, points=zip(point_ids, point_records))
        label_of_point = dict(zip(point_ids, point_labels))
        record_of_point = dict(zip(point_ids, point_records))
        labels_arr = np.array(point_labels)

        classifiers: dict[int, LinearModel] = {}
        negatives_used: dict[int, int] = {}
        n_points = len(point_ids)
        for label in range(len(label_dict)):
            pos_rows = np.nonzero(labels_arr == label)[0]
            if pos_rows.size == 0:
                logger.warning(
                    "label %s has no training points; skipping its classifier",
                    format_ec(label_dict.ec_of(label)),
                )
                continue
            per_positive = min(
                math.ceil(params.negative_budget / pos_rows.size), n_points
            )
            positives = table.matrix([point_records[row] for row in pos_rows])
            negative_ids: set[str] = set()
            for vec in positives:
                for pid, _dist in index.search(vec, per_positive):
                    if label_of_point[pid] != label:
                        negative_ids.add(pid)
            if not negative_ids:  # degenerate sampling: take other-label points directly
                negative_ids = set(
                    sorted(pid for pid in point_ids if label_of_point[pid] != label)[
                        : params.negative_budget
                    ]
                )
            if not negative_ids:
                logger.warning(
                    "label %s has no negatives anywhere; skipping its classifier",
                    format_ec(label_dict.ec_of(label)),
                )
                continue
            assert all(label_of_point[pid] != label for pid in negative_ids)
            assert len(negative_ids) <= params.negative_budget + pos_rows.size
            negatives_used[label] = len(negative_ids)
            model = train_l2svm(
                positives,
                table.matrix([record_of_point[pid] for pid in sorted(negative_ids)]),
                C=params.svm_c,
                max_iter=params.svm_max_iter,
                tol=params.svm_tol,
            )
            classifiers[label] = sparsify(model, params.sparsify_floor)

        return cls(label_dict, classifiers, index, label_of_point, params, negatives_used)

    def shortlist(self, x: np.ndarray) -> list[int]:
        """Labels of the nearest training points, deduplicated, order kept."""
        found = self.index.search(x, self.params.shortlist_size)
        seen: list[int] = []
        for pid, _dist in found:
            label = self.label_of_point[pid]
            if label not in seen:
                seen.append(label)
        return seen

    def rank(self, x: np.ndarray) -> list[tuple[ECNumber, float]]:
        """The top :data:`MAX_RECOMMENDATIONS` (EC, score) pairs, best first,
        ties broken by canonical EC text; the integrator decides the width."""
        scored: list[tuple[float, str, ECNumber]] = []
        for label in self.shortlist(x):
            clf = self.classifiers.get(label)
            if clf is None:
                continue
            ec = self.label_dict.ec_of(label)
            score = float(sigmoid(decision(clf, x)))
            scored.append((score, format_ec(ec), ec))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [(ec, score) for score, _text, ec in scored[:MAX_RECOMMENDATIONS]]

    # -- persistence -----------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write the ranker into ``directory`` as two sibling files: the index
        graph and the classifiers.  They hold no vectors, points, labels or
        parameters: :meth:`load` derives those from its arguments."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.index.save(directory / "ranker_index.bin")
        save_classifiers(directory / "ranker_classifiers.bin", self.classifiers,
                         self.negatives_used)

    @classmethod
    def load(
        cls,
        directory: str | Path,
        records: Sequence[ProteinRecord],
        table: EmbeddingTable,
        label_dict: LabelDictionary,
        params: EcRankerParams,
    ) -> "EcRanker":
        """Read a ranker saved by one trained on these arguments."""
        directory = Path(directory)
        point_ids, point_labels, point_records = _points(records, table, label_dict)
        index = AnnIndex.load(directory / "ranker_index.bin", table, params.ann,
                              points=zip(point_ids, point_records))
        classifiers, negatives_used = load_classifiers(directory / "ranker_classifiers.bin")
        return cls(label_dict, classifiers, index, dict(zip(point_ids, point_labels)),
                   params, negatives_used)
