"""Trained annotation bundles: fit the full stack, persist it, serve queries.

A bundle is a self-contained directory.  ``manifest.json`` carries the
format tag, the embedding recipe, the integration policy, all training
parameters, and a sha256 digest per artifact file; the artifacts are the
training records (flat file), the embedding table, the count model, and
the EC ranker's index graph and classifiers.  Each fact is stored once,
and everything training derives from the records, the table and the
parameters is derived again on load: the label dictionary from the
records' ECs, the ranker's points (``record|EC`` ids, labels and table
rows) from the records, and every parameter from the manifest.  A one-hot
embedding table holds one uint8 residue code per position, not its
float64 rows, and the table alone names its embedding.  No file encodes
wall-clock time, so rebuilding from the same inputs reproduces every byte.

The enzyme gate and the k-mer alignment index hold no fitted state
beyond the stored records and vectors, so they are rebuilt on load
instead of serialized.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .agents import (
    CountModelParams,
    EcRanker,
    EcRankerParams,
    EnzymeGate,
    EnzymeGateParams,
    FunctionCountModel,
    RankingMode,
)
from .alignment import AlignmentParams, Hit, KmerIndex
from .ann import AnnParams
from .core import (
    LabelDictionary, Prediction, PredictionSource, ProteinRecord, build_label_dictionary,
)
from .dataset import parse_flatfile, validation_split, write_flatfile
from .embedding import (
    EmbeddingTable,
    ONE_HOT_TAG,
    load_embedding_table,
    one_hot_encode,
    one_hot_table,
    save_embedding_table,
)
from .gbdt import GbdtParams
from .integrate import (
    AgentOutputs,
    IntegrationPolicy,
    PolicyGrid,
    TuneResult,
    greedy_tune,
    integrate,
)

log = logging.getLogger(__name__)

BUNDLE_FORMAT = "ec-annotation-bundle"
BUNDLE_VERSION = 5

MANIFEST_FILE = "manifest.json"
RECORDS_FILE = "records.tsv"
EMBEDDINGS_FILE = "embeddings.bin"
COUNTS_FILE = "counts.json"
RANKER_FILES = ("ranker_index.bin", "ranker_classifiers.bin")

ARTIFACT_FILES = (RECORDS_FILE, EMBEDDINGS_FILE, COUNTS_FILE) + RANKER_FILES


class BundleError(RuntimeError):
    """Bundle construction, persistence, or annotation failure."""


@dataclass(frozen=True)
class BundleParams:
    """Everything needed to fit the stack from records alone."""

    max_len: int = 1000  # one-hot window; ignored for externally built tables
    gate: EnzymeGateParams = EnzymeGateParams()
    counts: CountModelParams = CountModelParams()
    ranker: EcRankerParams = EcRankerParams()
    alignment: AlignmentParams = AlignmentParams()

    def to_dict(self) -> dict:
        return {
            "max_len": self.max_len,
            "gate": dataclasses.asdict(self.gate),
            "counts": dataclasses.asdict(self.counts),
            "ranker": dataclasses.asdict(self.ranker),
            "alignment": dataclasses.asdict(self.alignment),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BundleParams":
        gate = dict(payload["gate"])
        gate["ann"] = AnnParams(**gate["ann"])
        counts = dict(payload["counts"])
        ranker = dict(payload["ranker"])
        ranker["ann"] = AnnParams(**ranker["ann"])
        return cls(
            max_len=int(payload["max_len"]),
            gate=EnzymeGateParams(**gate),
            counts=CountModelParams(
                sp=GbdtParams(**counts["sp"]), mp=GbdtParams(**counts["mp"])
            ),
            ranker=EcRankerParams(**ranker),
            alignment=AlignmentParams(**payload["alignment"]),
        )


def sha256_file(path: Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class _Stack:
    """The fitted pieces shared by training and annotation."""

    gate: EnzymeGate
    counts: FunctionCountModel
    ranker: EcRanker  # holds the label dictionary
    aligner: KmerIndex


def _ranked(records: Sequence[ProteinRecord]) -> tuple[list[ProteinRecord], LabelDictionary]:
    """The enzymes among ``records`` and their label dictionary: the ranker's inputs."""
    enzymes = [rec for rec in records if rec.is_enzyme]
    if not enzymes:
        raise BundleError("training set has no enzymes; nothing to rank")
    return enzymes, build_label_dictionary(enzymes)


def _fit_stack(
    records: Sequence[ProteinRecord],
    table: EmbeddingTable,
    params: BundleParams,
) -> _Stack:
    enzymes, label_dict = _ranked(records)
    gate = EnzymeGate.train(records, table, params.gate)
    counts = FunctionCountModel.train(enzymes, table, params.counts)
    ranker = EcRanker.train(enzymes, table, label_dict, params.ranker)
    aligner = KmerIndex.build(records, params.alignment)
    return _Stack(gate=gate, counts=counts, ranker=ranker, aligner=aligner)


class Annotator:
    """A loaded bundle: embeds queries, runs only the route that answers, integrates."""

    def __init__(
        self,
        records: Sequence[ProteinRecord],
        table: EmbeddingTable,
        stack: _Stack,
        policy: IntegrationPolicy,
        params: BundleParams,
    ):
        self.records = tuple(records)
        self.table = table
        self._stack = stack
        self.policy = policy
        self.params = params

    def embed(self, seq: str) -> np.ndarray:
        if self.table.tag != ONE_HOT_TAG:
            raise BundleError(
                f"bundle embeds with {self.table.tag!r}; query vectors must be supplied"
            )
        return one_hot_encode(seq, self.params.max_len)

    def agent_outputs(self, vec: np.ndarray) -> AgentOutputs:
        is_enzyme, confidence = self._stack.gate.predict(vec)
        count = self._stack.counts.predict(vec)
        ranked = tuple(self._stack.ranker.rank(vec))
        return AgentOutputs(
            is_enzyme=is_enzyme,
            enzyme_confidence=confidence,
            count=count,
            ranked_ecs=ranked,
        )

    def tuning_inputs(
        self, records: Sequence[ProteinRecord], vectors: Optional[EmbeddingTable]
    ) -> tuple[dict[str, AgentOutputs], dict[str, Optional[Hit]]]:
        """Agent outputs and best hit by record id; both routes run for every record.

        Vectors come from ``vectors`` by id, or from embedding the sequence
        when ``vectors`` is None.
        """
        if vectors is not None:
            for rec in records:
                if rec.id not in vectors:
                    raise BundleError(f"record {rec.id!r} has no vector in the supplied table")
        rows = _first_error(self._batch(
            [(rec.id, rec.seq) for rec in records],
            [None if vectors is None else vectors.get(rec.id) for rec in records],
            align=True,
            finish=lambda query_id, vec, hit: (self.agent_outputs(vec), hit),
        ))
        outputs_by_id = {rec.id: outputs for rec, (outputs, _) in zip(records, rows)}
        hits_by_id = {rec.id: hit for rec, (_, hit) in zip(records, rows)}
        return outputs_by_id, hits_by_id

    def annotate_one(
        self,
        query_id: str,
        seq: str,
        mode: RankingMode = RankingMode.PREDICTION,
        vector: Optional[np.ndarray] = None,
    ) -> Prediction:
        return _first_error(self._predict([(query_id, seq)], mode, [vector]))[0]

    def annotate(
        self,
        queries: Sequence[tuple[str, str]],
        mode: RankingMode = RankingMode.PREDICTION,
        vectors: Optional[EmbeddingTable] = None,
    ) -> list[Prediction]:
        seen: set[str] = set()
        for query_id, _ in queries:
            if query_id in seen:
                raise BundleError(f"duplicate query id {query_id!r}")
            seen.add(query_id)
        supplied = [_supplied_vector(vectors, query_id) for query_id, _ in queries]
        return _first_error(self._predict(queries, mode, supplied))

    def _predict(
        self,
        queries: Sequence[tuple[str, str]],
        mode: RankingMode,
        vectors: Sequence[Optional[np.ndarray]],
    ) -> list[Prediction | Exception]:
        """Each query's prediction, computing only the route that answers it."""

        def answer(query_id: str, vec: np.ndarray, hit: Optional[Hit]) -> Prediction:
            agents_answer = self.policy.route_for(hit) is PredictionSource.AGENTS
            outputs = self.agent_outputs(vec) if agents_answer else None
            return integrate(query_id, outputs, hit, self.policy, mode)

        return self._batch(queries, vectors, self.policy.consults_alignment, answer)

    def _batch(
        self,
        queries: Sequence[tuple[str, str]],
        vectors: Sequence[Optional[np.ndarray]],
        align: bool,
        finish: Callable[[str, np.ndarray, Optional[Hit]], Any],
    ) -> list:
        """``finish(query_id, vector, best hit)`` of each query, or the exception that failed it.

        A batch runs in three steps.  Every row is checked up front: its id, its
        sequence, and a supplied vector's shape and finiteness.  Then the rows
        that pass are aligned in one call when ``align`` is set.  Last, each row
        is embedded, if no vector was supplied, and finished on its own, so a
        batch holds one embedding at a time.  A failing row fails alone.
        """
        checked = [_attempt(self._checked_vector, query_id, seq, vector)
                   for (query_id, seq), vector in zip(queries, vectors)]
        passed = [seq for (_, seq), vec in zip(queries, checked)
                  if not isinstance(vec, Exception)]
        hits = iter(self._best_hits(passed) if align else [None] * len(passed))

        def run(query_id: str, seq: str, vec: Optional[np.ndarray], hit):
            # the checks stay eager: a bad query fails whichever route answers
            if vec is None:
                vec = self.embed(seq)
                self._check_shape(query_id, vec)
            if isinstance(hit, Exception):
                raise hit
            return finish(query_id, vec, hit)

        return [vec if isinstance(vec, Exception) else _attempt(run, query_id, seq, vec, next(hits))
                for (query_id, seq), vec in zip(queries, checked)]

    def _checked_vector(
        self, query_id: str, seq: str, vector: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """The supplied vector as float64 after the up-front checks; None to embed."""
        if not query_id:
            raise BundleError("query id must be non-empty")
        if not seq:
            raise BundleError(f"query {query_id!r}: sequence must be non-empty")
        if vector is None:
            return None
        vec = np.asarray(vector, dtype=np.float64)
        self._check_shape(query_id, vec)
        if not np.isfinite(vec).all():
            raise BundleError(f"query {query_id!r}: supplied vector has non-finite values")
        return vec

    def _check_shape(self, query_id: str, vec: np.ndarray) -> None:
        if vec.shape != (self.table.dim,):
            raise BundleError(
                f"query {query_id!r}: vector shape {vec.shape} != ({self.table.dim},)"
            )

    def _best_hits(self, seqs: Sequence[str]) -> list:
        """Each sequence's top raw hit, or the exception that failed its alignment.

        The policy's identity gate is applied later.
        """
        return [hits if isinstance(hits, Exception) else (hits[0] if hits else None)
                for hits in self._stack.aligner.align_many(seqs)]

    # ----- persistence ----------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_flatfile(self.records, directory / RECORDS_FILE)
        save_embedding_table(self.table, directory / EMBEDDINGS_FILE)
        self._stack.counts.save(directory / COUNTS_FILE)
        self._stack.ranker.save(directory)
        manifest = {
            "format": BUNDLE_FORMAT,
            "version": BUNDLE_VERSION,
            "policy": self.policy.to_dict(),
            "params": self.params.to_dict(),
            "artifacts": {
                name: sha256_file(directory / name) for name in ARTIFACT_FILES
            },
        }
        (directory / MANIFEST_FILE).write_text(
            json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="ascii",
        )

    @classmethod
    def load(cls, directory: str | Path) -> "Annotator":
        directory = Path(directory)
        manifest_path = directory / MANIFEST_FILE
        if not manifest_path.is_file():
            raise BundleError(f"no {MANIFEST_FILE} in {directory}")
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        if (not isinstance(manifest, dict)
                or manifest.get("format") != BUNDLE_FORMAT
                or manifest.get("version") != BUNDLE_VERSION):
            raise BundleError("unrecognized bundle format")
        missing = {"policy", "params", "artifacts"} - manifest.keys()
        if missing:
            raise BundleError(f"bundle manifest lacks {sorted(missing)}")
        digests = manifest["artifacts"]
        if not isinstance(digests, dict) or digests.keys() != set(ARTIFACT_FILES):
            raise BundleError(f"bundle manifest must list exactly the artifacts {ARTIFACT_FILES}")
        for name in ARTIFACT_FILES:
            want = digests[name]
            path = directory / name
            if not path.is_file():
                raise BundleError(f"bundle artifact missing: {name}")
            got = sha256_file(path)
            if got != want:
                raise BundleError(
                    f"bundle artifact corrupt: {name} digest {got[:12]}… != manifest"
                )
        params = BundleParams.from_dict(manifest["params"])
        policy = IntegrationPolicy.from_dict(manifest["policy"])
        records, rejects = parse_flatfile(directory / RECORDS_FILE)
        if rejects:
            raise BundleError(f"bundle records file has {len(rejects)} bad rows")
        table = load_embedding_table(directory / EMBEDDINGS_FILE)
        enzymes, label_dict = _ranked(records)
        stack = _Stack(
            gate=EnzymeGate.train(records, table, params.gate),
            counts=FunctionCountModel.load(directory / COUNTS_FILE),
            ranker=EcRanker.load(directory, enzymes, table, label_dict, params.ranker),
            aligner=KmerIndex.build(records, params.alignment),
        )
        return cls(records=records, table=table, stack=stack,
                   policy=policy, params=params)


def _supplied_vector(vectors: Optional[EmbeddingTable], query_id: str) -> Optional[np.ndarray]:
    """The query's row of ``vectors``; None, so the sequence is embedded, when absent."""
    return vectors.get(query_id) if vectors is not None and query_id in vectors else None


def annotate_to_tsv(
    annotator: Annotator,
    pairs: Sequence[tuple[str, str]],
    mode: RankingMode = RankingMode.PREDICTION,
    vectors: Optional[EmbeddingTable] = None,
) -> tuple[str, int]:
    """Render annotations for (id, seq) pairs as prediction-table text.

    A query that cannot be answered becomes a per-row error entry
    instead of aborting the batch; the failure count is returned so
    callers can set their exit status.  Batch and service output share
    this exact renderer, so equal inputs give equal bytes.
    """
    from .metrics import PREDICTION_COLUMNS, prediction_row

    lines = ["\t".join(PREDICTION_COLUMNS)]
    n_failed = 0
    supplied = [_supplied_vector(vectors, query_id) for query_id, _ in pairs]
    for (query_id, _), pred in zip(pairs, annotator._predict(pairs, mode, supplied)):
        if isinstance(pred, Exception):  # row isolation is the contract
            n_failed += 1
            log.warning("query %r failed: %s", query_id, pred)
            lines.append("\t".join([query_id, "", "", "", "", f"error: {pred}"]))
        else:
            lines.append(prediction_row(pred))
    return "\n".join(lines) + "\n", n_failed


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the caller decides per row
        return exc


def _first_error(rows: list) -> list:
    """``rows``, unless one is an exception: then the first of them is raised."""
    for row in rows:
        if isinstance(row, Exception):
            raise row
    return rows


def train_bundle(
    records: Sequence[ProteinRecord],
    params: BundleParams = BundleParams(),
    table: Optional[EmbeddingTable] = None,
    policy: Optional[IntegrationPolicy] = None,
    tune_grid: Optional[PolicyGrid] = None,
    validation_fraction: float = 0.1,
) -> tuple[Annotator, Optional[TuneResult]]:
    """Fit the full stack; optionally tune the policy on a date holdout.

    With ``tune_grid`` set, a temporary stack fitted on the
    chronologically earlier part scores every policy on the held-out
    tail, and the winning policy ships with a final stack refitted on
    all records.  ``policy`` short-circuits tuning.
    """
    if not records:
        raise BundleError("cannot train a bundle on zero records")
    if policy is not None and tune_grid is not None:
        raise BundleError("pass either a fixed policy or a tuning grid, not both")
    if table is None:
        table = one_hot_table(records, params.max_len)

    tune_result: Optional[TuneResult] = None
    if tune_grid is not None:
        fit_part, held_out = validation_split(records, validation_fraction)
        if not held_out:
            raise BundleError("validation split is empty; need >= 2 records to tune")
        trial = _fit_stack(fit_part, table, params)
        probe = Annotator(fit_part, table, trial, IntegrationPolicy(), params)
        outputs_by_id, hits_by_id = probe.tuning_inputs(held_out, table)
        tune_result = greedy_tune(held_out, outputs_by_id, hits_by_id, tune_grid)
        chosen = tune_result.policy
        log.info("tuned policy %s (validation F1 %.4f)",
                 chosen.to_dict(), tune_result.objective)
    else:
        chosen = policy if policy is not None else IntegrationPolicy()

    stack = _fit_stack(records, table, params)
    return Annotator(records, table, stack, chosen, params), tune_result
