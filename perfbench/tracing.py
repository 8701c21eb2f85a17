"""Span recorder and call wrappers for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install` swaps
selected public functions and methods of the ``ecann`` modules for
wrappers that open a span around each call.  A span is (name, phase,
start, end, parent, thread); parents come from a per-thread stack, so a
layer's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written once, when the run ends.

A target that no longer exists (a refactor renamed or removed it) is
skipped and listed in ``Tracer.missing``; metrics that need it are then
reported as missing instead of crashing the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "func" or "Class.method"
    span: str
    hook: Optional[Callable] = None  # hook(tracer, args, kwargs, result)


class Tracer:
    """In-memory spans plus the values hooks note, keyed by name and phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, phase, start, end, parent, thread]
        self.values: dict[str, list] = defaultdict(list)
        self.phase = "setup"
        self.missing: list[str] = []
        self.last_ranker = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, self.phase, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def note(self, key: str, value) -> None:
        with self._lock:
            self.values[key].append((self.phase, value))

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if target.hook is not None:
                target.hook(tracer, args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        names = ("name", "phase", "start", "end", "parent", "thread")
        payload = {
            "missing": self.missing,
            "spans": [dict(zip(names, span)) for span in self.spans],
            "values": dict(self.values),
        }
        path.write_text(json.dumps(payload, default=str), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        payload = json.loads(path.read_text(encoding="utf-8"))
        tracer = cls()
        tracer.missing = payload["missing"]
        tracer.spans = [[s["name"], s["phase"], s["start"], s["end"], s["parent"], s["thread"]]
                        for s in payload["spans"]]
        for key, items in payload["values"].items():
            tracer.values[key] = [tuple(item) for item in items]
        return tracer

    def merge(self, other: "Tracer") -> None:
        """Append another process's spans, re-basing their parent indices."""
        base = len(self.spans)
        for name, phase, start, end, parent, thread in other.spans:
            self.spans.append([name, phase, start, end,
                               parent + base if parent >= 0 else -1, thread])
        for key, items in other.values.items():
            self.values[key].extend(items)
        self.missing.extend(m for m in other.missing if m not in self.missing)


# --------------------------------------------------------------------------
# Hooks: counts taken from call results, where the work happens


def _gbdt_trained(tracer, args, kwargs, model) -> None:
    trees = [t for round_trees in model.trees for t in round_trees]
    tracer.note("gbdt.trees", len(trees))
    tracer.note("gbdt.nodes", sum(t.n_nodes for t in trees))


def _svm_trained(tracer, args, kwargs, model) -> None:
    tracer.note("linear.svm_sweeps", model.meta.iterations)
    tracer.note("linear.svm_converged", int(model.meta.converged))


def _sparsified(tracer, args, kwargs, model) -> None:
    tracer.note("linear.nnz_share", model.nnz / model.dim)


def _ranker_ready(tracer, args, kwargs, ranker) -> None:
    tracer.last_ranker = ranker


def _ranker_trained(tracer, args, kwargs, ranker) -> None:
    tracer.last_ranker = ranker
    labels = list(ranker.label_of_point.values())
    exhaustive = sum(len(labels) - labels.count(label) for label in ranker.negatives_used)
    if exhaustive:
        tracer.note("agents.negatives_share", sum(ranker.negatives_used.values()) / exhaustive)


def _shortlisted(tracer, args, kwargs, labels) -> None:
    tracer.note("agents.shortlist_labels", len(labels))


def _candidates(tracer, args, kwargs, found) -> None:
    tracer.note("alignment.candidates", len(found))


def _aligned_all(tracer, args, kwargs, hits) -> None:
    index = args[0]
    tracer.note("alignment.hit",
                int(bool(hits) and hits[0].identity >= index.params.min_identity))


def _integrated(tracer, args, kwargs, pred) -> None:
    route = "abstain" if pred.is_enzyme is None else pred.source.value
    tracer.note("integrate.route", route)


def _submitted(tracer, args, kwargs, job) -> None:
    tracer.note("service.submitted_at", (job.job_id, time.perf_counter()))


def _transitioned(tracer, args, kwargs, job) -> None:
    if job.state == "Running":
        tracer.note("service.running_at", (job.job_id, time.perf_counter()))


# Span names carry their layer as the prefix before the first dot.
TARGETS = (
    Target("ecann.bundle", "parse_flatfile", "dataset.parse_flatfile"),
    Target("ecann.dataset", "parse_fasta", "dataset.parse_fasta"),
    Target("ecann.service", "parse_fasta", "dataset.parse_fasta"),
    Target("ecann.bundle", "one_hot_table", "embedding.one_hot_table"),
    Target("ecann.bundle", "one_hot_encode", "embedding.encode"),
    Target("ecann.bundle", "load_embedding_table", "embedding.load_table"),
    Target("ecann.bundle", "save_embedding_table", "embedding.save_table"),
    Target("ecann.ann", "AnnIndex.build", "ann.build"),
    Target("ecann.ann", "AnnIndex.load", "ann.load"),
    Target("ecann.ann", "AnnIndex.search", "ann.search"),
    Target("ecann.agents", "brute_force_knn", "ann.brute_force"),
    Target("ecann.agents", "train_l2svm", "linear.svm_fit", _svm_trained),
    Target("ecann.agents", "sparsify", "linear.sparsify", _sparsified),
    Target("ecann.agents", "decision", "linear.decision"),
    Target("ecann.agents", "train_gbdt", "gbdt.train", _gbdt_trained),
    Target("ecann.gbdt", "GbdtModel.predict", "gbdt.predict"),
    Target("ecann.agents", "EnzymeGate.train", "agents.gate_train"),
    Target("ecann.agents", "FunctionCountModel.train", "agents.count_train"),
    Target("ecann.agents", "FunctionCountModel.load", "agents.count_load"),
    Target("ecann.agents", "EcRanker.train", "agents.ranker_train", _ranker_trained),
    Target("ecann.agents", "EcRanker.load", "agents.ranker_load", _ranker_ready),
    Target("ecann.agents", "EnzymeGate.predict", "agents.gate"),
    Target("ecann.agents", "FunctionCountModel.predict", "agents.count"),
    Target("ecann.agents", "EcRanker.rank", "agents.rank"),
    Target("ecann.agents", "EcRanker.shortlist", "agents.shortlist", _shortlisted),
    Target("ecann.alignment", "KmerIndex.build", "alignment.index_build"),
    Target("ecann.alignment", "KmerIndex.candidates", "alignment.candidates", _candidates),
    Target("ecann.alignment", "KmerIndex.align_all", "alignment.align_all", _aligned_all),
    Target("ecann.alignment", "banded_local_align", "alignment.align_pair"),
    Target("ecann.bundle", "integrate", "integrate.integrate", _integrated),
    Target("ecann.bundle", "train_bundle", "bundle.train"),
    Target("ecann.bundle", "Annotator.save", "bundle.save"),
    Target("ecann.bundle", "Annotator.load", "bundle.load"),
    Target("ecann.bundle", "Annotator.annotate_one", "bundle.annotate_one"),
    Target("ecann.bundle", "annotate_to_tsv", "bundle.annotate_to_tsv"),
    Target("ecann.service", "annotate_to_tsv", "bundle.annotate_to_tsv"),
    Target("ecann.service", "AnnotationService.submit", "service.submit", _submitted),
    Target("ecann.service", "AnnotationService._run", "service.run"),
    Target("ecann.service", "JobStore.create", "service.store"),
    Target("ecann.service", "JobStore.get", "service.store"),
    Target("ecann.service", "JobStore.transition", "service.store", _transitioned),
    Target("ecann.service", "JobStore.result_bytes", "service.store"),
)


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; list the others in ``tracer.missing``."""
    for target in TARGETS:
        try:
            owner = importlib.import_module(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(f"{target.module}.{target.attr}")
            continue
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(raw.__func__, target))
        elif isinstance(raw, staticmethod):
            new = staticmethod(tracer.wrap(raw.__func__, target))
        else:
            new = tracer.wrap(raw, target)
        setattr(owner, name, new)


# Calls timed per calibration pass of span_cost_s.
CALIBRATION_CALLS = 20000


def span_cost_s() -> float:
    """Calibrated cost of one traced call over a plain call, in seconds."""

    def plain(x):
        return x

    tracer = Tracer()
    traced = tracer.wrap(plain, Target("perfbench", "plain", "calibrate"))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(CALIBRATION_CALLS):
            plain(i)
        t1 = time.perf_counter()
        for i in range(CALIBRATION_CALLS):
            traced(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
        tracer.spans.clear()
    return max(best, 0.0)
