"""Per-layer metrics derived from a traced run's spans and noted values.

Phases label what the benchmark was doing when a span opened: ``train``
(train_bundle + save), ``load`` (Annotator.load), ``query`` (the timed
annotate calls, or the server's jobs in ``serve``), and ``setup``,
``check`` and ``probe`` for input generation, the parity check and the
quality probe.  Query-stage metrics are per annotated query of the
``query`` phase, training metrics per bundle training, load metrics per
load.  A metric over zero events reads 0: the workload does not exercise
that layer.  A metric whose spans could not be installed is missing.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import TARGETS, Tracer


class Spans:
    """Count, total and self time per (span name, phase)."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        covered = [0.0] * len(spans)
        for name, phase, start, end, parent, _thread in spans:
            if end is not None and parent >= 0:
                covered[parent] += end - start
        self.stats: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, phase, start, end, _parent, _thread) in enumerate(spans):
            if end is None:
                continue
            row = self.stats[(name, phase)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[idx]

    def count(self, name: str, phase: str | None = None) -> int:
        return int(self._sum(name, phase, 0))

    def total(self, name: str, phase: str | None = None) -> float:
        return self._sum(name, phase, 1)

    def self_time(self, name: str, phase: str | None = None) -> float:
        return self._sum(name, phase, 2)

    def mean(self, name: str, phase: str | None = None) -> float:
        return _ratio(self.total(name, phase), self.count(name, phase))

    def _sum(self, name: str, phase: str | None, col: int) -> float:
        return sum(row[col] for (n, p), row in self.stats.items()
                   if n == name and (phase is None or p == phase))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _values(tracer: Tracer, key: str, phase: str | None = None) -> list:
    return [v for p, v in tracer.values.get(key, []) if phase is None or p == phase]


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# The repo's modules that do hot work; span names start with one of them.
LAYERS = ("dataset", "embedding", "ann", "linear", "gbdt", "agents", "alignment",
          "integrate", "bundle", "service")
# Self time per layer sums the phases a user pays for.
TIMED_PHASES = ("train", "load", "query")

# (metric, unit, spans it needs): the order BENCHMARK.json lists them in.
PER_LAYER = (
    ("gbdt.train_s", "s", ("gbdt.train", "bundle.train")),
    ("gbdt.trees", "count", ("gbdt.train", "bundle.train")),
    ("gbdt.nodes", "count", ("gbdt.train", "bundle.train")),
    ("gbdt.predict_ms", "ms", ("gbdt.predict", "bundle.annotate_one")),
    ("linear.svm_fits", "count", ("linear.svm_fit", "bundle.train")),
    ("linear.svm_s", "s", ("linear.svm_fit", "bundle.train")),
    ("linear.svm_sweeps_mean", "count", ("linear.svm_fit",)),
    ("linear.svm_converged_share", "share", ("linear.svm_fit",)),
    ("linear.nnz_share", "share", ("linear.sparsify",)),
    ("ann.build_s", "s", ("ann.build", "bundle.train")),
    ("ann.build_calls", "count", ("ann.build", "bundle.train")),
    ("ann.search_calls", "count", ("ann.search", "bundle.annotate_one")),
    ("ann.search_ms", "ms", ("ann.search", "bundle.annotate_one")),
    ("ann.brute_force_calls", "count", ("ann.brute_force", "bundle.annotate_one")),
    ("ann.brute_force_ms", "ms", ("ann.brute_force", "bundle.annotate_one")),
    ("ann.recall_at_10", "share", ("agents.ranker_train",)),
    ("agents.gate_train_s", "s", ("agents.gate_train", "bundle.train")),
    ("agents.count_train_s", "s", ("agents.count_train", "bundle.train")),
    ("agents.ranker_train_s", "s", ("agents.ranker_train", "bundle.train")),
    ("agents.ranker_train_self_s", "s",
     ("agents.ranker_train", "bundle.train", "ann.build", "ann.search",
      "linear.svm_fit", "linear.sparsify")),
    ("agents.negatives_share", "share", ("agents.ranker_train",)),
    ("agents.gate_ms", "ms", ("agents.gate", "bundle.annotate_one")),
    ("agents.count_ms", "ms", ("agents.count", "bundle.annotate_one")),
    ("agents.rank_ms", "ms", ("agents.rank", "bundle.annotate_one")),
    ("agents.shortlist_labels_mean", "count", ("agents.shortlist",)),
    ("alignment.candidates_ms", "ms", ("alignment.candidates", "bundle.annotate_one")),
    ("alignment.candidates_per_query", "count", ("alignment.candidates",)),
    ("alignment.align_calls_per_query", "count",
     ("alignment.align_pair", "bundle.annotate_one")),
    ("alignment.align_ms", "ms", ("alignment.align_pair", "bundle.annotate_one")),
    ("alignment.align_pair_ms", "ms", ("alignment.align_pair",)),
    ("alignment.useful_share", "share", ("alignment.align_pair", "integrate.integrate")),
    ("alignment.hit_share", "share", ("alignment.align_all",)),
    ("alignment.index_build_s", "s", ("alignment.index_build", "bundle.load")),
    ("embedding.one_hot_table_s", "s", ("embedding.one_hot_table", "bundle.train")),
    ("embedding.encode_ms", "ms", ("embedding.encode", "bundle.annotate_one")),
    ("embedding.load_table_s", "s", ("embedding.load_table",)),
    ("embedding.table_bytes", "bytes", ()),
    ("dataset.parse_flatfile_s", "s", ("dataset.parse_flatfile",)),
    ("dataset.parse_fasta_ms", "ms", ("dataset.parse_fasta",)),
    ("integrate.ms", "ms", ("integrate.integrate", "bundle.annotate_one")),
    ("integrate.route_alignment_share", "share", ("integrate.integrate",)),
    ("integrate.route_agents_share", "share", ("integrate.integrate",)),
    ("integrate.abstain_share", "share", ("integrate.integrate",)),
    ("bundle.train_s", "s", ("bundle.train",)),
    ("bundle.save_s", "s", ("bundle.save",)),
    ("bundle.load_self_s", "s",
     ("bundle.load", "dataset.parse_flatfile", "embedding.load_table", "agents.gate_train",
      "agents.count_load", "agents.ranker_load", "alignment.index_build")),
    ("bundle.annotate_self_ms", "ms",
     ("bundle.annotate_to_tsv", "bundle.annotate_one", "embedding.encode", "agents.gate",
      "agents.count", "agents.rank", "alignment.align_all", "integrate.integrate")),
    ("service.submit_ms", "ms", ("service.submit",)),
    ("service.queue_wait_ms", "ms", ("service.submit", "service.store")),
    ("service.run_ms", "ms", ("service.run",)),
    ("service.store_ms", "ms", ("service.store", "service.submit")),
    ("service.residence_ms", "ms", ()),
    ("service.client_overhead_ms", "ms", ()),
    ("service.polls_per_job", "count", ()),
    ("loadgen.lag_ms_p90", "ms", ()),
    ("trace.spans", "count", ()),
    ("trace.overhead_share", "share", ()),
) + tuple((f"{layer}.self_s", "s", ()) for layer in LAYERS)


def missing_spans(tracer: Tracer) -> set[str]:
    gone = set(tracer.missing)
    return {t.span for t in TARGETS if f"{t.module}.{t.attr}" in gone}


def layer_metrics(tracer: Tracer, span_cost_s: float, traced_wall_s: float
                  ) -> tuple[dict[str, dict], list[str]]:
    """({metric: {"value", "unit"}}, [missing metric names])."""
    s = Spans(tracer)
    queries = s.count("bundle.annotate_one", "query")
    trainings = s.count("bundle.train", "train")
    loads = s.count("bundle.load", "load")

    def per_query_ms(name: str) -> float:
        return 1e3 * _ratio(s.total(name, "query"), queries)

    def per_training(value: float) -> float:
        return _ratio(value, trainings)

    def noted_mean(key: str, phase: str | None = None) -> float:
        return _mean(_values(tracer, key, phase))

    routes = _values(tracer, "integrate.route", "query")
    route_share = {r: _ratio(routes.count(r), len(routes))
                   for r in ("alignment", "agents", "abstain")}
    submitted = dict(_values(tracer, "service.submitted_at"))
    running = dict(_values(tracer, "service.running_at"))
    waits = [running[j] - t for j, t in submitted.items() if j in running]
    jobs = len(submitted)
    align_pairs = s.count("alignment.align_pair", "query")

    values = {
        "gbdt.train_s": per_training(s.total("gbdt.train", "train")),
        "gbdt.trees": per_training(sum(_values(tracer, "gbdt.trees", "train"))),
        "gbdt.nodes": per_training(sum(_values(tracer, "gbdt.nodes", "train"))),
        "gbdt.predict_ms": per_query_ms("gbdt.predict"),
        "linear.svm_fits": per_training(s.count("linear.svm_fit", "train")),
        "linear.svm_s": per_training(s.total("linear.svm_fit", "train")),
        "linear.svm_sweeps_mean": noted_mean("linear.svm_sweeps", "train"),
        "linear.svm_converged_share": noted_mean("linear.svm_converged", "train"),
        "linear.nnz_share": noted_mean("linear.nnz_share", "train"),
        "ann.build_s": per_training(s.total("ann.build", "train")),
        "ann.build_calls": per_training(s.count("ann.build", "train")),
        "ann.search_calls": _ratio(s.count("ann.search", "query"), queries),
        "ann.search_ms": per_query_ms("ann.search"),
        "ann.brute_force_calls": _ratio(s.count("ann.brute_force", "query"), queries),
        "ann.brute_force_ms": per_query_ms("ann.brute_force"),
        "ann.recall_at_10": noted_mean("ann.recall_at_10"),
        "agents.gate_train_s": per_training(s.total("agents.gate_train", "train")),
        "agents.count_train_s": per_training(s.total("agents.count_train", "train")),
        "agents.ranker_train_s": per_training(s.total("agents.ranker_train", "train")),
        "agents.ranker_train_self_s": per_training(s.self_time("agents.ranker_train", "train")),
        "agents.negatives_share": noted_mean("agents.negatives_share", "train"),
        "agents.gate_ms": per_query_ms("agents.gate"),
        "agents.count_ms": per_query_ms("agents.count"),
        "agents.rank_ms": per_query_ms("agents.rank"),
        "agents.shortlist_labels_mean": noted_mean("agents.shortlist_labels", "query"),
        "alignment.candidates_ms": per_query_ms("alignment.candidates"),
        "alignment.candidates_per_query": noted_mean("alignment.candidates", "query"),
        "alignment.align_calls_per_query": _ratio(align_pairs, queries),
        "alignment.align_ms": per_query_ms("alignment.align_pair"),
        "alignment.align_pair_ms": 1e3 * s.mean("alignment.align_pair", "query"),
        "alignment.useful_share": _ratio(routes.count("alignment"), align_pairs),
        "alignment.hit_share": noted_mean("alignment.hit", "query"),
        "alignment.index_build_s": _ratio(s.total("alignment.index_build", "load"), loads),
        "embedding.one_hot_table_s": per_training(s.total("embedding.one_hot_table", "train")),
        "embedding.encode_ms": per_query_ms("embedding.encode"),
        "embedding.load_table_s": s.mean("embedding.load_table", "load"),
        "embedding.table_bytes": noted_mean("embedding.table_bytes"),
        "dataset.parse_flatfile_s": s.mean("dataset.parse_flatfile", "load"),
        "dataset.parse_fasta_ms": 1e3 * s.mean("dataset.parse_fasta", "query"),
        "integrate.ms": per_query_ms("integrate.integrate"),
        "integrate.route_alignment_share": route_share["alignment"],
        "integrate.route_agents_share": route_share["agents"],
        "integrate.abstain_share": route_share["abstain"],
        "bundle.train_s": s.mean("bundle.train", "train"),
        "bundle.save_s": s.mean("bundle.save", "train"),
        "bundle.load_self_s": _ratio(s.self_time("bundle.load", "load"), loads),
        "bundle.annotate_self_ms": 1e3 * _ratio(
            s.self_time("bundle.annotate_to_tsv", "query")
            + s.self_time("bundle.annotate_one", "query"), queries),
        "service.submit_ms": 1e3 * s.mean("service.submit"),
        "service.queue_wait_ms": 1e3 * _mean(waits),
        "service.run_ms": 1e3 * s.mean("service.run"),
        "service.store_ms": 1e3 * _ratio(s.total("service.store"), jobs),
        "service.residence_ms": noted_mean("service.residence_ms"),
        "service.client_overhead_ms": noted_mean("service.client_overhead_ms"),
        "service.polls_per_job": noted_mean("service.polls"),
        "loadgen.lag_ms_p90": _p90(_values(tracer, "loadgen.lag_ms")),
        "trace.spans": float(len(tracer.spans)),
        "trace.overhead_share": _ratio(len(tracer.spans) * span_cost_s, traced_wall_s),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            row[2] for (name, phase), row in s.stats.items()
            if name.split(".", 1)[0] == layer and phase in TIMED_PHASES)
    gone = missing_spans(tracer)
    if not _values(tracer, "ann.recall_at_10"):
        gone.add("ann.recall_at_10")  # the probe could not reach the ranker's index
    out, missing = {}, []
    for name, unit, needs in PER_LAYER:
        if gone.intersection(needs + (name,)):
            missing.append(name)
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out, missing
