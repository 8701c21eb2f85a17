"""The two workloads and the checks their outputs must pass.

Each trains the bundle it serves in set-up (train_bundle + save on the
reference corpus), which is where setup_s and the training layers are
measured, then:

``predict-homolog``  mutants of training sequences: nearly every query takes
                     the alignment route, so alignment dominates; the agents
                     still run on every query.
``serve``            the HTTP job service in its own process, driven by
                     open-loop segments alternating with closed-loop windows
                     of one-sequence jobs, homolog and novel (random)
                     sequences in the mix of the corpus's later snapshot.

Every workload reports every end-to-end metric; see ``END_TO_END`` in
run.py for what each one means per workload.
"""
from __future__ import annotations

import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import ecann.bundle as bundle_mod
import ecann.dataset as dataset_mod
from ecann.agents import CountModelParams, RankingMode
from ecann.ann import brute_force_knn
from ecann.bundle import BundleParams
from ecann.core import AMINO_ACIDS, ProteinRecord
from ecann.embedding import EmbeddingTable, one_hot_encode
from ecann.gbdt import GbdtParams
from ecann.metrics import evaluate_enzyme_task, micro_ec_f1

import inputs
import loadgen
from tracing import Tracer

HERE = Path(__file__).resolve().parent

# GBDT rounds per count model, cut from the default 120 so a bundle trains
# in ~10 s on a 2-core machine.
GBDT_ROUNDS = 1
# Set-ups (input generation + train_bundle + save) per run; setup_s is
# their median.  Two keep a run of either workload near a minute.
SETUPS = 2

# Serve load.  The open-loop rate is about a sixth of the 23-29 jobs/s a
# 2-core machine completes in the closed loop, so it stays below half of
# saturation when the host runs at half speed; at 8-12 jobs/s queueing made
# job latency swing 2x with host speed.  The poll interval bounds how late
# a client notices a finished job.  Job sequences: one homolog and one novel
# sequence per training record; the job stream mixes them in the share of
# inputs.homolog_share.
OPEN_LOOP_RATE = 4.0  # jobs/s
OPEN_LOOP_MIN_JOBS = 100  # a p90 with ten samples above it
OPEN_LOOP_SHARE = 0.7  # of --seconds; the closed loop gets the rest
POLL_S = 0.01
SERVE_PER_RECORD = 1
# The load alternates this many open-loop segments and closed-loop windows,
# so both sample the host over the whole run; throughput is the median of
# the windows, so a few seconds of host slowdown do not set it.
SEGMENTS = 5

# predict-homolog must keep its property, or it has turned into another
# workload: nearly every query answered by alignment transfer.
MIN_ALIGNMENT_SHARE = 0.9

# Annotator.load repetitions before and again after the measured phase;
# load_s is the median of both, so it samples more than one moment.
LOADS = 10
# predict-homolog: rounds of one-query calls + one batch call, at least.
MIN_ROUNDS = 2
# Neighbours compared by the ANN recall probe, over this many queries.
RECALL_K = 10
RECALL_QUERIES = 50


class CheckFailed(RuntimeError):
    """An output or workload-property check failed: the run is not valid."""


def _p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _rate(times: Sequence[float]) -> float:
    """Events per second between the first and the last of ``times``."""
    times = sorted(times)
    if len(times) < 2:
        raise CheckFailed(f"{len(times)} job(s) completed in a closed-loop window")
    return (len(times) - 1) / (times[-1] - times[0])


def _rows(tsv: str) -> list[str]:
    return tsv.rstrip("\n").split("\n")[1:]


def route_shares(tsv: str) -> dict[str, float]:
    """Share of rows per route; a blank enzyme flag is an abstention."""
    counts = {"alignment": 0, "agents": 0, "abstain": 0}
    rows = _rows(tsv)
    for row in rows:
        cols = row.split("\t")
        counts["abstain" if cols[1] == "" else cols[5]] += 1
    return {route: n / len(rows) for route, n in counts.items()}


class Bench:
    """One benchmark invocation: inputs, timings, checks and context."""

    def __init__(self, workdir: Path, seed: int, seconds: float, size: inputs.Size,
                 tracer: Optional[Tracer]):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tracer = tracer
        self.metrics: dict[str, float] = {}
        self.load_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        gbdt = GbdtParams(n_estimators=GBDT_ROUNDS)
        self.params = BundleParams(max_len=size.max_len,
                                   counts=CountModelParams(sp=gbdt, mp=gbdt))
        self.context: dict = {
            "seed": seed,
            "seconds": seconds,
            "gbdt_rounds": GBDT_ROUNDS,
            "max_len": size.max_len,
            "one_hot_dim": len(AMINO_ACIDS) * size.max_len,
        }

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def note(self, key: str, value) -> None:
        if self.tracer is not None:
            self.tracer.note(key, value)

    # -- shared steps -------------------------------------------------------

    def make_inputs(self, homologs_per_record: int, novels_per_record: int):
        """(training records, probe records, queries) for this seed."""
        self.phase("setup")
        train, probe = inputs.reference_corpus(self.size)
        rng = random.Random(self.seed)
        homologs = inputs.homolog_queries(train, rng, homologs_per_record)
        novels = inputs.novel_queries(rng, novels_per_record * len(train))
        queries = homologs + novels
        rng.shuffle(queries)
        inputs.write_fasta(queries, self.workdir / "queries.fasta")
        enzymes = [rec for rec in train if rec.is_enzyme]
        self.context.update(
            records=len(train), enzymes=len(enzymes),
            labels=len({ec for rec in enzymes for ec in rec.ecs}),
            probe_records=len(probe), homolog_queries=len(homologs),
            novel_queries=len(novels),
        )
        return train, probe, queries

    def train_and_save(self, train: Sequence[ProteinRecord], directory: Path):
        self.phase("train")
        t0 = time.perf_counter()
        annotator, _ = bundle_mod.train_bundle(train, self.params)
        annotator.save(directory)
        return time.perf_counter() - t0

    def load(self, directory: Path):
        self.phase("load")
        annotator = None
        for _ in range(LOADS):
            t0 = time.perf_counter()
            annotator = bundle_mod.Annotator.load(directory)
            self.load_times.append(time.perf_counter() - t0)
            self.attempted += 1
        self.metrics["load_s"] = statistics.median(self.load_times)
        self.note("embedding.table_bytes", (directory / bundle_mod.EMBEDDINGS_FILE).stat().st_size)
        return annotator

    def annotate(self, annotator, pairs) -> str:
        tsv, n_failed = bundle_mod.annotate_to_tsv(annotator, pairs)
        self.attempted += len(pairs)
        self.failed += n_failed
        if n_failed or "\terror: " in tsv:
            raise CheckFailed(f"{n_failed} query row(s) failed: {tsv[:300]!r}")
        return tsv

    def query_rounds(self, annotator) -> str:
        """Rounds of one-query calls (latency) and one batch call (throughput).

        At least ``MIN_ROUNDS`` run, more while another fits in
        ``--seconds``.  A query's latency is the mean of its one-query
        calls, which are spread over the run, so it samples the host's speed
        at several moments; p50 and p90 are taken over queries.  Every batch output and every
        concatenation of one-query rows must be byte-identical.  Returns
        the batch TSV.
        """
        self.phase("query")
        pairs = dataset_mod.parse_fasta(self.workdir / "queries.fasta")
        latencies: dict[str, list[float]] = {qid: [] for qid, _ in pairs}
        batch_times: list[float] = []
        outputs: set[str] = set()
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            rows = []
            for pair in pairs:
                t0 = time.perf_counter()
                tsv = self.annotate(annotator, [pair])
                latencies[pair[0]].append(time.perf_counter() - t0)
                rows.extend(_rows(tsv))
            t0 = time.perf_counter()
            batch = self.annotate(annotator, pairs)
            batch_times.append(time.perf_counter() - t0)
            outputs.update((batch, tsv.split("\n", 1)[0] + "\n" + "\n".join(rows) + "\n"))
            now = time.perf_counter()
            if (len(batch_times) >= MIN_ROUNDS
                    and now - start + (now - round_start) > self.seconds):
                break
        if len(outputs) != 1:
            raise CheckFailed("prediction TSVs differ between calls within one run")
        per_query = [statistics.fmean(times) for times in latencies.values()]
        self.metrics["latency_ms_p50"] = 1e3 * statistics.median(per_query)
        self.metrics["latency_ms_p90"] = 1e3 * _p90(per_query)
        self.metrics["throughput_per_s"] = len(pairs) * len(batch_times) / sum(batch_times)
        self.context.update(latency_queries=len(per_query),
                            latency_calls=len(pairs) * len(batch_times),
                            batch_calls=len(batch_times))
        return batch

    def check_routes(self, tsv: str, route: str, minimum: float) -> None:
        shares = route_shares(tsv)
        self.context["route_shares"] = shares
        if shares[route] < minimum:
            raise CheckFailed(f"{route} route share {shares[route]:.3f} < {minimum}: "
                              f"the workload no longer has its stated property")

    def probe_quality(self, annotator, probe: Sequence[ProteinRecord]) -> None:
        self.phase("probe")
        preds = annotator.annotate([(rec.id, rec.seq) for rec in probe],
                                   RankingMode.PREDICTION)
        self.metrics["ec_micro_f1"] = micro_ec_f1(preds, probe)
        self.metrics["enzyme_f1"] = evaluate_enzyme_task(preds, probe).metrics.f1 or 0.0

    def probe_recall(self, annotator, queries: Sequence[ProteinRecord]) -> None:
        """Ranker index against brute force over the same points (traced runs)."""
        if self.tracer is None or self.tracer.last_ranker is None:
            return
        self.phase("probe")
        try:
            index = self.tracer.last_ranker.index
            points = EmbeddingTable(
                tag="points", dim=annotator.table.dim,
                vectors={pid: annotator.table.get(pid.rsplit("|", 1)[0]) for pid in index.ids})
        except (AttributeError, KeyError):
            return  # reported as missing
        found = wanted = 0
        for rec in queries[:RECALL_QUERIES]:
            vec = one_hot_encode(rec.seq, self.size.max_len)
            got = {pid for pid, _ in index.search(vec, RECALL_K)}
            want = {pid for pid, _ in brute_force_knn(points, vec, RECALL_K)}
            found += len(got & want)
            wanted += len(want)
        self.note("ann.recall_at_10", found / wanted)

    def finish(self, annotator, probe, queries, rss_of: int = resource.RUSAGE_SELF) -> None:
        """Quality and recall probes; peak_rss_mb is the peak RSS of ``rss_of``.

        That is this process, or for ``serve`` (RUSAGE_CHILDREN) the server:
        its only child, waited for once stopped.
        """
        self.probe_quality(annotator, probe)
        self.probe_recall(annotator, queries)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        self.metrics["peak_rss_mb"] = own if rss_of == resource.RUSAGE_SELF else children
        self.context.update(rss_mb_self=own, rss_mb_children=children)

    def setup(self, homologs_per_record: int, novels_per_record: int):
        """Set up ``SETUPS`` times; setup_s is the median, the last bundle is served."""
        setup_times, train_times = [], []
        for i in range(SETUPS):
            t0 = time.perf_counter()
            train, probe, queries = self.make_inputs(homologs_per_record, novels_per_record)
            bundle_dir = self.workdir / f"bundle{i}"
            train_times.append(self.train_and_save(train, bundle_dir))
            setup_times.append(time.perf_counter() - t0)
        self.metrics["setup_s"] = statistics.median(setup_times)
        self.context.update(setup_s_each=setup_times, train_s_each=train_times)
        return bundle_dir, probe, queries


# --------------------------------------------------------------------------
# Workloads


def run_predict_homolog(bench: Bench) -> None:
    bundle_dir, probe, queries = bench.setup(bench.size.homolog_per_record, 0)
    annotator = bench.load(bundle_dir)
    tsv = bench.query_rounds(annotator)
    bench.load(bundle_dir)
    bench.check_routes(tsv, "alignment", MIN_ALIGNMENT_SHARE)
    bench.finish(annotator, probe, queries)


def _start_server(bench: Bench, bundle_dir: Path, spans: Optional[Path]):
    ready = bench.workdir / "port"
    cmd = [sys.executable, str(HERE / "serve_entry.py"), "--bundle", str(bundle_dir),
           "--store", str(bench.workdir / "store"), "--ready", str(ready)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(bench.workdir / "server.log", "wb") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log)
    t0 = time.perf_counter()
    while not ready.exists():
        if proc.poll() is not None or time.perf_counter() - t0 > 120:
            _stop_server(proc)
            raise CheckFailed("server did not start: "
                              + (bench.workdir / "server.log").read_text(errors="replace")[-500:])
        time.sleep(0.02)
    bench.context["server_ready_s"] = time.perf_counter() - t0
    return proc, int(ready.read_text(encoding="ascii"))


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_serve(bench: Bench) -> None:
    bundle_dir, probe, queries = bench.setup(SERVE_PER_RECORD, SERVE_PER_RECORD)
    homolog_share = inputs.homolog_share(probe)
    annotator = bench.load(bundle_dir)

    bench.phase("check")
    expected = {rec.id: bench.annotate(annotator, [(rec.id, rec.seq)]).encode("utf-8")
                for rec in queries}
    bodies = {rec.id: f">{rec.id}\n{rec.seq}\n".encode("ascii") for rec in queries}
    by_kind = {k: [rec.id for rec in queries if rec.id.startswith(k)] for k in "HN"}
    rng = random.Random(bench.seed + 1)

    def stream(n: int) -> list[tuple[str, bytes]]:
        homologs = round(n * homolog_share)
        kinds = ["H"] * homologs + ["N"] * (n - homologs)
        rng.shuffle(kinds)
        return [(qid, bodies[qid]) for qid in (rng.choice(by_kind[k]) for k in kinds)]

    per_segment = math.ceil(
        max(OPEN_LOOP_MIN_JOBS, OPEN_LOOP_RATE * OPEN_LOOP_SHARE * bench.seconds) / SEGMENTS)
    n_open = per_segment * SEGMENTS
    window = (1 - OPEN_LOOP_SHARE) * bench.seconds / SEGMENTS
    clients = os.cpu_count() or 1
    bench.context.update(open_loop_rate=OPEN_LOOP_RATE, open_loop_jobs=n_open,
                         closed_loop_clients=clients, closed_loop_s=window * SEGMENTS,
                         segments=SEGMENTS, poll_s=POLL_S, homolog_share=homolog_share)

    spans = bench.workdir / "server-spans.json" if bench.tracer is not None else None
    proc, port = _start_server(bench, bundle_dir, spans)
    opened: list[loadgen.JobSample] = []
    closed: list[loadgen.JobSample] = []
    rates = []
    try:
        for _ in range(SEGMENTS):
            opened += loadgen.open_loop("127.0.0.1", port, stream(per_segment),
                                        OPEN_LOOP_RATE, POLL_S)
            jobs, start = loadgen.closed_loop("127.0.0.1", port, stream(64), clients,
                                              window, POLL_S)
            closed += jobs
            rates.append(_rate([s.done for s in jobs if start <= s.done < start + window]))
    except loadgen.LoadError as exc:
        raise CheckFailed(f"serve load failed: {exc}") from exc
    finally:
        _stop_server(proc)
    if spans is not None and spans.exists():
        bench.tracer.merge(Tracer.load(spans))
    bench.load(bundle_dir)

    samples = opened + closed
    bench.attempted += len(samples)
    errors = [s.error for s in samples if s.error]
    bench.failed += len(errors)
    if errors:
        raise CheckFailed(f"{len(errors)} job(s) failed, first: {errors[0]}")
    mismatched = [s.query_id for s in samples if s.result != expected[s.query_id]]
    if mismatched:
        raise CheckFailed(f"{len(mismatched)} service result(s) differ from annotate_to_tsv "
                          f"(first: {mismatched[0]})")

    latencies = [s.done - s.due for s in opened]
    bench.metrics["latency_ms_p50"] = 1e3 * statistics.median(latencies)
    bench.metrics["latency_ms_p90"] = 1e3 * _p90(latencies)
    bench.metrics["throughput_per_s"] = statistics.median(rates)
    bench.context.update(latency_samples=len(latencies), closed_loop_jobs=len(closed),
                         checked_results=len(samples))
    for s in opened:
        bench.note("service.residence_ms", 1e3 * s.residence_s)
        bench.note("service.client_overhead_ms", 1e3 * (s.done - s.sent - s.residence_s))
        bench.note("service.polls", s.polls)
        bench.note("loadgen.lag_ms", 1e3 * (s.sent - s.due))
    bench.finish(annotator, probe, queries, rss_of=resource.RUSAGE_CHILDREN)


WORKLOADS = {
    "predict-homolog": run_predict_homolog,
    "serve": run_serve,
}
