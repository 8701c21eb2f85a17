"""Acceptance gate: one test per shipping criterion.

Each test here is self-contained (no imports from sibling test modules)
and checks one release-blocking behavior end to end, with explicit
runtime budgets where the criterion states one.  conftest prints a
PASS/FAIL line per test in this file.
"""

import datetime as dt
import json
import random
import threading
import time
import urllib.request
from urllib.error import HTTPError

import numpy as np
import pytest

from ecann.agents import CountModelParams, EcRankerParams
from ecann.alignment import (
    AlignmentParams,
    Hit,
    KmerIndex,
    banded_local_align,
    full_local_align,
)
from ecann.ann import AnnIndex, AnnParams, brute_force_knn
from ecann.bundle import BundleParams, annotate_to_tsv, train_bundle
from ecann.cli import EXIT_OK, main
from ecann.core import (
    LabelDictionary,
    PredictionSource,
    ProteinRecord,
    Task,
    parse_ec,
    parse_ec_list,
)
from ecann.dataset import (
    Snapshot,
    chronological_split,
    function_count_partition,
    parse_flatfile,
    preprocess,
    write_flatfile,
)
from ecann.demo import make_demo_records
from ecann.embedding import EmbeddingTable
from ecann.gbdt import GbdtParams, train_gbdt
from ecann.integrate import AgentOutputs, PolicyGrid, greedy_tune
from ecann.linear import (
    decision,
    decision_many,
    train_l2svm,
)
from ecann.metrics import (
    ConfusionCounts,
    binary_metrics,
    evaluate_enzyme_task,
    load_external_predictions,
)
from ecann.service import DONE, FAILED, PENDING, RUNNING, AnnotationService, JobStore, make_server

DAY = dt.date(2015, 6, 1)
AMINO = "ACDEFGHIKLMNPQRSTVWY"


def _record(rid, seq, ecs="", date=DAY, name=None):
    return ProteinRecord(
        id=rid,
        name=name or rid,
        seq=seq,
        is_enzyme=bool(ecs),
        ecs=parse_ec_list(ecs),
        date_integrated=date,
        date_sequence_update=date,
    )


# --------------------------------------------------------------------------
# 1. Binary metric regression on archived confusion counts.


def test_binary_metric_regression():
    started = time.monotonic()
    ours = binary_metrics(ConfusionCounts(3185, 159, 4295, 394, 0, 0))
    assert ours.acc == pytest.approx(0.9312, abs=1e-4)
    assert ours.ppv == pytest.approx(0.9525, abs=1e-4)
    assert ours.npv == pytest.approx(0.9160, abs=1e-4)
    assert ours.recall == pytest.approx(0.8899, abs=1e-4)
    assert ours.f1 == pytest.approx(0.9201, abs=1e-4)

    knn = binary_metrics(ConfusionCounts(2962, 192, 3605, 342, 0, 0))
    assert knn.acc == pytest.approx(0.9248, abs=1e-4)
    assert knn.ppv == pytest.approx(0.9391, abs=1e-4)
    assert knn.npv == pytest.approx(0.9134, abs=1e-4)
    assert knn.recall == pytest.approx(0.8965, abs=1e-4)
    assert knn.f1 == pytest.approx(0.9173, abs=1e-4)
    assert time.monotonic() - started < 1.0


# --------------------------------------------------------------------------
# 2. Abstentions land in the recall denominator, by hand count.


def test_abstention_recall_denominator(tmp_path):
    gold = [
        _record("E1", "AAAA", "1.1.1.1"),
        _record("E2", "CCCC", "1.1.1.2"),
        _record("E3", "DDDD", "2.2.2.2"),
        _record("E4", "EEEE", "3.3.3.3"),
        _record("E5", "FFFF", "4.4.4.4"),
        _record("N1", "GGGG"),
        _record("N2", "HHHH"),
        _record("N3", "IIII"),
    ]
    rows = [
        "id\tis_enzyme\tecs",
        "E1\t1\t1.1.1.1",   # tp
        "E2\t0\t",          # fn
        "E3\t\t",           # abstained on a gold enzyme -> up
        "E4\t\t",           # abstained on a gold enzyme -> up
        "E5\t1\t4.4.4.4",   # tp
        "N1\t0\t",          # tn
        "N2\t1\t5.5.5.5",   # fp
        "N3\t\t",           # abstained on a gold non-enzyme -> un
    ]
    path = tmp_path / "external.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    preds = load_external_predictions(path)
    assert sum(p.is_enzyme is None for p in preds) == 3

    report = evaluate_enzyme_task(preds, gold)
    counts = report.counts
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 1, 1, 1)
    assert (counts.up, counts.un) == (2, 1)
    # recall counts abstained gold positives in its denominator
    assert report.metrics.recall == 2 / (2 + 1 + 2)
    assert report.metrics.recall != counts.tp / (counts.tp + counts.fn)
    assert report.metrics.acc == (2 + 1) / 8


# --------------------------------------------------------------------------
# 3. Nearest-neighbor index: high recall, graph invariants per insertion.


def test_ann_index_recall_and_per_insertion_invariants():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    n, dim = 2000, 64
    points = rng.normal(size=(n, dim))
    ids = [f"p{i}" for i in range(n)]
    table = EmbeddingTable(tag="t", dim=dim,
                           vectors={rid: points[i] for i, rid in enumerate(ids)})
    params = AnnParams(m=16, ef_construction=200, ef_search=300, seed=0)

    index = AnnIndex(params, table.matrix(), table.rows(ids))
    for rid in ids:
        index._insert(rid)
        index.validate()  # degree caps and layer membership after every insertion

    hits = 0
    n_queries, k = 200, 10
    for qi in range(n_queries):
        got = {rid for rid, _ in index.search(points[qi], k=k)}
        want = {rid for rid, _ in brute_force_knn(table, points[qi], k=k)}
        hits += len(got & want)
    recall = hits / (n_queries * k)
    assert recall >= 0.95
    assert time.monotonic() - started < 30.0


# --------------------------------------------------------------------------
# 4. Linear max-margin solver: analytic solution, monotone dual, gradients.


def test_linear_svm_solver_contracts():
    # mirrored unit points, C=1: both multipliers settle at 0.4 -> w=(0.8, 0), b=0
    model = train_l2svm([np.array([1.0, 0.0])], [np.array([-1.0, 0.0])],
                        C=1.0, tol=1e-10)
    w = model.dense_weights()
    assert w[0] == pytest.approx(0.8, abs=1e-8)
    assert w[1] == pytest.approx(0.0, abs=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-8)
    assert decision(model, np.array([1.0, 0.0])) == pytest.approx(0.8, abs=1e-8)

    rng = np.random.default_rng(3)
    pos = rng.normal(size=(40, 6)) + 3.0
    neg = rng.normal(size=(40, 6)) - 3.0
    blob_model = train_l2svm(pos, neg, C=1.0)
    assert np.all(decision_many(blob_model, pos) > 0)
    assert np.all(decision_many(blob_model, neg) < 0)

    noisy = train_l2svm(rng.normal(size=(30, 8)) + 0.3,
                        rng.normal(size=(30, 8)) - 0.3,
                        C=2.0, tol=1e-6, max_iter=200)
    curve = noisy.meta.objective_curve
    assert len(curve) >= 2
    assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))


# --------------------------------------------------------------------------
# 5. Boosted trees: monotone training error, exact fit, tree-walk oracle.


def test_boosted_trees_training_and_prediction_oracle():
    rng = np.random.default_rng(11)
    centers = np.array([[0.0] * 8, [6.0] * 8, [-6.0] * 8])
    X = np.vstack([c + rng.normal(size=(200, 8)) for c in centers])
    y = np.repeat(np.arange(3), 200)

    model = train_gbdt(X, y, GbdtParams(subsample=1.0))  # defaults: 120 rounds, depth 6
    curve = model.train_error_curve
    assert len(curve) == 120
    assert all(b <= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] == 0.0
    assert np.array_equal(model.predict(X), y)

    def walk(tree, x):
        i = 0
        while tree.feature[i] != -1:
            i = tree.left[i] if x[tree.feature[i]] < tree.threshold[i] else tree.right[i]
        return tree.value[i]

    queries = rng.normal(scale=4.0, size=(1000, 8))
    margins = np.zeros((1000, model.n_classes))
    for round_trees in model.trees:
        for cls, tree in enumerate(round_trees):
            for r in range(1000):
                margins[r, cls] += walk(tree, queries[r])
    assert np.allclose(model.predict_margins(queries), margins)
    assert np.array_equal(model.predict(queries), np.argmax(margins, axis=1))


# --------------------------------------------------------------------------
# 6. Shortlisted one-vs-all ranking vs the full one-vs-all oracle.


def test_extreme_label_ranking_matches_full_one_vs_all_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    n_labels, per_label, dim, sigma = 500, 10, 32, 0.5
    centers = rng.normal(size=(n_labels, dim))

    def ec_text(i):
        return f"{1 + i % 7}.{1 + (i // 7) % 20}.{1 + i // 140}.{1 + i}"

    records, vectors = [], {}
    X = np.empty((n_labels * per_label, dim))
    y = np.empty(n_labels * per_label, dtype=int)
    k = 0
    for i in range(n_labels):
        for _ in range(per_label):
            rid = f"P{k}"
            vec = centers[i] + rng.normal(size=dim) * sigma
            vectors[rid], X[k], y[k] = vec, vec, i
            records.append(_record(rid, "ACDEFGHIKL", ec_text(i)))
            k += 1
    table = EmbeddingTable(tag="bench", dim=dim, vectors=vectors)
    label_dict = LabelDictionary(parse_ec(ec_text(i)) for i in range(n_labels))
    queries = np.stack([centers[i] + rng.normal(size=dim) * sigma
                        for i in range(n_labels)])

    from ecann.agents import EcRanker

    params = EcRankerParams(
        ann=AnnParams(m=16, ef_construction=200, ef_search=300, seed=0),
        negative_budget=2000,
        shortlist_size=700,
    )
    ranker = EcRanker.train(records, table, label_dict, params)

    # negative budget: small fraction of what exhaustive one-vs-all consumes
    negatives_used = sum(ranker.negatives_used.values())
    oracle_negatives = n_labels * (n_labels * per_label - per_label)
    assert negatives_used <= 0.20 * oracle_negatives

    hits = 0
    for i in range(n_labels):
        top = ranker.rank(queries[i])[:1]
        hits += top[0][0] == parse_ec(ec_text(i))
    shortlisted_acc = hits / n_labels

    oracle_models = [
        train_l2svm(X[y == i], X[y != i], C=1.0, max_iter=60, tol=0.1)
        for i in range(n_labels)
    ]
    decisions = np.stack([decision_many(m, queries) for m in oracle_models])
    oracle_acc = float(np.mean(np.argmax(decisions, axis=0) == np.arange(n_labels)))

    assert shortlisted_acc >= oracle_acc - 0.02

    for qi in (0, 123, 499):
        ranked = ranker.rank(queries[qi])
        assert 1 <= len(ranked) <= 20
        keys = [(-score, str(ec)) for ec, score in ranked]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    assert time.monotonic() - started < 300.0


# --------------------------------------------------------------------------
# 7. Tuned routing policy never loses to either single-route baseline;
#    a bundle replaying its own training set scores 1.0 via alignment.


def test_policy_tuning_dominates_single_routes_and_self_test_is_exact():
    def hit_for(ecs, identity=1.0):
        labels = parse_ec_list(ecs)
        return Hit(id="H", identity=identity, score=40.0, columns=50,
                   matches=int(identity * 50), labels=labels)

    def outputs_for(ecs, is_enzyme=True, conf=0.9):
        ranked = tuple((parse_ec(t), 0.9 - 0.05 * i)
                       for i, t in enumerate(parse_ec_list(ecs) and ecs.split(";")))
        return AgentOutputs(is_enzyme=is_enzyme, enzyme_confidence=conf,
                            count=max(1, len(ranked)), ranked_ecs=ranked)

    # fixture A: alignment right where it hits, agents right elsewhere
    recs_a, outs_a, hits_a = [], {}, {}
    for i in range(3):
        rid = f"A{i}"
        recs_a.append(_record(rid, "SEQAAA" + AMINO[i], "1.1.1.1"))
        outs_a[rid] = outputs_for("6.6.6.6")          # agents wrong here
        hits_a[rid] = hit_for("1.1.1.1")
    for i in range(2):
        rid = f"G{i}"
        recs_a.append(_record(rid, "SEQGGG" + AMINO[i], "2.2.2.2"))
        outs_a[rid] = outputs_for("2.2.2.2")          # agents right here
        hits_a[rid] = None

    # fixture B: alignment alone is perfect, agents always wrong
    recs_b = [_record(f"B{i}", "SEQLLL" + AMINO[i], "3.3.3.3") for i in range(4)]
    outs_b = {r.id: outputs_for("6.6.6.6") for r in recs_b}
    hits_b = {r.id: hit_for("3.3.3.3") for r in recs_b}

    # fixture C: no alignment hits at all, agents alone are perfect
    recs_c = [_record(f"C{i}", "SEQMMM" + AMINO[i], "4.4.4.4") for i in range(4)]
    outs_c = {r.id: outputs_for("4.4.4.4") for r in recs_c}
    hits_c = {r.id: None for r in recs_c}

    for recs, outs, hits in ((recs_a, outs_a, hits_a),
                             (recs_b, outs_b, hits_b),
                             (recs_c, outs_c, hits_c)):
        result = greedy_tune(recs, outs, hits, PolicyGrid())
        singles = {
            route: max(score for policy, score in result.scoreboard
                       if policy.precedence == (route,))
            for route in (PredictionSource.ALIGNMENT, PredictionSource.AGENTS)
        }
        assert result.objective >= singles[PredictionSource.ALIGNMENT]
        assert result.objective >= singles[PredictionSource.AGENTS]

    # the combined fixture strictly needs both routes
    combined = greedy_tune(recs_a, outs_a, hits_a, PolicyGrid())
    assert combined.objective == 1.0
    assert combined.policy.precedence[0] is PredictionSource.ALIGNMENT

    # self-test: replay a trained bundle's own records, alignment-first
    fast = GbdtParams(n_estimators=15, max_depth=3, min_child_weight=0.5,
                      subsample=1.0)
    params = BundleParams(
        max_len=192,
        counts=CountModelParams(sp=fast, mp=fast),
        ranker=EcRankerParams(negative_budget=40, shortlist_size=40,
                              svm_max_iter=200),
    )
    from ecann.demo import make_demo_snapshots

    earlier, _ = make_demo_snapshots(seed=3, n_families=10)
    annotator, _ = train_bundle(earlier.records, params)
    assert annotator.policy.precedence[0] is PredictionSource.ALIGNMENT
    exact = 0
    for rec in earlier.records:
        pred = annotator.annotate_one(rec.id, rec.seq)
        ok = (pred.source is PredictionSource.ALIGNMENT
              and pred.is_enzyme == rec.is_enzyme
              and {ec for ec, _ in pred.ranked_ecs} == set(rec.ecs))
        exact += ok
    assert exact == len(earlier.records)


# --------------------------------------------------------------------------
# 8. Dataset pipeline: hand-counted dedup/exclusion, no train/test leakage.


def test_dataset_pipeline_hand_counted_and_leakage_free(tmp_path):
    d = dt.date
    earlier_raw = [
        _record("P1", "SEQAAAA", "1.1.1.1", d(2010, 1, 1)),
        _record("P2", "SEQAAAA", "1.1.1.1", d(2011, 1, 1)),  # duplicate sequence
        _record("P3", "SEQBBBB", "5.5.5.5", d(2011, 6, 1)),  # id with two sequences:
        _record("P3", "SEQCCCC", "5.5.5.5", d(2012, 6, 1)),  # both rows dropped
        _record("P4", "SEQDDDD", "", d(2012, 1, 1)),
        _record("P5", "SEQEEEE", "2.2.2.2;3.3.3.3", d(2013, 1, 1)),
        _record("P6", "SEQFFFF", "1.1.1.2", d(2014, 1, 1)),
    ]
    later_raw = [
        _record("P4", "SEQDDDD", "", d(2012, 1, 1)),
        _record("P5", "SEQEEEE", "2.2.2.2;3.3.3.3", d(2013, 1, 1)),
        _record("P6", "SEQFFFF", "1.1.1.2", d(2014, 1, 1)),
        _record("N1", "SEQGGGG", "4.4.4.4", d(2019, 1, 1)),
        _record("N2", "SEQAAAA", "1.1.1.1", d(2019, 6, 1)),  # sequence already trained on
        _record("N3", "SEQHHHH", "", d(2019, 9, 1)),
    ]
    # round-trip the fixture through the flat-file layer
    earlier_path, later_path = tmp_path / "earlier.tsv", tmp_path / "later.tsv"
    write_flatfile(earlier_raw, earlier_path)
    write_flatfile(later_raw, later_path)
    earlier_parsed, rejects_e = parse_flatfile(earlier_path)
    later_parsed, rejects_l = parse_flatfile(later_path)
    assert rejects_e == [] and rejects_l == []
    assert earlier_parsed == earlier_raw and later_parsed == later_raw

    earlier_clean = preprocess(earlier_parsed)
    report = earlier_clean.report
    assert report.raw_count == 7
    assert report.clean_count == 4
    assert report.removed_changed_sequence == 2
    assert report.removed_duplicate == 1
    assert [r.id for r in earlier_clean.records] == ["P1", "P4", "P5", "P6"]

    later_clean = preprocess(later_parsed)
    assert later_clean.report.clean_count == 6

    earlier_snap = Snapshot("earlier", d(2015, 1, 1), earlier_clean.records)
    later_snap = Snapshot("later", d(2020, 1, 1), later_clean.records)

    enzyme_split = chronological_split(earlier_snap, later_snap, Task.ENZYME)
    assert [r.id for r in enzyme_split.train] == ["P1", "P4", "P5", "P6"]
    assert [r.id for r in enzyme_split.test] == ["N1", "N3"]  # N2 excluded: shared sequence

    for task in (Task.ENZYME, Task.FUNCTION_COUNT, Task.EC_NUMBER):
        split = chronological_split(earlier_snap, later_snap, task)
        split.assert_no_leakage()
        assert not ({r.seq for r in split.train} & {r.seq for r in split.test})
        if task is not Task.ENZYME:
            assert [r.id for r in split.train] == ["P1", "P5", "P6"]
            assert [r.id for r in split.test] == ["N1"]
            assert all(r.is_enzyme for r in split.train + split.test)

    partition = function_count_partition(earlier_snap.enzymes)
    assert partition == {1: 2, 2: 1}
    assert sum(partition.values()) == len(earlier_snap.enzymes)

    archived = {1: 210788, 2: 9943, 3: 993, 4: 525, 5: 206, 6: 80, 7: 27, 8: 5}
    assert sum(archived.values()) == 222567


# --------------------------------------------------------------------------
# 9. Alignment: exact duplicates transfer labels; banded == full inside band.


def test_alignment_duplicate_transfer_and_band_exactness():
    records = [
        _record("R1", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ", "1.2.3.4;5.6.7.8"),
        _record("R2", "MSHHWGYGKHNGPEHWHKDFPIAKGERQSPVDI"),
        _record("R3", "GATTACAGATTACAGATTACAWYWYWY", "2.7.1.1"),
    ]
    index = KmerIndex.build(records)
    for rec in records:
        hits = index.align_all(rec.seq)
        assert hits
        hit = hits[0]
        assert hit.id == rec.id
        assert hit.identity == 1.0
        assert hit.labels == rec.ecs

    rng = random.Random(5)
    checked = 0
    while checked < 100:
        n = rng.randint(40, 300)
        a = "".join(rng.choice(AMINO) for _ in range(n))
        chars = list(a)
        for _ in range(rng.randint(1, max(2, n // 12))):  # point substitutions
            chars[rng.randrange(len(chars))] = rng.choice(AMINO)
        for _ in range(rng.randint(0, 3)):  # short indels, drift well inside the band
            pos = rng.randrange(len(chars))
            if rng.random() < 0.5 and len(chars) > 10:
                del chars[pos : pos + rng.randint(1, 3)]
            else:
                chars[pos:pos] = [rng.choice(AMINO) for _ in range(rng.randint(1, 3))]
        b = "".join(chars)
        if len(b) > 300:
            continue
        banded = banded_local_align(a, b)
        full = full_local_align(a, b)
        assert (banded.score, banded.matches, banded.columns) == (
            full.score, full.matches, full.columns,
        )
        checked += 1


# --------------------------------------------------------------------------
# 10. End-to-end workflow: reproducible CLI chain, byte-identical service
#     results, 16-way concurrency, crash recovery.


def test_end_to_end_workflow_service_parity_and_recovery(tmp_path):
    fast_flags = [
        "--max-len", "192",
        "--gbdt-rounds", "20", "--gbdt-depth", "3", "--gbdt-min-child", "0.5",
        "--svm-max-iter", "300", "--negative-budget", "60", "--shortlist", "60",
    ]
    earlier_raw, later_raw = make_demo_records(seed=3, n_families=14)
    write_flatfile(earlier_raw, tmp_path / "earlier.tsv")
    write_flatfile(later_raw, tmp_path / "later.tsv")

    def run_chain(root):
        prep, emb, tr = root / "prep", root / "embed", root / "train"
        assert main([
            "prepare-dataset", "--earlier", str(tmp_path / "earlier.tsv"),
            "--later", str(tmp_path / "later.tsv"),
            "--earlier-date", "2018-01-01", "--later-date", "2020-06-01",
            "--out", str(prep),
        ]) == EXIT_OK
        train_file = prep / "enzyme-or-not.train.tsv"
        assert main([
            "embed", "--records", str(train_file), "--max-len", "192",
            "--out", str(emb),
        ]) == EXIT_OK
        assert main([
            "train", "--train", str(train_file),
            "--table", str(emb / "embeddings.bin"),
            "--out", str(tr), *fast_flags,
        ]) == EXIT_OK
        records, _ = parse_flatfile(train_file)
        fasta = root / "queries.fasta"
        fasta.write_text("".join(f">{r.id}\n{r.seq}\n" for r in records),
                         encoding="utf-8")
        out_tsv = root / "predictions.tsv"
        assert main([
            "predict", "--bundle", str(tr / "bundle"), "--fasta", str(fasta),
            "--out", str(out_tsv),
        ]) == EXIT_OK
        assert main([
            "evaluate", "--task", "enzyme-or-not", "--pred", str(out_tsv),
            "--gold", str(train_file), "--min-f1", "0.999",
        ]) == EXIT_OK
        return prep, tr / "bundle", fasta, out_tsv

    started = time.monotonic()
    prep1, bundle1, fasta, out1 = run_chain(tmp_path / "run1")
    assert time.monotonic() - started < 60.0

    prep2, bundle2, _, out2 = run_chain(tmp_path / "run2")
    assert out1.read_bytes() == out2.read_bytes()
    assert (bundle1 / "manifest.json").read_bytes() == (bundle2 / "manifest.json").read_bytes()
    assert (prep1 / "report.json").read_bytes() == (prep2 / "report.json").read_bytes()
    for name in ("enzyme-or-not", "function-count", "ec-number"):
        for part in ("train", "test"):
            assert ((prep1 / f"{name}.{part}.tsv").read_bytes()
                    == (prep2 / f"{name}.{part}.tsv").read_bytes())

    # same bundle behind the HTTP service: result bytes must match the CLI
    from ecann.bundle import Annotator

    annotator = Annotator.load(bundle1)
    store_dir = tmp_path / "store"
    service = AnnotationService(annotator, JobStore(store_dir), workers=4)
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://{server.server_address[0]}:{server.server_address[1]}"

    def post(body):
        req = urllib.request.Request(base + "/jobs", data=body, method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 202
            return json.loads(resp.read())["job_id"]

    def wait_done(job_id, deadline=60.0):
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            with urllib.request.urlopen(base + f"/jobs/{job_id}", timeout=10) as resp:
                state = json.loads(resp.read())["state"]
            if state in (DONE, FAILED):
                return state
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} never finished")

    fasta_bytes = fasta.read_bytes()
    job_id = post(fasta_bytes)
    assert wait_done(job_id) == DONE
    with urllib.request.urlopen(base + f"/jobs/{job_id}/result", timeout=10) as resp:
        assert resp.read() == out1.read_bytes()

    # 16 concurrent submissions all reach Done with distinct ids
    ids, errors = [], []
    lock = threading.Lock()

    def submit():
        try:
            jid = post(fasta_bytes)
            with lock:
                ids.append(jid)
        except Exception as exc:  # pragma: no cover - failure reporting
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=submit) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(set(ids)) == 16
    assert all(wait_done(jid) == DONE for jid in ids)

    server.shutdown()
    service.shutdown()

    # crash recovery: interrupted work fails cleanly, queued work resumes,
    # finished results survive the restart
    crashed_store = JobStore(store_dir)
    interrupted = crashed_store.create(fasta_bytes)
    crashed_store.transition(interrupted.job_id, RUNNING)
    queued = crashed_store.create(fasta_bytes)
    assert queued.state == PENDING

    reborn = AnnotationService(annotator, JobStore(store_dir), workers=2)
    try:
        reborn.recover()
        assert reborn.store.get(interrupted.job_id).state == FAILED
        assert "restarted" in reborn.store.get(interrupted.job_id).error
        end = time.monotonic() + 60.0
        while time.monotonic() < end:
            if reborn.store.get(queued.job_id).state == DONE:
                break
            time.sleep(0.02)
        assert reborn.store.get(queued.job_id).state == DONE
        assert reborn.result(job_id) == out1.read_bytes()
    finally:
        reborn.shutdown()
