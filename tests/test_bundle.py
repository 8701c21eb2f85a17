"""Bundle round-trip, integrity, and self-annotation tests."""

import dataclasses
import json
import shutil
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ecann.agents import (
    CountModelParams,
    EcRanker,
    EcRankerParams,
    EnzymeGate,
    EnzymeGateParams,
    FunctionCountModel,
    RankingMode,
)
from ecann.alignment import AlignmentParams, KmerIndex
from ecann.ann import AnnParams
from ecann.bundle import (
    ARTIFACT_FILES,
    Annotator,
    BundleError,
    BundleParams,
    MANIFEST_FILE,
    annotate_to_tsv,
    train_bundle,
)
from ecann.core import PredictionSource, format_ec
from ecann.demo import make_demo_snapshots
from ecann.embedding import EmbeddingTable, one_hot_table
from ecann.gbdt import GbdtParams
from ecann.integrate import IntegrationPolicy, PolicyGrid, integrate

_FAST_GBDT = GbdtParams(n_estimators=20, max_depth=3, min_child_weight=0.5,
                        subsample=1.0)

TEST_PARAMS = BundleParams(
    max_len=192,
    gate=EnzymeGateParams(),
    counts=CountModelParams(sp=_FAST_GBDT, mp=_FAST_GBDT),
    ranker=EcRankerParams(
        ann=AnnParams(m=12, ef_construction=80, ef_search=80),
        negative_budget=60, shortlist_size=60, svm_max_iter=300,
    ),
)


def _best_hit(annotator, seq):
    """The top raw hit of the bundle's aligner, before the policy's identity gate."""
    hits = annotator._stack.aligner.align_all(seq)
    return hits[0] if hits else None


@pytest.fixture(scope="module")
def corpus():
    earlier, _ = make_demo_snapshots(seed=3, n_families=20)
    return earlier.records


@pytest.fixture(scope="module")
def annotator(corpus):
    built, tune_result = train_bundle(corpus, TEST_PARAMS)
    assert tune_result is None
    return built


@pytest.fixture(scope="module")
def saved_dir(annotator, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bundle") / "model"
    annotator.save(directory)
    return directory


class TestSelfAnnotation:
    def test_training_queries_come_back_exactly(self, annotator, corpus):
        """Every training record aligns to itself at identity 1.0, and the
        default policy puts alignment first, so the self-test is exact."""
        preds = annotator.annotate([(f"q-{rec.id}", rec.seq) for rec in corpus])
        by_id = {p.id: p for p in preds}
        for rec in corpus:
            pred = by_id[f"q-{rec.id}"]
            assert pred.source is PredictionSource.ALIGNMENT
            assert pred.is_enzyme == rec.is_enzyme
            assert pred.ec_set == {format_ec(ec) for ec in rec.ecs}
            assert all(score == 1.0 for _, score in pred.ranked_ecs)

    def test_agents_route_answers_when_alignment_is_off(self, annotator, corpus):
        agents_only = Annotator(
            annotator.records, annotator.table, annotator._stack,
            IntegrationPolicy(precedence=(PredictionSource.AGENTS,)),
            annotator.params,
        )
        pred = agents_only.annotate_one("q", corpus[0].seq)
        assert pred.source is PredictionSource.AGENTS
        assert pred.is_enzyme is not None

    def test_recommendation_mode_widens_the_ranking(self, annotator, corpus):
        enzyme = next(rec for rec in corpus if rec.is_enzyme)
        agents_only = Annotator(
            annotator.records, annotator.table, annotator._stack,
            IntegrationPolicy(precedence=(PredictionSource.AGENTS,)),
            annotator.params,
        )
        narrow = agents_only.annotate_one("q", enzyme.seq)
        wide = agents_only.annotate_one("q", enzyme.seq,
                                        mode=RankingMode.RECOMMENDATION)
        if narrow.is_enzyme:
            assert len(wide.ranked_ecs) >= len(narrow.ranked_ecs)

    def test_duplicate_query_ids_rejected(self, annotator, corpus):
        seq = corpus[0].seq
        with pytest.raises(BundleError, match="duplicate"):
            annotator.annotate([("q", seq), ("q", seq)])

    def test_empty_inputs_rejected(self, annotator):
        with pytest.raises(BundleError, match="non-empty"):
            annotator.annotate_one("", "ACDEF")
        with pytest.raises(BundleError, match="non-empty"):
            annotator.annotate_one("q", "")

    def test_vector_shape_must_match_the_table(self, annotator, corpus):
        with pytest.raises(BundleError, match="shape"):
            annotator.annotate_one("q", corpus[0].seq, vector=np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_fails_on_either_route(self, annotator, corpus, bad):
        vector = np.full(annotator.table.dim, bad)
        aligned, novel = corpus[0].seq, "MKV"  # novel: shorter than k, so no hit
        assert _best_hit(annotator, aligned) is not None and _best_hit(annotator, novel) is None
        for seq in (aligned, novel):
            with pytest.raises(BundleError, match="'q': supplied vector has non-finite"):
                annotator.annotate_one("q", seq, vector=vector)

    def test_non_finite_vector_fails_its_row(self, annotator, corpus):
        matrix = np.zeros((2, annotator.table.dim))
        table = EmbeddingTable.from_rows(annotator.table.tag, ("a", "b"), matrix)
        matrix[1, 0] = np.nan  # the table adopted the matrix, so this reaches its row
        tsv, failed = annotate_to_tsv(annotator, [("a", corpus[0].seq), ("b", corpus[0].seq)],
                                      vectors=table)
        assert failed == 1
        assert tsv.splitlines()[2] == (
            "b\t\t\t\t\terror: query 'b': supplied vector has non-finite values"
        )


def _with_policy(annotator, **policy):
    return Annotator(annotator.records, annotator.table, annotator._stack,
                     IntegrationPolicy(**policy), annotator.params)


def _refuse(*_args, **_kwargs):
    raise AssertionError("a route that does not answer was computed")


class TestRouteLazyAnnotation:
    """annotate_one computes only the route that answers, with eager results."""

    def _eager(self, annotator, query_id, seq, mode=RankingMode.PREDICTION):
        outputs = annotator.agent_outputs(annotator.embed(seq))
        return integrate(query_id, outputs, _best_hit(annotator, seq), annotator.policy, mode)

    def test_alignment_hit_skips_the_agents(self, annotator, corpus, monkeypatch):
        seq = corpus[0].seq
        eager = self._eager(annotator, "q", seq)
        assert eager.source is PredictionSource.ALIGNMENT
        for owner, name in ((EnzymeGate, "predict"), (FunctionCountModel, "predict"),
                            (EcRanker, "rank")):
            monkeypatch.setattr(owner, name, _refuse)
        assert annotator.annotate_one("q", seq) == eager

    def test_agents_first_never_aligns(self, annotator, corpus, monkeypatch):
        agents_first = _with_policy(
            annotator, precedence=(PredictionSource.AGENTS, PredictionSource.ALIGNMENT))
        seq = corpus[0].seq
        for mode in RankingMode:
            eager = self._eager(agents_first, "q", seq, mode)
            with monkeypatch.context() as patch:
                patch.setattr(KmerIndex, "align_all", _refuse)
                patch.setattr(KmerIndex, "align_many", _refuse)
                assert agents_first.annotate_one("q", seq, mode) == eager

    def test_alignment_only_miss_abstains_without_the_agents(self, annotator, monkeypatch):
        alignment_only = _with_policy(annotator, precedence=(PredictionSource.ALIGNMENT,))
        seq = "MKV"  # shorter than k: no candidates, no hit
        eager = self._eager(alignment_only, "q", seq)
        assert eager.is_enzyme is None
        monkeypatch.setattr(EnzymeGate, "predict", _refuse)
        assert alignment_only.annotate_one("q", seq) == eager

    def test_missing_vector_fails_the_row_alignment_would_answer(self, corpus):
        rng = np.random.default_rng(1)
        table = EmbeddingTable(
            tag="external-test", dim=8,
            vectors={rec.id: rng.normal(size=8) for rec in corpus},
        )
        built, _ = train_bundle(corpus, TEST_PARAMS, table=table)
        rec = corpus[0]
        assert _best_hit(built, rec.seq).identity == 1.0
        no_vectors = EmbeddingTable(tag="external-test", dim=8, vectors={})
        tsv, failed = annotate_to_tsv(built, [("q", rec.seq)], vectors=no_vectors)
        assert failed == 1
        assert tsv.splitlines()[1] == (
            "q\t\t\t\t\terror: bundle embeds with 'external-test'; "
            "query vectors must be supplied"
        )

    def test_tuning_inputs_still_run_both_routes(self, annotator, corpus):
        for precedence in ((PredictionSource.AGENTS,), (PredictionSource.ALIGNMENT,)):
            probe = _with_policy(annotator, precedence=precedence)
            outputs, hits = probe.tuning_inputs(corpus, None)
            assert set(outputs) == set(hits) == {rec.id for rec in corpus}
            assert all(hit is not None and hit.identity == 1.0 for hit in hits.values())
            assert all(out is not None for out in outputs.values())


def _tsv_rows(tsv):
    return tsv.splitlines()[1:]


class TestBatchAnnotation:
    """A batch shares one alignment call; each row still answers alone."""

    def _queries(self, corpus):
        rng = np.random.default_rng(5)
        novel = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=90))
        return [(f"q-{rec.id}", rec.seq) for rec in corpus[:8]] + [("novel", novel)]

    def test_bad_rows_fail_alone_and_the_rest_match_one_query_calls(self, annotator, corpus):
        queries = self._queries(corpus)
        matrix = np.zeros((1, annotator.table.dim))
        table = EmbeddingTable.from_rows(annotator.table.tag, ("nan",), matrix)
        matrix[0, 3] = np.nan  # the table adopted the matrix, so this reaches its row
        batch = queries[:3] + [("empty", ""), ("nan", corpus[0].seq)] + queries[3:5] + [
            ("odd", "ACDE#FGH")] + queries[5:]
        tsv, failed = annotate_to_tsv(annotator, batch, vectors=table)
        rows = dict(zip([query_id for query_id, _ in batch], _tsv_rows(tsv)))
        assert failed == 3
        assert rows.pop("empty") == "empty\t\t\t\t\terror: query 'empty': sequence must be non-empty"
        assert rows.pop("nan") == "nan\t\t\t\t\terror: query 'nan': supplied vector has non-finite values"
        assert rows.pop("odd") == "odd\t\t\t\t\terror: character '#' outside the sequence alphabet"
        for query_id, seq in queries:
            one, n_failed = annotate_to_tsv(annotator, [(query_id, seq)])
            assert n_failed == 0 and _tsv_rows(one) == [rows.pop(query_id)]
        assert not rows

    def test_a_wrongly_shaped_vector_fails_only_its_row(self, annotator, corpus):
        queries = self._queries(corpus)
        vectors = [None] * len(queries)
        vectors[4] = np.zeros(7)
        preds = annotator._predict(queries, RankingMode.PREDICTION, vectors)
        assert isinstance(preds[4], BundleError) and "shape (7,)" in str(preds[4])
        for k, (query_id, seq) in enumerate(queries):
            if k != 4:
                assert preds[k] == annotator.annotate_one(query_id, seq)

    def test_annotate_raises_on_the_first_bad_row(self, annotator, corpus):
        seq = corpus[0].seq
        with pytest.raises(BundleError, match="^query id must be non-empty$"):
            annotator.annotate([("a", seq), ("", seq), ("b", "")])
        with pytest.raises(BundleError, match="^query 'b': sequence must be non-empty$"):
            annotator.annotate([("a", seq), ("b", ""), ("", seq)])

    def test_an_alignment_failure_fails_only_its_row(self, annotator, corpus, monkeypatch):
        import ecann.alignment as alignment

        # at these scores a pair's cells must stay under 4,096 to fit int32
        coarse = AlignmentParams(match=1 << 16, mismatch=-(1 << 16), gap_open=1 << 16,
                                 gap_extend=1)
        stack = dataclasses.replace(annotator._stack, aligner=KmerIndex.build(corpus, coarse))
        built = Annotator(annotator.records, annotator.table, stack, annotator.policy,
                          annotator.params)
        queries = self._queries(corpus)
        long_query = ("long", corpus[1].seq * 12)
        # a supplied vector, so a non-ASCII query reaches the aligner instead of the embedder
        accented = ("accented", corpus[2].seq[:30] + "\xe9" + corpus[2].seq[30:])
        vectors = EmbeddingTable.from_rows(
            annotator.table.tag, ["accented"], annotator.table.matrix([corpus[2].id]))
        calls = []
        align_pairs = alignment._align_pairs
        monkeypatch.setattr(alignment, "_align_pairs",
                            lambda pairs, params: calls.append(len(pairs)) or align_pairs(pairs, params))
        tsv, failed = annotate_to_tsv(
            built, queries[:2] + [long_query] + queries[2:4] + [accented] + queries[4:], vectors=vectors)
        assert len(calls) == 1
        rows = _tsv_rows(tsv)
        assert failed == 2
        assert rows.pop(5) == ("accented\t\t\t\t\terror: 'ascii' codec can't encode "
                               "character '\\xe9' in position 30: ordinal not in range(128)")
        assert "exceeds the int32 band limit" in rows.pop(2)
        for (query_id, seq), row in zip(queries, rows):
            one, n_failed = annotate_to_tsv(built, [(query_id, seq)])
            assert n_failed == 0 and _tsv_rows(one) == [row]

    def test_threads_sharing_one_annotator_agree(self, annotator, corpus):
        queries = [(f"q{k}-{rec.id}", rec.seq) for k in range(2) for rec in corpus]
        want = annotate_to_tsv(annotator, queries)
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(lambda _: annotate_to_tsv(annotator, queries), range(6)))
        assert all(tsv == want for tsv in got)


class TestPersistence:
    def test_round_trip_preserves_predictions(self, annotator, saved_dir, corpus):
        again = Annotator.load(saved_dir)
        assert again.policy == annotator.policy
        assert again.params == annotator.params
        queries = [(f"q-{rec.id}", rec.seq) for rec in corpus[:10]]
        assert again.annotate(queries) == annotator.annotate(queries)

    def test_ranker_index_reads_the_bundle_table(self, saved_dir):
        again = Annotator.load(saved_dir)
        index = again._stack.ranker.index
        assert np.shares_memory(index._vector(0), again.table.matrix())
        for node, point_id in enumerate(index.ids):
            assert np.array_equal(index._vector(node), again.table.get(point_id.rsplit("|", 1)[0]))

    def test_version_2_bundle_is_refused(self, saved_dir, tmp_path):
        target = tmp_path / "v2"
        target.mkdir()
        manifest = json.loads((saved_dir / MANIFEST_FILE).read_text())
        (target / MANIFEST_FILE).write_text(json.dumps(dict(manifest, version=2)))
        with pytest.raises(BundleError, match="unrecognized bundle format"):
            Annotator.load(target)

    @pytest.mark.parametrize("version", [3, 4, 5])
    def test_older_bundle_version_is_refused(self, saved_dir, tmp_path, version):
        # version 3 stored a one-hot table as float64 rows and each ranker point's
        # label; version 4 stored the labels, ranker points and parameters twice;
        # version 5 stored the gate's graph-index settings and an ANN metric
        target = tmp_path / f"v{version}"
        target.mkdir()
        manifest = json.loads((saved_dir / MANIFEST_FILE).read_text())
        assert manifest["version"] == 6
        (target / MANIFEST_FILE).write_text(json.dumps(dict(manifest, version=version)))
        with pytest.raises(BundleError, match="unrecognized bundle format"):
            Annotator.load(target)

    def test_one_hot_table_is_stored_as_one_byte_per_position(self, saved_dir, corpus):
        size = (saved_dir / "embeddings.bin").stat().st_size
        assert size <= len(corpus) * TEST_PARAMS.max_len + 4096
        again = Annotator.load(saved_dir)
        assert again.table.matrix().tobytes() == one_hot_table(corpus, TEST_PARAMS.max_len).matrix().tobytes()

    def test_resave_is_byte_identical(self, saved_dir, tmp_path):
        again = Annotator.load(saved_dir)
        other = tmp_path / "resaved"
        again.save(other)
        for name in ARTIFACT_FILES + (MANIFEST_FILE,):
            assert (other / name).read_bytes() == (saved_dir / name).read_bytes(), name

    def test_manifest_has_exactly_the_declared_fields(self, saved_dir):
        # no timestamp or host fields: rebuilds must be byte-identical
        manifest = json.loads((saved_dir / MANIFEST_FILE).read_text())
        assert set(manifest) == {"format", "version", "policy", "params", "artifacts"}
        assert set(manifest["artifacts"]) == set(ARTIFACT_FILES)

    def test_bundle_directory_holds_exactly_the_artifacts(self, saved_dir):
        assert sorted(p.name for p in saved_dir.iterdir()) == sorted(ARTIFACT_FILES + (MANIFEST_FILE,))

    def test_tampered_artifact_is_detected(self, annotator, tmp_path):
        target = tmp_path / "tampered"
        annotator.save(target)
        path = target / "counts.json"
        path.write_bytes(path.read_bytes() + b" ")
        with pytest.raises(BundleError, match="corrupt"):
            Annotator.load(target)

    def test_missing_artifact_is_detected(self, annotator, tmp_path):
        target = tmp_path / "incomplete"
        annotator.save(target)
        (target / "ranker_index.bin").unlink()
        with pytest.raises(BundleError, match="missing"):
            Annotator.load(target)

    def test_unrecognized_manifest_rejected(self, tmp_path):
        target = tmp_path / "foreign"
        target.mkdir()
        (target / MANIFEST_FILE).write_text('{"format": "other", "version": 9}')
        with pytest.raises(BundleError, match="format"):
            Annotator.load(target)
        (target / MANIFEST_FILE).write_text('["ec-annotation-bundle", 2]')
        with pytest.raises(BundleError, match="unrecognized bundle format"):
            Annotator.load(target)

    def test_manifest_must_list_every_artifact_and_key(self, annotator, tmp_path):
        target = tmp_path / "unlisted"
        annotator.save(target)
        manifest = json.loads((target / MANIFEST_FILE).read_text())
        del manifest["artifacts"]["embeddings.bin"]
        (target / MANIFEST_FILE).write_text(json.dumps(manifest))
        blob = bytearray((target / "embeddings.bin").read_bytes())
        blob[-1] ^= 0x01  # a residue code: the table itself would still load
        (target / "embeddings.bin").write_bytes(bytes(blob))
        with pytest.raises(BundleError, match="exactly the artifacts"):
            Annotator.load(target)
        del manifest["params"]
        (target / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match=r"lacks \['params'\]"):
            Annotator.load(target)

    @pytest.mark.parametrize("damage", [
        lambda m: m["params"]["gate"].update(exact_scan_limit=50_000),
        lambda m: m.update(params=list(m["params"].values())),
        lambda m: m["params"].pop("gate"),
        lambda m: m["policy"].update(precedence=["alignment", "oracle"]),
        None,  # not JSON at all
    ], ids=["unknown-gate-key", "params-as-list", "missing-gate", "unknown-route", "invalid-json"])
    def test_damaged_manifest_is_a_bundle_error(self, saved_dir, tmp_path, damage):
        # the artifact digests do not cover the manifest, so its own damage is checked
        target = tmp_path / "damaged"
        shutil.copytree(saved_dir, target)
        manifest = json.loads((target / MANIFEST_FILE).read_text())
        if damage is None:
            text = json.dumps(manifest)[:-1]
        else:
            damage(manifest)
            text = json.dumps(manifest)
        (target / MANIFEST_FILE).write_text(text)
        with pytest.raises(BundleError, match=MANIFEST_FILE):
            Annotator.load(target)

    def test_loading_a_non_bundle_directory_fails(self, tmp_path):
        with pytest.raises(BundleError, match="manifest"):
            Annotator.load(tmp_path)


class TestTraining:
    def test_no_enzymes_is_an_error(self, corpus):
        non_enzymes = [rec for rec in corpus if not rec.is_enzyme]
        with pytest.raises(BundleError, match="no enzymes"):
            train_bundle(non_enzymes, TEST_PARAMS)

    def test_zero_records_is_an_error(self):
        with pytest.raises(BundleError, match="zero records"):
            train_bundle([], TEST_PARAMS)

    def test_policy_and_grid_are_mutually_exclusive(self, corpus):
        with pytest.raises(BundleError, match="not both"):
            train_bundle(corpus, TEST_PARAMS,
                         policy=IntegrationPolicy(), tune_grid=PolicyGrid())

    def test_tuning_returns_a_grid_policy_and_scoreboard(self, corpus):
        grid = PolicyGrid(identities=(0.4, 0.9), thresholds=(0.5,),
                          precedences=(
                              (PredictionSource.ALIGNMENT, PredictionSource.AGENTS),
                              (PredictionSource.ALIGNMENT,),
                              (PredictionSource.AGENTS,),
                          ))
        built, tune_result = train_bundle(corpus, TEST_PARAMS, tune_grid=grid)
        assert tune_result is not None
        assert len(tune_result.scoreboard) == len(grid.policies())
        assert built.policy == tune_result.policy
        singles = {
            precedence: max(
                score for policy, score in tune_result.scoreboard
                if policy.precedence == precedence
            )
            for precedence in ((PredictionSource.ALIGNMENT,),
                               (PredictionSource.AGENTS,))
        }
        assert tune_result.objective >= max(singles.values())

    def test_external_table_tag_requires_explicit_vectors(self, corpus):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(
            tag="external-test", dim=8,
            vectors={rec.id: rng.normal(size=8) for rec in corpus},
        )
        built, _ = train_bundle(corpus, TEST_PARAMS, table=table)
        with pytest.raises(BundleError, match="vectors must be supplied"):
            built.annotate_one("q", corpus[0].seq)
        pred = built.annotate_one("q", corpus[0].seq,
                                  vector=table.get(corpus[0].id))
        assert pred.id == "q"
