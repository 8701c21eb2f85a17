"""Agent tests: KNN gate semantics, two-stage counts, shortlisted ranking."""

import datetime as dt

import numpy as np
import pytest

from ecann.agents import (
    AgentError,
    CountModelParams,
    EcRanker,
    EcRankerParams,
    EnzymeGate,
    EnzymeGateParams,
    FunctionCountModel,
    MAX_RECOMMENDATIONS,
)
from ecann.ann import AnnFormatError, AnnIndex, AnnParams, brute_force_knn
from ecann.core import (
    LabelDictionary,
    ProteinRecord,
    build_label_dictionary,
    format_ec,
    parse_ec,
    parse_ec_list,
    read_container,
    write_container,
)
from ecann.embedding import EmbeddingTable
from ecann.gbdt import GbdtParams
from ecann.linear import decision

DAY = dt.date(2015, 6, 1)


def _rec(rid, ecs="", is_enzyme=None, seq="ACDEFGHIK"):
    if is_enzyme is None:
        is_enzyme = bool(ecs)
    return ProteinRecord(
        id=rid, name=f"protein {rid}", seq=seq, is_enzyme=is_enzyme,
        ecs=parse_ec_list(ecs), date_integrated=DAY, date_sequence_update=DAY,
    )


def _table(vectors: dict[str, np.ndarray], tag="unit-test") -> EmbeddingTable:
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(
        tag=tag, dim=dim,
        vectors={k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()},
    )


_FAST_GBDT = GbdtParams(n_estimators=25, max_depth=3, min_child_weight=0.5,
                        subsample=1.0)
_FAST_COUNTS = CountModelParams(sp=_FAST_GBDT, mp=_FAST_GBDT)


def _blob_gate(seed=0, n_per=30, dim=4):
    rng = np.random.default_rng(seed)
    vectors, records = {}, []
    for i in range(n_per):
        vectors[f"E{i}"] = rng.normal(size=dim) * 0.3 + 5.0
        records.append(_rec(f"E{i}", "1.1.1.1"))
        vectors[f"N{i}"] = rng.normal(size=dim) * 0.3 - 5.0
        records.append(_rec(f"N{i}", "", is_enzyme=False))
    return records, _table(vectors), rng


class TestEnzymeGate:
    def test_separated_blobs_classify_perfectly(self):
        records, table, rng = _blob_gate()
        gate = EnzymeGate.train(records, table)
        assert not gate.uses_index
        for _ in range(40):
            is_enzyme, conf = gate.predict(rng.normal(size=4) * 0.3 + 5.0)
            assert is_enzyme and conf > 0.5
            is_enzyme, conf = gate.predict(rng.normal(size=4) * 0.3 - 5.0)
            assert not is_enzyme and conf > 0.5

    def test_exact_match_dominates(self):
        records, table, _ = _blob_gate()
        gate = EnzymeGate.train(records, table)
        assert gate.predict(table.get("E3")) == (True, 1.0)
        assert gate.predict(table.get("N7")) == (False, 1.0)

    def test_equidistant_tie_goes_to_non_enzyme(self):
        table = _table({"E": [1.0, 0.0], "N": [-1.0, 0.0]})
        records = [_rec("E", "1.1.1.1"), _rec("N", "", is_enzyme=False)]
        gate = EnzymeGate.train(records, table, EnzymeGateParams(n_neighbors=2))
        is_enzyme, conf = gate.predict(np.zeros(2))
        assert is_enzyme is False
        assert conf == pytest.approx(0.5)

    def test_single_point_training_set(self):
        table = _table({"E": [2.0, 2.0]})
        gate = EnzymeGate.train([_rec("E", "1.1.1.1")], table)
        is_enzyme, conf = gate.predict(np.array([-9.0, 4.0]))
        assert is_enzyme is True and conf == 1.0

    def test_ann_path_matches_brute_force_vote(self):
        records, table, rng = _blob_gate(seed=1, n_per=300, dim=8)
        indexed = EnzymeGate.train(
            records, table,
            EnzymeGateParams(exact_scan_limit=0, ann=AnnParams(m=12, seed=0)),
        )
        assert indexed.uses_index
        labels = {rec.id: rec.is_enzyme for rec in records}
        for _ in range(500):
            q = rng.normal(size=8) * 4.0
            got_label, got_conf = indexed.predict(q)
            # independent oracle: exact neighbours + the documented vote rule
            found = brute_force_knn(table, q, 5)
            weights = {False: 0.0, True: 0.0}
            for rec_id, dist in found:
                weights[labels[rec_id]] += 1.0 / dist
            want = weights[True] > weights[False]
            assert got_label == want
            assert got_conf == pytest.approx(
                max(weights.values()) / sum(weights.values())
            )

    def test_common_scaling_leaves_the_label_unchanged(self):
        records, table, rng = _blob_gate(seed=2)
        gate = EnzymeGate.train(records, table)
        scaled_table = _table({k: table.get(k) * 3.7 for k in table.ids()})
        scaled = EnzymeGate.train(records, scaled_table)
        for _ in range(25):
            q = rng.normal(size=4) * 3.0
            base_label, base_conf = gate.predict(q)
            s_label, s_conf = scaled.predict(q * 3.7)
            assert s_label == base_label
            assert s_conf == pytest.approx(base_conf)

    def test_coverage_gap_is_an_error(self):
        table = _table({"E": [1.0, 0.0]})
        records = [_rec("E", "1.1.1.1"), _rec("MISSING", "1.1.1.2")]
        with pytest.raises(AgentError, match="MISSING"):
            EnzymeGate.train(records, table)

    def test_param_validation(self):
        with pytest.raises(AgentError):
            EnzymeGateParams(n_neighbors=0)


def _count_corpus(counts, n_per=40, seed=0, noise=0.05):
    """Records whose function count is encoded in coordinate 0."""
    rng = np.random.default_rng(seed)
    ec_pool = ["1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4", "5.5.5.5",
               "6.6.6.6", "7.7.7.7", "1.2.3.4"]
    vectors, records = {}, []
    serial = 0
    for count in counts:
        for _ in range(n_per):
            rid = f"C{serial}"
            serial += 1
            vectors[rid] = np.array([count + rng.normal() * noise,
                                     rng.normal(), rng.normal()])
            records.append(_rec(rid, ";".join(ec_pool[:count])))
    return records, _table(vectors), rng


class TestFunctionCountModel:
    def test_counts_recovered_from_an_informative_coordinate(self):
        records, table, rng = _count_corpus([1, 2, 3, 4, 5])
        model = FunctionCountModel.train(records, table, _FAST_COUNTS)
        hits = 0
        probes = 200
        for _ in range(probes):
            count = int(rng.integers(1, 6))
            x = np.array([count + rng.normal() * 0.05, rng.normal(), rng.normal()])
            hits += model.predict(x) == count
        assert hits / probes >= 0.95

    def test_prediction_composes_the_two_stages(self):
        records, table, rng = _count_corpus([1, 2, 3])
        model = FunctionCountModel.train(records, table, _FAST_COUNTS)
        for _ in range(200):
            x = rng.normal(size=3) * 2.0 + np.array([2.0, 0.0, 0.0])
            row = x.reshape(1, -1)
            want = 1 if model.sp.predict(row)[0] == 0 else int(model.mp.predict(row)[0]) + 2
            assert model.predict(x) == want

    def test_all_monofunctional_refuses_mp_stage(self):
        records, table, _ = _count_corpus([1])
        with pytest.raises(AgentError, match="no multifunctional rows"):
            FunctionCountModel.train(records, table, _FAST_COUNTS)

    def test_single_multi_count_trains_and_predicts_it(self):
        records, table, _ = _count_corpus([1, 3])
        model = FunctionCountModel.train(records, table, _FAST_COUNTS)
        # deep in the multifunctional region, the only trained count is 3
        assert model.predict(np.array([3.0, 0.0, 0.0])) == 3

    def test_mp_reserves_seven_count_slots(self):
        records, table, _ = _count_corpus([1, 2, 3])
        model = FunctionCountModel.train(records, table, _FAST_COUNTS)
        assert model.mp.n_classes == 7

    def test_non_enzyme_rows_rejected(self):
        table = _table({"N": [0.0, 0.0, 0.0]})
        with pytest.raises(AgentError, match="not an enzyme"):
            FunctionCountModel.train([_rec("N", "", is_enzyme=False)], table,
                                     _FAST_COUNTS)

    def test_count_above_eight_rejected_at_record_construction(self):
        ecs = ";".join(f"{i}.1.1.1" for i in range(1, 8))
        ecs += ";1.2.2.2;1.3.3.3"  # nine distinct codes
        with pytest.raises(ValueError, match="1..8"):
            _rec("X", ecs)

    def test_serialization_round_trip(self, tmp_path):
        records, table, rng = _count_corpus([1, 2, 3])
        model = FunctionCountModel.train(records, table, _FAST_COUNTS)
        path = tmp_path / "counts.json"
        model.save(path)
        again = FunctionCountModel.load(path)
        for _ in range(50):
            x = rng.normal(size=3) * 3.0
            assert model.predict(x) == again.predict(x)
        path2 = tmp_path / "again.json"
        again.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_foreign_payload_rejected(self, tmp_path):
        with pytest.raises(AgentError):
            FunctionCountModel.from_dict({"format": "other", "version": 1})
        path = tmp_path / "counts.json"
        path.write_text('["not", "a", "model"]', encoding="ascii")
        with pytest.raises(AgentError, match="JSON object"):
            FunctionCountModel.load(path)


_FAST_RANKER = EcRankerParams(
    ann=AnnParams(m=8, ef_construction=60, ef_search=60, seed=0),
    negative_budget=50, shortlist_size=30, svm_max_iter=200,
)


def _ranker_corpus(label_specs, seed=0, noise=0.2, dim=6):
    """label_specs: list of (ec_text, n_points); clusters on distinct axes."""
    rng = np.random.default_rng(seed)
    centers = {}
    vectors, records = {}, []
    serial = 0
    for axis, (ec, n_points) in enumerate(label_specs):
        center = np.zeros(dim)
        center[axis % dim] = 4.0 + axis // dim
        centers[ec] = center
        for _ in range(n_points):
            rid = f"R{serial}"
            serial += 1
            vectors[rid] = center + rng.normal(size=dim) * noise
            records.append(_rec(rid, ec))
    return records, _table(vectors), centers, rng


class TestEcRanker:
    def test_two_label_toy_classifiers_are_sign_correct(self):
        records, table, _, _ = _ranker_corpus([("1.1.1.1", 12), ("2.2.2.2", 12)])
        label_dict = build_label_dictionary(records)
        ranker = EcRanker.train(records, table, label_dict, _FAST_RANKER)
        assert set(ranker.classifiers) == {0, 1}
        for rec in records:
            vec = table.get(rec.id)
            own = label_dict.label_of(rec.ecs[0])
            for label, clf in ranker.classifiers.items():
                margin = decision(clf, vec)
                assert margin > 0 if label == own else margin < 0

    def test_negative_budget_bound_holds(self):
        records, table, _, _ = _ranker_corpus(
            [("1.1.1.1", 10), ("2.2.2.2", 10), ("3.3.3.3", 10)]
        )
        label_dict = build_label_dictionary(records)
        params = EcRankerParams(
            ann=AnnParams(m=8, ef_construction=60, ef_search=60),
            negative_budget=7, shortlist_size=10, svm_max_iter=100,
        )
        ranker = EcRanker.train(records, table, label_dict, params)
        for label, used in ranker.negatives_used.items():
            positives = sum(
                1 for lab in ranker.label_of_point.values() if lab == label
            )
            assert used <= params.negative_budget + positives

    def test_self_query_shortlist_contains_own_label(self):
        records, table, _, _ = _ranker_corpus([("1.1.1.1", 8), ("2.7.11.1", 8)])
        label_dict = build_label_dictionary(records)
        ranker = EcRanker.train(records, table, label_dict, _FAST_RANKER)
        for rec in records:
            shortlist = ranker.shortlist(table.get(rec.id))
            assert label_dict.label_of(rec.ecs[0]) in shortlist

    def test_multifunctional_records_contribute_one_point_per_ec(self):
        records = [_rec("M1", "1.1.1.1;2.2.2.2"), _rec("S1", "3.3.3.3")]
        table = _table({"M1": [1.0, 0.0], "S1": [0.0, 1.0]})
        label_dict = build_label_dictionary(records)
        ranker = EcRanker.train(records, table, label_dict, _FAST_RANKER)
        m1_points = [p for p in ranker.label_of_point if p.startswith("M1|")]
        assert sorted(m1_points) == ["M1|1.1.1.1", "M1|2.2.2.2"]
        shortlist = ranker.shortlist(np.array([1.0, 0.0]))
        assert {label_dict.label_of(parse_ec("1.1.1.1")),
                label_dict.label_of(parse_ec("2.2.2.2"))} <= set(shortlist)

    def test_a_repeated_ec_is_one_point(self):
        records = [_rec("M1", "1.1.1.1;1.1.1.1"), _rec("S1", "3.3.3.3")]
        table = _table({"M1": [1.0, 0.0], "S1": [0.0, 1.0]})
        label_dict = build_label_dictionary(records)
        ranker = EcRanker.train(records, table, label_dict, _FAST_RANKER)
        assert sorted(ranker.index.ids) == ["M1|1.1.1.1", "S1|3.3.3.3"]

    def test_recommendation_mode_caps_at_twenty_sorted(self):
        specs = [(f"{1 + i % 7}.{1 + i // 7}.1.{1 + i}", 3) for i in range(25)]
        records, table, centers, _ = _ranker_corpus(specs, dim=8)
        label_dict = build_label_dictionary(records)
        params = EcRankerParams(
            ann=AnnParams(m=8, ef_construction=80, ef_search=120),
            negative_budget=30, shortlist_size=75, svm_max_iter=60,
        )
        ranker = EcRanker.train(records, table, label_dict, params)
        ranked = ranker.rank(np.zeros(8))
        assert 0 < len(ranked) <= MAX_RECOMMENDATIONS
        keys = [(-score, format_ec(ec)) for ec, score in ranked]
        assert keys == sorted(keys)
        assert all(0.0 < score < 1.0 for _, score in ranked)

    def test_score_ties_break_on_canonical_ec_text(self):
        # identical geometry for both labels -> identical classifiers/scores
        vecs = {"A1": [1.0, 0.0], "A2": [1.1, 0.0], "B1": [1.0, 0.0], "B2": [1.1, 0.0]}
        records = [_rec("A1", "3.1.1.1"), _rec("A2", "3.1.1.1"),
                   _rec("B1", "1.1.1.1"), _rec("B2", "1.1.1.1")]
        label_dict = build_label_dictionary(records)
        ranker = EcRanker.train(records, table := _table(vecs), label_dict,
                                _FAST_RANKER)
        ranked = ranker.rank(np.array([1.05, 0.0]))
        assert [format_ec(ec) for ec, _ in ranked] == ["1.1.1.1", "3.1.1.1"]
        assert ranked[0][1] == pytest.approx(ranked[1][1])

    def test_label_without_points_is_skipped_with_warning(self, caplog):
        records, table, _, _ = _ranker_corpus([("1.1.1.1", 6), ("2.2.2.2", 6)])
        label_dict = LabelDictionary(
            [parse_ec("1.1.1.1"), parse_ec("2.2.2.2"), parse_ec("7.9.9.9")]
        )
        with caplog.at_level("WARNING", logger="ecann.agents"):
            ranker = EcRanker.train(records, table, label_dict, _FAST_RANKER)
        assert "7.9.9.9" in caplog.text
        assert label_dict.label_of(parse_ec("7.9.9.9")) not in ranker.classifiers

    def test_non_enzyme_rows_rejected(self):
        table = _table({"N": [0.0, 1.0]})
        label_dict = LabelDictionary([parse_ec("1.1.1.1")])
        with pytest.raises(AgentError, match="not an enzyme"):
            EcRanker.train([_rec("N", "", is_enzyme=False)], table, label_dict,
                           _FAST_RANKER)

    def test_save_load_round_trip(self, tmp_path):
        records, table, centers, rng = _ranker_corpus(
            [("1.1.1.1", 8), ("2.7.11.1", 8), ("3.1.3.16", 8)]
        )
        label_dict = build_label_dictionary(records)
        ranker = EcRanker.train(records, table, label_dict, _FAST_RANKER)
        ranker.save(tmp_path / "a")
        again = EcRanker.load(tmp_path / "a", records, table, label_dict, _FAST_RANKER)
        assert again.params == ranker.params
        assert again.index.ids == ranker.index.ids
        assert again.index.graph == ranker.index.graph
        assert again.label_of_point == ranker.label_of_point
        assert again.negatives_used == ranker.negatives_used
        assert again.label_dict == ranker.label_dict
        assert again.classifiers.keys() == ranker.classifiers.keys()
        for label, clf in ranker.classifiers.items():
            loaded = again.classifiers[label]
            assert loaded.dim == clf.dim
            assert np.array_equal(loaded.indices, clf.indices)
            assert np.array_equal(loaded.values, clf.values)
            assert loaded.bias == clf.bias
            assert loaded.meta == clf.meta
        for _ in range(20):
            q = rng.normal(size=6) * 2.0
            assert again.rank(q) == ranker.rank(q)
        again.save(tmp_path / "b")
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            "ranker_classifiers.bin", "ranker_index.bin"]
        for name in ("ranker_index.bin", "ranker_classifiers.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_every_truncated_classifier_file_is_a_named_error(self, tmp_path):
        records, table, _, _ = _ranker_corpus([("1.1.1.1", 6), ("2.2.2.2", 6)])
        label_dict = build_label_dictionary(records)
        EcRanker.train(records, table, label_dict, _FAST_RANKER).save(tmp_path)
        path = tmp_path / "ranker_classifiers.bin"
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(AgentError, match="truncated"):
                EcRanker.load(tmp_path, records, table, label_dict, _FAST_RANKER)
        path.write_bytes(blob + b"\0")
        with pytest.raises(AgentError, match="trailing"):
            EcRanker.load(tmp_path, records, table, label_dict, _FAST_RANKER)
        path.write_bytes(blob)
        assert set(EcRanker.load(tmp_path, records, table, label_dict, _FAST_RANKER).classifiers) == {0, 1}

    def test_out_of_range_weight_index_is_a_named_error(self, tmp_path):
        records, table, _, _ = _ranker_corpus([("1.1.1.1", 6), ("2.2.2.2", 6)])
        label_dict = build_label_dictionary(records)
        EcRanker.train(records, table, label_dict, _FAST_RANKER).save(tmp_path)
        path = tmp_path / "ranker_classifiers.bin"
        meta, arrays = read_container(path, "ranker-classifiers", AgentError)
        arrays = dict(arrays, **{"0.indices": arrays["0.indices"] | np.int32(1 << 23)})
        write_container(path, "ranker-classifiers", meta, arrays)
        with pytest.raises(AgentError, match="out of range"):
            EcRanker.load(tmp_path, records, table, label_dict, _FAST_RANKER)

    def test_classifier_entry_without_negatives_is_rejected(self, tmp_path):
        records, table, _, _ = _ranker_corpus([("1.1.1.1", 6), ("2.2.2.2", 6)])
        label_dict = build_label_dictionary(records)
        EcRanker.train(records, table, label_dict, _FAST_RANKER).save(tmp_path)
        path = tmp_path / "ranker_classifiers.bin"
        meta, arrays = read_container(path, "ranker-classifiers", AgentError)
        load = lambda: EcRanker.load(tmp_path, records, table, label_dict, _FAST_RANKER)  # noqa: E731
        assert [model["negatives"] for model in meta["models"]] == [
            load().negatives_used[label] for label in (0, 1)]
        for bad in (None, "many", [1]):
            models = [dict(meta["models"][0], negatives=bad)] + meta["models"][1:]
            write_container(path, "ranker-classifiers", {"models": models}, arrays)
            with pytest.raises(AgentError, match="bad ranker classifier"):
                load()
        del models[0]["negatives"]
        write_container(path, "ranker-classifiers", {"models": models}, arrays)
        with pytest.raises(AgentError, match="bad ranker classifier: 'negatives'"):
            load()

    def test_points_must_match_the_index_and_the_labels(self, tmp_path):
        # each point's id and label come from the records, not from the file
        records, table, _, _ = _ranker_corpus([("1.1.1.1", 6), ("2.2.2.2", 6)])
        label_dict = build_label_dictionary(records)
        EcRanker.train(records, table, label_dict, _FAST_RANKER).save(tmp_path)
        load = lambda: EcRanker.load(tmp_path, records, table, label_dict, _FAST_RANKER)  # noqa: E731
        want = {f"R{k}|{'2.2.2.2' if k >= 6 else '1.1.1.1'}": int(k >= 6) for k in range(12)}
        assert load().label_of_point == want
        path = tmp_path / "ranker_index.bin"
        blob = path.read_bytes()
        # an index over one point fewer or one more than the records give
        points = [(pid, pid.split("|")[0]) for pid in want]
        for nodes in (points[:-1], points + [("R0|3.3.3.3", "R0")]):
            AnnIndex.build(table, _FAST_RANKER.ann, points=nodes).save(path)
            with pytest.raises(AnnFormatError, match=f"holds {len(nodes)} nodes, not the 12 points"):
                load()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(AnnFormatError, match="truncated"):
                load()
        path.write_bytes(blob)
        assert load().label_of_point == want

    def test_training_is_deterministic(self):
        records, table, _, _ = _ranker_corpus([("1.1.1.1", 8), ("2.2.2.2", 8)])
        label_dict = build_label_dictionary(records)
        a = EcRanker.train(records, table, label_dict, _FAST_RANKER)
        b = EcRanker.train(records, table, label_dict, _FAST_RANKER)
        assert a.negatives_used == b.negatives_used
        for label in a.classifiers:
            wa, wb = a.classifiers[label], b.classifiers[label]
            assert np.array_equal(wa.indices, wb.indices)
            assert np.array_equal(wa.values, wb.values)
            assert wa.bias == wb.bias
