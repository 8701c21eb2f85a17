import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecann.ann import AnnIndex, AnnParams, brute_force_knn
from ecann.embedding import EmbeddingTable


def make_table(n, dim, seed=0, tag="t"):
    rng = np.random.default_rng(seed)
    vectors = {f"P{i:04d}": rng.normal(size=dim) for i in range(n)}
    return EmbeddingTable(tag=tag, dim=dim, vectors=vectors)


class TestBruteForce:
    def test_sorted_with_ties_by_id(self):
        vectors = {
            "B": np.array([1.0, 0.0]),
            "A": np.array([-1.0, 0.0]),
            "C": np.array([0.0, 5.0]),
        }
        table = EmbeddingTable(tag="t", dim=2, vectors=vectors)
        hits = brute_force_knn(table, np.zeros(2), k=3)
        assert [h[0] for h in hits] == ["A", "B", "C"]
        assert hits[0][1] == pytest.approx(1.0)

    def test_k_larger_than_table(self):
        table = make_table(3, 4)
        assert len(brute_force_knn(table, np.zeros(4), k=10)) == 3

    def test_cosine_differs_from_euclidean(self):
        vectors = {
            "far_same_dir": np.array([10.0, 0.0]),
            "near_other_dir": np.array([0.0, 1.0]),
        }
        table = EmbeddingTable(tag="t", dim=2, vectors=vectors)
        q = np.array([1.0, 0.0])
        assert brute_force_knn(table, q, 1, metric="euclidean")[0][0] == "near_other_dir"
        assert brute_force_knn(table, q, 1, metric="cosine")[0][0] == "far_same_dir"

    def test_cosine_zero_vector_rejected(self):
        table = EmbeddingTable(tag="t", dim=2, vectors={"A": np.zeros(2)})
        with pytest.raises(ValueError, match="zero"):
            brute_force_knn(table, np.ones(2), 1, metric="cosine")

    @pytest.mark.parametrize("n,dtype", [(1, np.float64), (7, np.float64), (7, np.float32)])
    def test_euclidean_is_exact_and_leaves_the_table_alone(self, n, dtype):
        # The distances are computed in place on the stacked copy: they must
        # equal the plain two-temporary formula bit for bit, and never write
        # through to the table's vectors.
        rng = np.random.default_rng(n)
        vectors = {f"P{i}": rng.normal(size=5).astype(dtype) for i in range(n)}
        before = {rid: vec.copy() for rid, vec in vectors.items()}
        table = EmbeddingTable(tag="t", dim=5, vectors=vectors)
        q = rng.normal(size=5)
        ids = table.ids()
        diff = table.matrix(ids) - q
        want = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        got = dict(brute_force_knn(table, q, k=n))
        assert [got[rid] for rid in ids] == want.tolist()
        for rid, vec in vectors.items():
            assert vec.dtype == dtype and np.array_equal(vec, before[rid])


class TestAnnParams:
    def test_defaults(self):
        params = AnnParams()
        assert (params.m, params.ef_construction, params.ef_search) == (100, 300, 300)
        assert params.metric == "euclidean"

    def test_level_scale_is_inverse_log_m(self):
        assert AnnParams(m=16).level_scale == pytest.approx(1 / np.log(16))

    def test_degree_caps(self):
        params = AnnParams(m=16)
        assert params.max_degree(0) == 32
        assert params.max_degree(1) == 16
        assert params.max_degree(5) == 16

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            AnnParams(m=1)
        with pytest.raises(ValueError):
            AnnParams(metric="manhattan")


class TestBuildAndSearch:
    def test_small_index_is_exact_with_wide_beam(self):
        table = make_table(40, 8, seed=1)
        index = AnnIndex.build(table, AnnParams(m=8, ef_construction=40, ef_search=40, seed=0))
        index.validate()
        stored = index._matrix.copy()
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = rng.normal(size=8)
            assert index.search(q, 5) == brute_force_knn(table, q, 5)
        # distances subtract in place on gathered rows, never on the index
        assert np.array_equal(index._matrix, stored)

    def test_deterministic_for_fixed_seed(self):
        table = make_table(120, 6, seed=3)
        params = AnnParams(m=6, ef_construction=30, ef_search=30, seed=9)
        a = AnnIndex.build(table, params)
        b = AnnIndex.build(table, params)
        assert a.levels == b.levels
        assert a.graph == b.graph
        q = np.zeros(6)
        assert a.search(q, 7) == b.search(q, 7)

    def test_k_larger_than_index_returns_everything(self):
        table = make_table(5, 3)
        index = AnnIndex.build(table, AnnParams(m=4, ef_construction=10, ef_search=10))
        hits = index.search(np.zeros(3), k=50)
        assert len(hits) == 5
        dists = [d for _, d in hits]
        assert dists == sorted(dists)

    def test_empty_index(self):
        index = AnnIndex(AnnParams(m=4), dim=3)
        assert index.search(np.zeros(3), 5) == []

    def test_query_shape_checked(self):
        table = make_table(5, 3)
        index = AnnIndex.build(table, AnnParams(m=4))
        with pytest.raises(ValueError, match="shape"):
            index.search(np.zeros(4), 2)

    def test_recall_at_10_on_medium_index(self):
        table = make_table(600, 16, seed=4)
        index = AnnIndex.build(table, AnnParams(m=12, ef_construction=100, ef_search=100, seed=0))
        index.validate()
        rng = np.random.default_rng(5)
        hits_total = 0
        for _ in range(25):
            q = rng.normal(size=16)
            approx = {h[0] for h in index.search(q, 10)}
            exact = {h[0] for h in brute_force_knn(table, q, 10)}
            hits_total += len(approx & exact)
        assert hits_total / 250 >= 0.9

    def test_recall_monotone_in_ef_search(self):
        table = make_table(500, 12, seed=6)
        index = AnnIndex.build(table, AnnParams(m=8, ef_construction=80, ef_search=80, seed=0))
        rng = np.random.default_rng(7)
        queries = [rng.normal(size=12) for _ in range(25)]
        exact = [{h[0] for h in brute_force_knn(table, q, 10)} for q in queries]

        def recall(ef):
            got = [{h[0] for h in index.search(q, 10, ef_search=ef)} for q in queries]
            return sum(len(g & e) for g, e in zip(got, exact)) / (10 * len(queries))

        recalls = [recall(ef) for ef in (10, 40, 160)]
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_cosine_metric_search(self):
        rng = np.random.default_rng(8)
        vectors = {f"P{i}": rng.normal(size=6) + 0.1 for i in range(80)}
        table = EmbeddingTable(tag="t", dim=6, vectors=vectors)
        index = AnnIndex.build(
            table, AnnParams(m=8, ef_construction=80, ef_search=80, metric="cosine")
        )
        q = rng.normal(size=6)
        assert index.search(q, 3) == brute_force_knn(table, q, 3, metric="cosine")


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(5, 60),
    dim=st.integers(2, 8),
    m=st.integers(2, 10),
    seed=st.integers(0, 5),
)
def test_structural_invariants_hold_for_any_build(n, dim, m, seed):
    table = make_table(n, dim, seed=seed)
    index = AnnIndex.build(table, AnnParams(m=m, ef_construction=20, ef_search=20, seed=seed))
    index.validate()
    # Edge endpoints always reach the edge's layer.
    for node, layers in enumerate(index.graph):
        assert len(layers) == index.levels[node] + 1
        for layer, links in enumerate(layers):
            assert len(links) <= index.params.max_degree(layer)
            for nb in links:
                assert index.levels[nb] >= layer


class TestSerialization:
    def test_round_trip_preserves_results_and_bytes(self, tmp_path):
        table = make_table(150, 10, seed=11)
        index = AnnIndex.build(table, AnnParams(m=8, ef_construction=60, ef_search=60, seed=1))
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        index.save(p1)
        loaded = AnnIndex.load(p1)
        assert loaded.params == index.params
        rng = np.random.default_rng(12)
        for _ in range(5):
            q = rng.normal(size=10)
            assert loaded.search(q, 8) == index.search(q, 8)
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_validates_degree_bounds(self, tmp_path):
        table = make_table(30, 4, seed=13)
        index = AnnIndex.build(table, AnnParams(m=2, ef_construction=20, ef_search=20))
        # Corrupt: blow one adjacency list past its cap, then persist.
        index.graph[0][0] = list(range(1, 20))
        path = tmp_path / "bad.idx"
        index.save(path)
        with pytest.raises(AssertionError, match="degree"):
            AnnIndex.load(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"NOTANIDX" * 4)
        with pytest.raises(ValueError, match="container"):
            AnnIndex.load(path)
