import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecann.ann import AnnFormatError, AnnIndex, AnnParams, brute_force_knn
from ecann.core import read_container
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

    @pytest.mark.parametrize("n,dtype", [(1, np.float64), (7, np.float64), (7, np.float32)])
    def test_euclidean_is_exact_and_leaves_the_table_alone(self, n, dtype):
        # The distances must equal the plain formula bit for bit, and the
        # table keeps a float64 copy, so the caller's vectors stay untouched.
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

    def test_makes_at_most_one_table_sized_temporary(self):
        table = make_table(2000, 64, seed=3)
        q = np.random.default_rng(4).normal(size=64)
        brute_force_knn(table, q, 5)  # warm up lazily allocated state
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            brute_force_knn(table, q, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 1.5 * table.matrix().nbytes


def _sorted_knn(table, query, k):
    """The full-sort reference: every row ranked by (distance, id)."""
    diff = table.matrix() - query
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    ids = table.ids()
    order = sorted(range(len(ids)), key=lambda i: (dists[i], ids[i]))[:k]
    return [(ids[i], float(dists[i])) for i in order]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_brute_force_matches_a_full_sort_under_ties(data):
    # Small integer coordinates make equal distances common, so the cut at
    # the k-th distance often falls inside a run of ties.
    n = data.draw(st.integers(1, 30))
    dim = data.draw(st.integers(1, 3))
    coords = st.integers(1, 3).map(float)
    rows = data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                              min_size=n, max_size=n))
    names = data.draw(st.permutations([f"P{i:02d}" for i in range(n)]))
    table = EmbeddingTable.from_rows("t", names, np.array(rows))
    query = np.array(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
    k = data.draw(st.integers(1, n + 2))
    assert brute_force_knn(table, query, k) == _sorted_knn(table, query, k)


class TestAnnParams:
    def test_defaults(self):
        params = AnnParams()
        assert (params.m, params.ef_construction, params.ef_search) == (100, 300, 300)

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
            AnnParams(ef_search=0)


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
        index = AnnIndex(AnnParams(m=4), np.zeros((0, 3)), [])
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
        params = AnnParams(m=8, ef_construction=60, ef_search=60, seed=1)
        index = AnnIndex.build(table, params)
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        index.save(p1)
        loaded = AnnIndex.load(p1, table, params)
        assert loaded.ids == index.ids and loaded.graph == index.graph
        rng = np.random.default_rng(12)
        for _ in range(5):
            q = rng.normal(size=10)
            assert loaded.search(q, 8) == index.search(q, 8)
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_validates_degree_bounds(self, tmp_path):
        table = make_table(30, 4, seed=13)
        params = AnnParams(m=2, ef_construction=20, ef_search=20)
        index = AnnIndex.build(table, params)
        # Corrupt: blow one adjacency list past its cap, then persist.
        index.graph[0][0] = list(range(1, 20))
        path = tmp_path / "bad.idx"
        index.save(path)
        with pytest.raises(AnnFormatError, match="degree"):
            AnnIndex.load(path, table, params)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"NOTANIDX" * 4)
        with pytest.raises(ValueError, match="container"):
            AnnIndex.load(path, make_table(3, 2), AnnParams())

    def test_every_truncation_and_padding_is_a_named_error(self, tmp_path):
        table = make_table(6, 3, seed=14)
        params = AnnParams(m=2, ef_construction=8)
        index = AnnIndex.build(table, params)
        path = tmp_path / "a.idx"
        index.save(path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(AnnFormatError):
                AnnIndex.load(path, table, params)
        path.write_bytes(blob + b"\0")
        with pytest.raises(AnnFormatError, match="trailing"):
            AnnIndex.load(path, table, params)
        path.write_bytes(blob)
        assert AnnIndex.load(path, table, params).graph == index.graph

    def test_index_file_holds_only_the_graph(self, tmp_path):
        # Integer coordinates make every distance exact, so the same points
        # zero-padded to a wider dim give the same graph, hence the same file:
        # no vectors, rows, ids or parameters are stored.
        rng = np.random.default_rng(16)
        narrow = rng.integers(-5, 6, size=(40, 4)).astype(float)
        wide = np.hstack([narrow, np.zeros((40, 60))])
        ids = [f"P{i:02d}" for i in range(40)]
        params = AnnParams(m=4, ef_construction=20)
        blobs = []
        for dim, matrix in ((4, narrow), (64, wide)):
            path = tmp_path / f"d{dim}.idx"
            AnnIndex.build(EmbeddingTable.from_rows("t", ids, matrix), params).save(path)
            meta, arrays = read_container(path, "ann-index", AnnFormatError)
            assert meta.keys() == {"entry", "top_level"}
            assert arrays.keys() == {"levels", "degrees", "links"}
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_points_address_table_rows(self, tmp_path):
        # Several nodes may share a row; a load over other points than the build is refused.
        table = make_table(10, 3, seed=17)
        params = AnnParams(m=4, ef_construction=20)
        points = [(f"{rid}|{k}", rid) for k in range(2) for rid in table.ids()[2:8]]
        index = AnnIndex.build(table, params, points=points)
        assert index.ids == [node_id for node_id, _ in points]
        q = np.ones(3)
        want = brute_force_knn(EmbeddingTable.from_rows(
            "p", index.ids, table.matrix([rid for _, rid in points])), q, 5)
        assert index.search(q, 5, ef_search=len(points)) == want
        index.save(tmp_path / "a.idx")
        loaded = AnnIndex.load(tmp_path / "a.idx", table, params, points=points)
        assert loaded.ids == index.ids and loaded.search(q, 5) == index.search(q, 5)
        with pytest.raises(AnnFormatError, match="holds 12 nodes, not the 10 points"):
            AnnIndex.load(tmp_path / "a.idx", table, params)


_FLIP_TABLE = make_table(30, 4, seed=15)
_FLIP_PARAMS = AnnParams(m=4, ef_construction=20)


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bit_flip_is_a_named_error_or_a_valid_index(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "ann-bit-flip.idx"
    if not path.exists():
        AnnIndex.build(_FLIP_TABLE, _FLIP_PARAMS).save(path)
    blob = bytearray(path.read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    flipped = path.with_suffix(".flipped")
    flipped.write_bytes(bytes(blob))
    try:
        loaded = AnnIndex.load(flipped, _FLIP_TABLE, _FLIP_PARAMS)
    except AnnFormatError:
        return
    loaded.validate()
    hits = loaded.search(np.ones(4), 3)  # a flipped link may strand nodes, never hang
    assert len(hits) <= 3 and all(rid in loaded.ids for rid, _ in hits)
