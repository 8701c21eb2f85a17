import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ecann.agents import load_classifiers, save_classifiers
from ecann.linear import (
    LinearModel,
    TrainMeta,
    decision,
    decision_many,
    l2svm_primal_objective,
    sigmoid,
    sparsify,
    train_l2svm,
)


def dense_dual_cd_oracle(positives, negatives, C=1.0, max_iter=1200, tol=0.1, seed=0):
    """The primal-``w`` dual coordinate descent, kept verbatim as the oracle.

    Returns (w_aug, sweeps, converged, dual_curve, ties).  The two lines
    marked ``tie`` only observe: ``ties`` counts sweeps whose shrinking
    threshold ``pg_max_old`` was decided by a gradient within rounding of
    zero.  There the sign of a ~1e-17 value picks between shrinking and
    not, so another summation order may take a different (equally valid)
    path to the optimum.
    """
    X = np.vstack([np.asarray(v, dtype=np.float64) for v in list(positives) + list(negatives)])
    y = np.concatenate([np.ones(len(positives)), -np.ones(len(negatives))])
    n, d = X.shape
    Xa = np.ascontiguousarray(np.hstack([X, np.ones((n, 1))]))
    rows = [Xa[i] for i in range(n)]
    diag = 0.5 / C
    qii = np.einsum("ij,ij->i", Xa, Xa) + diag
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    rng = np.random.default_rng(seed)

    def dual_objective() -> float:
        return 0.5 * float(w @ w) + diag * 0.5 * float(alpha @ alpha) - float(alpha.sum())

    active = list(range(n))
    pg_max_old, pg_min_old = np.inf, -np.inf
    curve: list[float] = []
    converged = False
    sweeps = 0
    ties = 0
    while sweeps < max_iter:
        pg_max_new, pg_min_new = -np.inf, np.inf
        rng.shuffle(active)
        near_zero = False  # tie
        i = 0
        while i < len(active):
            idx = active[i]
            yi = y[idx]
            g = yi * float(rows[idx] @ w) - 1.0 + diag * alpha[idx]
            near_zero |= alpha[idx] > 0 and abs(g) <= 1e-9  # tie
            pg = g
            if alpha[idx] == 0.0:
                if g > pg_max_old:
                    active[i] = active[-1]
                    active.pop()
                    continue
                pg = min(g, 0.0)
            if pg > pg_max_new:
                pg_max_new = pg
            if pg < pg_min_new:
                pg_min_new = pg
            if abs(pg) > 1e-12:
                old = alpha[idx]
                new = max(old - g / qii[idx], 0.0)
                alpha[idx] = new
                if new != old:
                    w += (new - old) * yi * rows[idx]
            i += 1
        sweeps += 1
        curve.append(dual_objective())
        ties += near_zero and pg_max_new <= 1e-9  # tie
        if pg_max_new - pg_min_new <= tol:
            if len(active) == n:
                converged = True
                break
            active = list(range(n))
            pg_max_old, pg_min_old = np.inf, -np.inf
            continue
        pg_max_old = pg_max_new if pg_max_new > 0 else np.inf
        pg_min_old = pg_min_new if pg_min_new < 0 else -np.inf
    return w, sweeps, converged, curve, ties


def one_hot_problem(seed, n_pos, n_neg, positions, alphabet=4):
    """Rows of a padded one-hot encoding: one symbol per used position.

    Positives share a motif at the first position, so the classes overlap
    but are not identical; short sequences leave trailing positions empty.
    """
    rng = np.random.default_rng(seed)

    def row(motif):
        x = np.zeros((positions, alphabet))
        used = int(rng.integers(1, positions + 1))
        x[np.arange(used), rng.integers(0, alphabet, size=used)] = 1.0
        if motif is not None:
            x[0] = 0.0
            x[0, motif] = 1.0
        return x.ravel()

    pos = [row(0) for _ in range(n_pos)]
    neg = [row(None) for _ in range(n_neg)]
    return pos, neg


def separable_blobs(n=40, dim=5, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, dim)) + gap
    neg = rng.normal(size=(n, dim)) - gap
    return pos, neg


class TestL2Svm:
    def test_two_point_analytic_solution(self):
        # Mirrored points on the first axis, C=1: the dual decouples and
        # each multiplier settles at 0.4, giving w = (0.8, 0), b = 0.
        model = train_l2svm([np.array([1.0, 0.0])], [np.array([-1.0, 0.0])], C=1.0, tol=1e-10)
        w = model.dense_weights()
        assert w[0] == pytest.approx(0.8, abs=1e-8)
        assert w[1] == pytest.approx(0.0, abs=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-8)
        assert decision(model, np.array([1.0, 0.0])) == pytest.approx(0.8, abs=1e-8)

    def test_separates_blobs(self):
        pos, neg = separable_blobs()
        model = train_l2svm(pos, neg, C=1.0)
        assert model.meta.converged
        assert np.all(decision_many(model, pos) > 0)
        assert np.all(decision_many(model, neg) < 0)

    def test_dual_objective_non_increasing(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=(30, 8)) + 0.3
        neg = rng.normal(size=(30, 8)) - 0.3
        model = train_l2svm(pos, neg, C=2.0, tol=1e-6, max_iter=200)
        curve = model.meta.objective_curve
        assert len(curve) >= 2
        assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_primal_never_worse_than_zero_vector(self):
        rng = np.random.default_rng(4)
        # Overlapping classes: the bound must hold even without separability.
        pos = rng.normal(size=(25, 6)) + 0.1
        neg = rng.normal(size=(25, 6)) - 0.1
        for C in (0.5, 1.0, 4.0):
            model = train_l2svm(pos, neg, C=C)
            assert model.meta.primal_objective <= C * 50 + 1e-9

    def test_primal_objective_matches_recomputation(self):
        pos, neg = separable_blobs(seed=5)
        model = train_l2svm(pos, neg, C=1.0)
        Xa = np.hstack([np.vstack([pos, neg]), np.ones((len(pos) + len(neg), 1))])
        y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
        w_aug = np.concatenate([model.dense_weights(), [model.bias]])
        assert model.meta.primal_objective == pytest.approx(
            l2svm_primal_objective(w_aug, Xa, y, 1.0)
        )

    def test_max_iter_respected(self):
        rng = np.random.default_rng(6)
        pos = rng.normal(size=(50, 4)) + 0.05
        neg = rng.normal(size=(50, 4)) - 0.05
        model = train_l2svm(pos, neg, C=10.0, max_iter=3, tol=1e-12)
        assert model.meta.iterations <= 3
        assert not model.meta.converged

    def test_seeds_reach_same_optimum(self):
        pos, neg = separable_blobs(seed=7)
        a = train_l2svm(pos, neg, C=1.0, seed=0, tol=1e-8)
        b = train_l2svm(pos, neg, C=1.0, seed=99, tol=1e-8)
        np.testing.assert_allclose(a.dense_weights(), b.dense_weights(), atol=1e-4)

    def test_same_seed_bitwise_identical(self):
        pos, neg = separable_blobs(seed=8)
        a = train_l2svm(pos, neg, C=1.0, seed=5)
        b = train_l2svm(pos, neg, C=1.0, seed=5)
        assert np.array_equal(a.values, b.values)
        assert a.bias == b.bias

    def test_lists_of_rows_train_the_same_model_as_matrices(self):
        pos, neg = separable_blobs(seed=9)
        a = train_l2svm(pos, neg, C=1.0)
        for rows in ((list(pos), list(neg)), (pos, list(neg)), (list(pos), neg)):
            b = train_l2svm(*rows, C=1.0)
            assert np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)
            assert a.bias == b.bias and a.meta == b.meta

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train_l2svm([], [np.zeros(3)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            train_l2svm([np.array([np.inf, 0.0])], [np.zeros(2)])


class TestGramSpaceParity:
    """The Gram-space path (n <= d + 1) and the w path take the same steps."""

    @staticmethod
    def check_parity(pos, neg, **kw) -> bool:
        """Assert step-for-step parity; False if the oracle hit a rounding tie."""
        model = train_l2svm(pos, neg, **kw)
        w_aug, sweeps, converged, curve, ties = dense_dual_cd_oracle(pos, neg, **kw)
        if ties:
            return False
        assert model.meta.iterations == sweeps
        assert model.meta.converged == converged
        np.testing.assert_allclose(model.dense_weights(), w_aug[:-1], rtol=0, atol=1e-12)
        assert model.bias == pytest.approx(w_aug[-1], rel=0, abs=1e-12)
        np.testing.assert_allclose(model.meta.objective_curve, curve, rtol=0, atol=1e-12)
        got = model.meta.objective_curve
        assert all(a >= b - 1e-12 for a, b in zip(got, got[1:]))
        return True

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 8),
        st.integers(1, 12),
        st.integers(5, 12),
        st.sampled_from([0.25, 1.0, 8.0]),
        st.sampled_from([0.1, 1e-3]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_one_hot_like_gram_path_matches_dense_oracle(
        self, seed, n_pos, n_neg, positions, C, tol
    ):
        pos, neg = one_hot_problem(seed, n_pos, n_neg, positions)
        assert n_pos + n_neg <= len(pos[0]) + 1  # the Gram-space shape
        assume(self.check_parity(pos, neg, C=C, tol=tol, max_iter=300, seed=seed % 7))

    @pytest.mark.parametrize("seed", range(4))
    def test_tall_problems_keep_the_w_path(self, seed):
        pos, neg = one_hot_problem(seed, 20, 25, positions=3, alphabet=3)
        assert len(pos) + len(neg) > len(pos[0]) + 1
        assert self.check_parity(pos, neg, C=1.0, tol=1e-3, max_iter=300, seed=seed)

    def test_real_valued_wide_problem_matches(self):
        rng = np.random.default_rng(21)
        pos = rng.normal(size=(6, 40)) + 0.2
        neg = rng.normal(size=(9, 40)) - 0.2
        assert self.check_parity(pos, neg, C=2.0, tol=1e-6, max_iter=400)

    def test_rounding_tie_still_reaches_the_same_optimum(self):
        # The oracle's shrinking threshold hits a rounding-level gradient on
        # this problem, and the two paths part ways at tol=0.1.  Run to a
        # tight tolerance, both land on the one optimum of the strictly
        # convex dual.
        pos, neg = one_hot_problem(996736475, 2, 12, 7)
        *_, ties = dense_dual_cd_oracle(pos, neg, C=1.0, tol=0.1, max_iter=300, seed=996736475 % 7)
        assert ties > 0
        model = train_l2svm(pos, neg, C=1.0, tol=1e-10, max_iter=5000)
        w_aug, _, converged, *_ = dense_dual_cd_oracle(pos, neg, C=1.0, tol=1e-10, max_iter=5000)
        assert model.meta.converged and converged
        np.testing.assert_allclose(model.dense_weights(), w_aug[:-1], rtol=0, atol=1e-8)
        assert model.bias == pytest.approx(w_aug[-1], rel=0, abs=1e-8)


class TestSigmoid:
    def test_extremes_stable(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_array_input(self):
        out = sigmoid(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] + out[2] == pytest.approx(1.0)


class TestSparsify:
    def make_model(self):
        meta = TrainMeta(1, True, 0.0, (0.0,), 1.0)
        return LinearModel(
            dim=5,
            indices=np.array([0, 2, 4], dtype=np.int32),
            values=np.array([1e-9, 0.5, -1e-8]),
            bias=1e-12,
            meta=meta,
        )

    def test_drops_small_keeps_bias(self):
        model = sparsify(self.make_model(), 1e-6)
        assert list(model.indices) == [2]
        assert model.bias == 1e-12  # bias is never dropped

    def test_idempotent(self):
        once = sparsify(self.make_model(), 1e-6)
        twice = sparsify(once, 1e-6)
        assert np.array_equal(once.indices, twice.indices)
        assert np.array_equal(once.values, twice.values)

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            sparsify(self.make_model(), -1.0)

    @given(st.floats(min_value=0, max_value=1.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sparsify_never_stores_sub_floor_weights(self, floor, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=8) * (10.0 ** rng.integers(-9, 1))
        nz = np.nonzero(w)[0]
        meta = TrainMeta(1, True, 0.0, (), 1.0)
        model = LinearModel(
            dim=8, indices=nz.astype(np.int32), values=w[nz],
            bias=0.1, meta=meta,
        )
        out = sparsify(model, floor)
        assert np.all(np.abs(out.values) >= floor)
        assert out.bias == model.bias


class TestDecision:
    def test_dim_mismatch_rejected(self):
        pos, neg = separable_blobs(dim=4)
        model = train_l2svm(pos, neg)
        with pytest.raises(ValueError, match="dim"):
            decision(model, np.zeros(5))


class TestSerialization:
    def test_round_trip_byte_identical(self, tmp_path):
        pos, neg = separable_blobs(seed=12)
        model = train_l2svm(pos, neg, C=1.0)
        save_classifiers(tmp_path / "a.bin", {3: model}, {3: 17})
        classifiers, negatives_used = load_classifiers(tmp_path / "a.bin")
        (label, loaded), = classifiers.items()
        assert label == 3 and negatives_used == {3: 17}
        assert loaded.dim == model.dim
        assert loaded.indices.dtype == np.int32
        assert np.array_equal(loaded.indices, model.indices)
        assert np.array_equal(loaded.values, model.values)
        assert loaded.bias == model.bias
        assert loaded.meta == model.meta
        save_classifiers(tmp_path / "b.bin", classifiers, negatives_used)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
