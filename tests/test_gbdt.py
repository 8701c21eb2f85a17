"""Booster tests: hand-computed Newton leaves, split rules, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecann.gbdt import (
    GbdtError,
    GbdtParams,
    GbdtModel,
    load_gbdt,
    save_gbdt,
    train_gbdt,
)
from ecann.gbdt import _build_tree


def _blobs(seed: int, n_per: int = 20, spread: float = 0.3):
    """Three well-separated 2-d clusters, labels 0/1/2."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    x = np.vstack([c + rng.normal(size=(n_per, 2)) * spread for c in centers])
    y = np.repeat(np.arange(3), n_per)
    return x, y


class TestLeafValues:
    def test_depth_zero_leaf_is_regularized_newton_step(self):
        # y = [0, 0, 1], uniform start p = 1/2 per class.
        # class 0: G = -0.5, H = 0.75 -> leaf = 0.5 / (0.75 + 1) = 2/7
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 1])
        params = GbdtParams(
            n_estimators=1, learning_rate=1.0, max_depth=0,
            min_child_weight=0.0, subsample=1.0, reg_lambda=1.0,
        )
        model = train_gbdt(x, y, params)
        t0, t1 = model.trees[0]
        assert t0.is_stump() and t1.is_stump()
        assert t0.value[0] == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert t1.value[0] == pytest.approx(-2.0 / 7.0, abs=1e-12)
        margins = model.predict_margins(x)
        assert np.allclose(margins[:, 0], 2.0 / 7.0)
        assert np.allclose(margins[:, 1], -2.0 / 7.0)
        # argmax lands on class 0 everywhere -> one of three rows is wrong
        assert model.train_error_curve == (pytest.approx(1.0 / 3.0),)

    def test_learning_rate_scales_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 1])
        base = GbdtParams(n_estimators=1, learning_rate=1.0, max_depth=0,
                          min_child_weight=0.0, subsample=1.0)
        half = GbdtParams(n_estimators=1, learning_rate=0.5, max_depth=0,
                          min_child_weight=0.0, subsample=1.0)
        full = train_gbdt(x, y, base).trees[0][0].value[0]
        shrunk = train_gbdt(x, y, half).trees[0][0].value[0]
        assert shrunk == pytest.approx(0.5 * full, abs=1e-12)

    def test_split_threshold_is_midpoint_of_boundary_values(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        params = GbdtParams(n_estimators=1, learning_rate=1.0, max_depth=1,
                            min_child_weight=0.0, subsample=1.0, reg_lambda=0.0)
        model = train_gbdt(x, y, params)
        tree = model.trees[0][0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(0.5)
        # left leaf: g = -0.5, h = 0.25, lambda = 0 -> -G/H = 2.0
        assert tree.value[tree.left[0]] == pytest.approx(2.0, abs=1e-12)
        assert tree.value[tree.right[0]] == pytest.approx(-2.0, abs=1e-12)


class TestSplitRules:
    def test_constant_gradient_node_never_splits(self):
        # All rows share a label: the gain of any cut is <= 0, so every tree
        # in every round stays a single leaf.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 4))
        y = np.zeros(30, dtype=int)
        params = GbdtParams(n_estimators=5, max_depth=4, min_child_weight=0.0,
                            subsample=1.0)
        model = train_gbdt(x, y, params, n_classes=2)
        assert all(t.is_stump() for rd in model.trees for t in rd)
        assert np.all(model.predict(x) == 0)
        assert np.all(model.predict_proba(x)[:, 0] > 0.5)

    def test_min_child_weight_blocks_all_splits(self):
        x, y = _blobs(seed=1, n_per=5)
        params = GbdtParams(n_estimators=3, max_depth=4,
                            min_child_weight=1000.0, subsample=1.0)
        model = train_gbdt(x, y, params)
        assert all(t.is_stump() for rd in model.trees for t in rd)

    def test_identical_feature_values_leave_no_cut(self):
        x = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        params = GbdtParams(n_estimators=2, max_depth=5, min_child_weight=0.0,
                            subsample=1.0)
        model = train_gbdt(x, y, params)
        assert all(t.is_stump() for rd in model.trees for t in rd)

    def test_depth_zero_predicts_majority_class(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 3))
        y = np.array([1] * 35 + [0] * 10 + [2] * 5)
        params = GbdtParams(n_estimators=20, max_depth=0, min_child_weight=0.0,
                            subsample=1.0)
        model = train_gbdt(x, y, params)
        probe = rng.normal(size=(25, 3))
        assert np.all(model.predict(probe) == 1)


class TestTraining:
    def test_separable_blobs_reach_zero_error(self):
        x, y = _blobs(seed=3)
        params = GbdtParams(n_estimators=25, learning_rate=0.5, max_depth=3,
                            min_child_weight=0.5, subsample=1.0)
        model = train_gbdt(x, y, params)
        curve = model.train_error_curve
        assert len(curve) == 25
        assert curve[-1] == 0.0
        assert np.all(model.predict(x) == y)
        # without row sampling the fit error should never move upward here
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_error_curve_values_are_rates(self):
        x, y = _blobs(seed=4, n_per=8)
        model = train_gbdt(x, y, GbdtParams(n_estimators=6, subsample=1.0,
                                            min_child_weight=0.5))
        assert all(0.0 <= v <= 1.0 for v in model.train_error_curve)

    def test_reserved_class_columns_stay_low(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        model = train_gbdt(x, y, GbdtParams(n_estimators=4, subsample=1.0,
                                            min_child_weight=0.5), n_classes=4)
        proba = model.predict_proba(x)
        assert proba.shape == (40, 4)
        assert np.all(proba[:, 2] < 0.5)
        assert np.all(proba[:, 3] < 0.5)

    def test_same_seed_is_bit_identical(self):
        x, y = _blobs(seed=6)
        params = GbdtParams(n_estimators=8, max_depth=3, subsample=0.6,
                            min_child_weight=0.5, seed=11)
        a = train_gbdt(x, y, params)
        b = train_gbdt(x, y, params)
        blob_a = json.dumps(a.to_dict(), sort_keys=True)
        blob_b = json.dumps(b.to_dict(), sort_keys=True)
        assert blob_a == blob_b

    def test_different_seed_changes_row_sample(self):
        x, y = _blobs(seed=7)
        base = dict(n_estimators=8, max_depth=3, subsample=0.6,
                    min_child_weight=0.5)
        a = train_gbdt(x, y, GbdtParams(seed=1, **base))
        b = train_gbdt(x, y, GbdtParams(seed=2, **base))
        assert json.dumps(a.to_dict()) != json.dumps(b.to_dict())

    def test_tiny_subsample_still_trains(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = train_gbdt(x, y, GbdtParams(n_estimators=2, subsample=0.4,
                                            min_child_weight=0.0))
        assert len(model.trees) == 2


class TestConstantColumnPruning:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_interleaved_constant_columns_leave_trees_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 30, 6
        # Binary columns with a duplicate pair: equal gains exercise the
        # lower-feature-index tie-break through the column map.
        varying = rng.integers(0, 2, size=(n, m)).astype(float)
        varying[:, 3] = varying[:, 1]
        varying[0, :] = 0.0
        varying[1, :] = 1.0  # every column varies
        y = (varying[:, 1] + varying[:, 4] + rng.integers(0, 2, size=n)).astype(int)
        width = m + 9
        where = np.sort(rng.choice(width, size=m, replace=False))
        wide = np.repeat(rng.normal(size=(1, width)), n, axis=0)
        wide[:, where] = varying
        params = GbdtParams(n_estimators=4, max_depth=3, min_child_weight=0.5,
                            subsample=0.7, seed=seed)
        narrow_model = train_gbdt(varying, y, params, n_classes=4)
        wide_model = train_gbdt(wide, y, params, n_classes=4)
        assert wide_model.train_error_curve == narrow_model.train_error_curve
        for wide_round, narrow_round in zip(wide_model.trees, narrow_model.trees):
            for w_tree, n_tree in zip(wide_round, narrow_round):
                assert w_tree.feature == [int(where[f]) if f >= 0 else -1
                                          for f in n_tree.feature]
                assert w_tree.threshold == n_tree.threshold
                assert (w_tree.left, w_tree.right) == (n_tree.left, n_tree.right)
                assert w_tree.value == n_tree.value
        np.testing.assert_array_equal(wide_model.predict_margins(wide),
                                      narrow_model.predict_margins(varying))
        # First-round oracle: unpruned `_build_tree` on the wide matrix, with
        # every row and the uniform-softmax gradients that round starts from.
        full = GbdtParams(n_estimators=1, max_depth=3, min_child_weight=0.5,
                          subsample=1.0)
        first = train_gbdt(wide, y, full, n_classes=4).trees[0]
        for cls, tree in enumerate(first):
            grad = 0.25 - (y == cls)
            hess = np.full(n, 0.25 * 0.75)
            oracle = _build_tree(wide, grad, hess, np.arange(n), full)
            assert tree == oracle

    def test_all_constant_columns_give_stumps(self):
        x = np.tile([[2.0, -1.0, 0.0]], (12, 1))
        y = np.array([0, 1, 2] * 4)
        model = train_gbdt(x, y, GbdtParams(n_estimators=3, min_child_weight=0.0,
                                            subsample=1.0))
        assert all(tree.is_stump() for round_trees in model.trees for tree in round_trees)


class TestValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(GbdtError):
            GbdtParams(n_estimators=0)
        with pytest.raises(GbdtError):
            GbdtParams(learning_rate=0.0)
        with pytest.raises(GbdtError):
            GbdtParams(max_depth=-1)
        with pytest.raises(GbdtError):
            GbdtParams(subsample=1.5)
        with pytest.raises(GbdtError):
            GbdtParams(reg_lambda=-0.1)

    def test_rejects_bad_training_data(self):
        with pytest.raises(GbdtError):
            train_gbdt(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(GbdtError):
            train_gbdt(np.zeros(4), np.zeros(4, dtype=int))
        with pytest.raises(GbdtError):
            train_gbdt(np.zeros((4, 2)), np.zeros(3, dtype=int))
        with pytest.raises(GbdtError):
            train_gbdt(np.array([[np.nan, 0.0]]), np.array([0]))
        with pytest.raises(GbdtError):
            train_gbdt(np.zeros((2, 2)), np.array([0.5, 1.0]))
        with pytest.raises(GbdtError):
            train_gbdt(np.zeros((2, 2)), np.array([-1, 0]))
        with pytest.raises(GbdtError):
            train_gbdt(np.zeros((2, 2)), np.array([0, 0]))  # one class
        with pytest.raises(GbdtError):
            train_gbdt(np.zeros((2, 2)), np.array([0, 3]), n_classes=2)

    def test_predict_rejects_wrong_feature_count(self):
        x, y = _blobs(seed=8, n_per=5)
        model = train_gbdt(x, y, GbdtParams(n_estimators=1, subsample=1.0,
                                            min_child_weight=0.5))
        with pytest.raises(GbdtError):
            model.predict(np.zeros((3, 5)))


class TestSerialization:
    def test_round_trip_preserves_predictions_exactly(self, tmp_path):
        x, y = _blobs(seed=9)
        model = train_gbdt(x, y, GbdtParams(n_estimators=6, subsample=0.7,
                                            min_child_weight=0.5))
        path = tmp_path / "counts.json"
        save_gbdt(model, path)
        again = load_gbdt(path)
        assert np.array_equal(model.predict_margins(x), again.predict_margins(x))
        assert again.train_error_curve == model.train_error_curve
        assert again.params == model.params
        # a re-save of the loaded model is byte-identical
        path2 = tmp_path / "again.json"
        save_gbdt(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_foreign_payload(self, tmp_path):
        x, y = _blobs(seed=10, n_per=4)
        model = train_gbdt(x, y, GbdtParams(n_estimators=1, subsample=1.0,
                                            min_child_weight=0.5))
        payload = model.to_dict()
        payload["format"] = "something-else"
        with pytest.raises(GbdtError):
            GbdtModel.from_dict(payload)
        payload = model.to_dict()
        payload["version"] = 99
        with pytest.raises(GbdtError):
            GbdtModel.from_dict(payload)
        bad = tmp_path / "bad.json"
        bad.write_text('["not", "a", "model"]')
        with pytest.raises(GbdtError):
            load_gbdt(bad)

    def test_dump_text_has_one_line_per_node(self):
        x, y = _blobs(seed=12, n_per=10)
        model = train_gbdt(x, y, GbdtParams(n_estimators=2, max_depth=2,
                                            subsample=1.0, min_child_weight=0.5))
        for round_trees in model.trees:
            for tree in round_trees:
                text = tree.dump_text()
                assert len(text.splitlines()) == tree.n_nodes
                assert "leaf=" in text


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=24),
    dim=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_probabilities_are_a_distribution(n, dim, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, k, size=n)
    if len(np.unique(y)) < 2:
        y[0], y[1] = 0, 1
    model = train_gbdt(x, y, GbdtParams(n_estimators=3, max_depth=2,
                                        subsample=1.0, min_child_weight=0.0),
                       n_classes=k)
    proba = model.predict_proba(x)
    assert np.isfinite(proba).all()
    assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
