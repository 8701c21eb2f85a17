"""Multiclass gradient-boosted decision trees with a softmax objective.

Small, self-contained booster used for the function-count models.  Each
boosting round fits one regression tree per class on the softmax
gradients/hessians (g = p - y, h = p * (1 - p)) and the per-leaf weight is the
regularized Newton step  -G / (H + lambda)  shrunk by the learning rate.
Splits are found by exact greedy enumeration over sorted feature values; a
split is kept only when its gain is strictly positive and both children carry
at least ``min_child_weight`` hessian mass.  A node that admits no valid split
becomes a leaf regardless of its own hessian mass, so a depth-0 tree is always
legal.

Columns that are constant over all training rows are dropped once per
``train_gbdt`` call, before boosting: such a column never offers a cut, so the
per-node scan only visits the varying columns, and each tree's ``feature``
entries are mapped back to the original column indices afterwards.  On one-hot
protein encodings this is most of the width (1,556 of 25,000 columns vary on
the demo corpus).

Training is deterministic for a fixed seed: row subsampling uses a dedicated
generator and feature scans resolve ties toward the lower feature index and
the lower threshold.  The column map is monotone, so pruning leaves that
tie-break, and therefore every tree, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "GbdtError",
    "GbdtParams",
    "Tree",
    "GbdtModel",
    "train_gbdt",
]

_FORMAT = "gbdt-softmax"
_VERSION = 1


class GbdtError(ValueError):
    """Invalid booster parameters, training data, or serialized payload."""


@dataclass(frozen=True)
class GbdtParams:
    """Booster hyper-parameters.

    ``subsample`` draws rows without replacement once per boosting round; the
    same sample is shared by every class tree of that round.
    """

    n_estimators: int = 120
    learning_rate: float = 0.3
    max_depth: int = 6
    min_child_weight: float = 6.0
    subsample: float = 0.5
    reg_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise GbdtError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise GbdtError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.max_depth < 0:
            raise GbdtError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_child_weight < 0.0:
            raise GbdtError(f"min_child_weight must be >= 0, got {self.min_child_weight}")
        if not 0.0 < self.subsample <= 1.0:
            raise GbdtError(f"subsample must be in (0, 1], got {self.subsample}")
        if self.reg_lambda < 0.0:
            raise GbdtError(f"reg_lambda must be >= 0, got {self.reg_lambda}")


@dataclass
class Tree:
    """One regression tree stored as parallel node arrays.

    ``feature[i] == -1`` marks node ``i`` as a leaf whose additive score is
    ``value[i]`` (learning rate already folded in).  Internal nodes route a
    row left when ``x[feature] < threshold``.
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def is_stump(self) -> bool:
        return self.n_nodes == 1

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Additive scores for a (n, n_features) matrix."""
        feature = np.asarray(self.feature, dtype=np.int64)
        threshold = np.asarray(self.threshold, dtype=np.float64)
        left = np.asarray(self.left, dtype=np.int64)
        right = np.asarray(self.right, dtype=np.int64)
        value = np.asarray(self.value, dtype=np.float64)

        node = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            pending = np.nonzero(feature[node] >= 0)[0]
            if pending.size == 0:
                break
            cur = node[pending]
            go_left = x[pending, feature[cur]] < threshold[cur]
            node[pending] = np.where(go_left, left[cur], right[cur])
        return value[node]


def _best_split(
    x: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    rows: np.ndarray,
    total_g: float,
    total_h: float,
    params: GbdtParams,
) -> Optional[tuple[int, float, np.ndarray]]:
    """Exact greedy split search over all features.

    Returns (feature, threshold, left_mask_over_rows) for the highest strictly
    positive gain, or None.  Ties go to the lower feature index, then to the
    lower threshold, which makes tree construction order-independent of any
    hash/dict iteration.
    """
    lam = params.reg_lambda
    parent_score = total_g * total_g / (total_h + lam)
    best_gain = 0.0
    best: Optional[tuple[int, float, np.ndarray]] = None

    for feat in range(x.shape[1]):
        col = x[rows, feat]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        g_cum = np.cumsum(grad[rows][order])
        h_cum = np.cumsum(hess[rows][order])

        # Candidate boundaries sit between distinct consecutive values only.
        cut = np.nonzero(sorted_col[:-1] < sorted_col[1:])[0]
        if cut.size == 0:
            continue
        g_left = g_cum[cut]
        h_left = h_cum[cut]
        g_right = total_g - g_left
        h_right = total_h - h_left

        ok = (h_left >= params.min_child_weight) & (h_right >= params.min_child_weight)
        if not ok.any():
            continue
        gain = 0.5 * (
            g_left**2 / (h_left + lam)
            + g_right**2 / (h_right + lam)
            - parent_score
        )
        gain[~ok] = -np.inf
        pos = int(np.argmax(gain))  # first maximum -> lowest threshold wins ties
        if gain[pos] > best_gain:
            best_gain = float(gain[pos])
            thr = float(0.5 * (sorted_col[cut[pos]] + sorted_col[cut[pos] + 1]))
            best = (feat, thr, col < thr)
    return best


def _build_tree(
    x: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    rows: np.ndarray,
    params: GbdtParams,
) -> Tree:
    tree = Tree()
    lam = params.reg_lambda

    def add_leaf(total_g: float, total_h: float) -> int:
        idx = tree.n_nodes
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(-total_g / (total_h + lam) * params.learning_rate)
        return idx

    def grow(node_rows: np.ndarray, depth: int) -> int:
        total_g = float(grad[node_rows].sum())
        total_h = float(hess[node_rows].sum())
        if depth >= params.max_depth or node_rows.size < 2:
            return add_leaf(total_g, total_h)
        found = _best_split(x, grad, hess, node_rows, total_g, total_h, params)
        if found is None:
            return add_leaf(total_g, total_h)
        feat, thr, left_mask = found
        idx = tree.n_nodes
        tree.feature.append(feat)
        tree.threshold.append(thr)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(0.0)
        tree.left[idx] = grow(node_rows[left_mask], depth + 1)
        tree.right[idx] = grow(node_rows[~left_mask], depth + 1)
        return idx

    grow(rows, 0)
    return tree


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class GbdtModel:
    """Trained booster: ``trees[round][class]`` plus the training error curve."""

    n_classes: int
    n_features: int
    trees: list[list[Tree]]
    train_error_curve: tuple[float, ...]

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.n_features:
            raise GbdtError(
                f"expected shape (n, {self.n_features}), got {arr.shape!r}"
            )
        return arr

    def predict_margins(self, x: np.ndarray) -> np.ndarray:
        arr = self._check_input(x)
        scores = np.zeros((arr.shape[0], self.n_classes))
        for round_trees in self.trees:
            for k, tree in enumerate(round_trees):
                scores[:, k] += tree.predict(arr)
        return scores

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _softmax(self.predict_margins(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        # np.argmax takes the first maximum: class ties resolve downward.
        return np.argmax(self.predict_margins(x), axis=1)

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "train_error_curve": list(self.train_error_curve),
            "trees": [
                [
                    {
                        "feature": t.feature,
                        "threshold": t.threshold,
                        "left": t.left,
                        "right": t.right,
                        "value": t.value,
                    }
                    for t in round_trees
                ]
                for round_trees in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GbdtModel":
        if not isinstance(payload, dict):
            raise GbdtError("model payload must be a JSON object")
        if payload.get("format") != _FORMAT:
            raise GbdtError(f"unrecognized payload format {payload.get('format')!r}")
        if payload.get("version") != _VERSION:
            raise GbdtError(f"unsupported payload version {payload.get('version')!r}")
        trees = [
            [
                Tree(
                    feature=list(t["feature"]),
                    threshold=list(t["threshold"]),
                    left=list(t["left"]),
                    right=list(t["right"]),
                    value=list(t["value"]),
                )
                for t in round_trees
            ]
            for round_trees in payload["trees"]
        ]
        return cls(
            n_classes=int(payload["n_classes"]),
            n_features=int(payload["n_features"]),
            trees=trees,
            train_error_curve=tuple(float(v) for v in payload["train_error_curve"]),
        )


def train_gbdt(
    x: Sequence[Sequence[float]] | np.ndarray,
    y: Sequence[int] | np.ndarray,
    params: GbdtParams = GbdtParams(),
    n_classes: Optional[int] = None,
) -> GbdtModel:
    """Fit the booster on integer class labels ``0 .. n_classes - 1``.

    ``n_classes`` defaults to ``max(y) + 1``; passing it explicitly allows
    reserving score columns for classes absent from the training rows.
    """
    arr = np.asarray(x, dtype=np.float64)
    labels = np.asarray(y)
    if arr.ndim != 2:
        raise GbdtError(f"x must be 2-d, got shape {arr.shape!r}")
    if labels.ndim != 1 or labels.shape[0] != arr.shape[0]:
        raise GbdtError("y must be 1-d with one label per row of x")
    if arr.shape[0] == 0:
        raise GbdtError("training data is empty")
    if not np.isfinite(arr).all():
        raise GbdtError("x contains non-finite values")
    if not np.issubdtype(labels.dtype, np.integer):
        raise GbdtError("y must contain integers")
    if labels.min() < 0:
        raise GbdtError("class labels must be >= 0")
    k = int(labels.max()) + 1 if n_classes is None else int(n_classes)
    if k < 2:
        raise GbdtError(f"need at least 2 classes, got {k}")
    if labels.max() >= k:
        raise GbdtError(f"label {int(labels.max())} out of range for {k} classes")

    n = arr.shape[0]
    labels = labels.astype(np.int64)
    one_hot = np.zeros((n, k))
    one_hot[np.arange(n), labels] = 1.0

    # A column constant over all rows never yields a cut, so trees grow on
    # the varying columns only; the map back to original indices is
    # monotone, which keeps the lower-feature-index tie-break intact.
    varying = np.nonzero((arr[1:] != arr[0]).any(axis=0))[0]
    grow_x = arr[:, varying]
    rng = np.random.default_rng(params.seed)
    scores = np.zeros((n, k))
    trees: list[list[Tree]] = []
    curve: list[float] = []
    n_sample = max(1, int(round(n * params.subsample)))

    for _ in range(params.n_estimators):
        proba = _softmax(scores)
        if n_sample < n:
            rows = np.sort(rng.choice(n, size=n_sample, replace=False))
        else:
            rows = np.arange(n)
        round_trees = []
        for cls in range(k):
            grad = proba[:, cls] - one_hot[:, cls]
            hess = proba[:, cls] * (1.0 - proba[:, cls])
            tree = _build_tree(grow_x, grad, hess, rows, params)
            tree.feature = [int(varying[f]) if f >= 0 else -1 for f in tree.feature]
            round_trees.append(tree)
        for cls, tree in enumerate(round_trees):
            scores[:, cls] += tree.predict(arr)
        trees.append(round_trees)
        curve.append(float(np.mean(np.argmax(scores, axis=1) != labels)))

    return GbdtModel(
        n_classes=k,
        n_features=arr.shape[1],
        trees=trees,
        train_error_curve=tuple(curve),
    )
