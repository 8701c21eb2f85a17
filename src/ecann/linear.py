"""Sparse squared-hinge SVM classifiers trained in-process.

The SVM minimizes ``0.5*||w||^2 + C * sum(max(0, 1 - y_i w.x_i)^2)``
through coordinate descent on its dual, visiting examples in a seeded
random permutation each sweep and shrinking coordinates that sit firmly
at their bound; that dual view is what makes training on a few hundred
examples per label cheap enough to run thousands of times.

The SVM picks its representation by shape.  With no more examples than
augmented features (``n <= d + 1``, the one-hot ranker's case) it keeps
the margins ``Xa @ w`` through the n-by-n Gram matrix ``K = Xa Xa^T``: a
coordinate reads its margin in O(1), an update adds
``delta * y_i * K[i]`` in O(n), and ``w = Xa^T (alpha * y)`` is formed
once at the end.  Otherwise it updates ``w`` directly at O(d) per step.
Both run in one loop with the same permutation, shrinking and stopping
rule, so they take the same steps up to rounding.

The intercept is handled through an appended constant feature, so the
bias is regularized like any other weight.

Models store only non-zero weights.  ``sparsify`` drops entries below a
magnitude floor (bias untouched) and is idempotent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TrainMeta:
    """How training went: sweep/step count and objective trajectory."""

    iterations: int
    converged: bool
    primal_objective: float
    objective_curve: tuple[float, ...]
    regularizer: float  # the SVM's C


@dataclass(frozen=True, eq=False)
class LinearModel:
    dim: int
    indices: np.ndarray  # sorted int32, no duplicates
    values: np.ndarray  # float64, never exactly zero
    bias: float
    meta: TrainMeta

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must align")
        if len(self.indices) and (
            np.any(self.indices < 0) or np.any(self.indices >= self.dim)
        ):
            raise ValueError("weight index out of range")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def dense_weights(self) -> np.ndarray:
        w = np.zeros(self.dim)
        w[self.indices] = self.values
        return w


def _to_sparse(w: np.ndarray, bias: float, meta: TrainMeta) -> LinearModel:
    nz = np.nonzero(w)[0]
    return LinearModel(
        dim=len(w),
        indices=nz.astype(np.int32),
        values=w[nz].astype(np.float64),
        bias=float(bias),
        meta=meta,
    )


def decision(model: LinearModel, x: np.ndarray) -> float:
    """Raw decision value w.x + b."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValueError(f"x has shape {x.shape}, model dim is {model.dim}")
    return float(x[model.indices] @ model.values + model.bias)


def decision_many(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"X has shape {X.shape}, model dim is {model.dim}")
    return X[:, model.indices] @ model.values + model.bias


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out) if out.ndim == 0 else out


def sparsify(model: LinearModel, floor: float) -> LinearModel:
    """Drop weights with |w| < floor; the bias always survives."""
    if floor < 0:
        raise ValueError(f"floor must be non-negative, got {floor}")
    keep = np.abs(model.values) >= floor
    return LinearModel(
        dim=model.dim,
        indices=model.indices[keep],
        values=model.values[keep],
        bias=model.bias,
        meta=model.meta,
    )


def _check_training_input(
    positives: Sequence[np.ndarray], negatives: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    if len(positives) == 0 or len(negatives) == 0:
        raise ValueError("both classes must be non-empty")
    X = np.vstack([positives, negatives], dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("training vectors must be finite")
    y = np.concatenate([np.ones(len(positives)), -np.ones(len(negatives))])
    return X, y


def l2svm_primal_objective(w_aug: np.ndarray, Xa: np.ndarray, y: np.ndarray, C: float) -> float:
    margins = 1.0 - y * (Xa @ w_aug)
    return 0.5 * float(w_aug @ w_aug) + C * float(np.sum(np.maximum(margins, 0.0) ** 2))


def train_l2svm(
    positives: Sequence[np.ndarray],
    negatives: Sequence[np.ndarray],
    C: float = 1.0,
    max_iter: int = 1200,
    tol: float = 0.1,
    seed: int = 0,
) -> LinearModel:
    """Dual coordinate descent for the squared-hinge SVM.

    Stops after ``max_iter`` sweeps or when the largest projected
    gradient violation over a sweep drops below ``tol``.  Coordinates
    pinned at zero with clearly positive gradient are shrunk from the
    sweep and re-checked on a final full pass before convergence is
    declared.  The recorded dual objective never increases because each
    coordinate update is an exact one-dimensional minimization.
    """
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    X, y = _check_training_input(positives, negatives)
    n, d = X.shape
    Xa = np.ascontiguousarray(np.hstack([X, np.ones((n, 1))]))
    diag = 0.5 / C
    # Few examples: track the margins Xa @ w through the Gram matrix (see
    # the module docstring); otherwise track w itself.  On the Gram side K
    # is never larger than Xa and an O(n) step never dearer than O(d).
    gram = n <= d + 1
    if gram:
        K = Xa @ Xa.T
        qii = np.diag(K) + diag
        steps = list(K)
        state = np.zeros(n)  # margins
    else:
        qii = np.einsum("ij,ij->i", Xa, Xa) + diag
        steps = list(Xa)
        state = np.zeros(d + 1)  # w
    alpha = np.zeros(n)
    rng = np.random.default_rng(seed)

    def dual_objective() -> float:
        wtw = float((alpha * y) @ state) if gram else float(state @ state)
        return 0.5 * wtw + diag * 0.5 * float(alpha @ alpha) - float(alpha.sum())

    active = list(range(n))
    pg_max_old, pg_min_old = np.inf, -np.inf
    curve: list[float] = []
    converged = False
    sweeps = 0
    while sweeps < max_iter:
        pg_max_new, pg_min_new = -np.inf, np.inf
        rng.shuffle(active)
        i = 0
        while i < len(active):
            idx = active[i]
            yi = y[idx]
            g = yi * float(state[idx] if gram else steps[idx] @ state) - 1.0 + diag * alpha[idx]
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
                    state += (new - old) * yi * steps[idx]
            i += 1
        sweeps += 1
        curve.append(dual_objective())
        if pg_max_new - pg_min_new <= tol:
            if len(active) == n:
                converged = True
                break
            # Unshrink and verify optimality over the full set.
            active = list(range(n))
            pg_max_old, pg_min_old = np.inf, -np.inf
            continue
        pg_max_old = pg_max_new if pg_max_new > 0 else np.inf
        pg_min_old = pg_min_new if pg_min_new < 0 else -np.inf

    w = Xa.T @ (alpha * y) if gram else state
    meta = TrainMeta(
        iterations=sweeps,
        converged=converged,
        primal_objective=l2svm_primal_objective(w, Xa, y, C),
        objective_curve=tuple(curve),
        regularizer=C,
    )
    return _to_sparse(w[:-1], w[-1], meta)

