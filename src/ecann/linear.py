"""Sparse linear classifiers trained in-process.

Two trainers share one model type.  The squared-hinge SVM minimizes
``0.5*||w||^2 + C * sum(max(0, 1 - y_i w.x_i)^2)`` through coordinate
descent on its dual, visiting examples in a seeded random permutation
each sweep and shrinking coordinates that sit firmly at their bound;
that dual view is what makes training on a few hundred examples per
label cheap enough to run thousands of times.

The SVM picks its representation by shape.  With no more examples than
augmented features (``n <= d + 1``, the one-hot ranker's case) it keeps
the margins ``Xa @ w`` through the n-by-n Gram matrix ``K = Xa Xa^T``: a
coordinate reads its margin in O(1), an update adds
``delta * y_i * K[i]`` in O(n), and ``w = Xa^T (alpha * y)`` is formed
once at the end.  Otherwise it updates ``w`` directly at O(d) per step.
Both run in one loop with the same permutation, shrinking and stopping
rule, so they take the same steps up to rounding.

The logistic trainer is plain gradient descent with a backtracking line
search.  Both trainers handle the intercept through an appended constant
feature, so the bias is regularized like any other weight.

Models store only non-zero weights.  ``sparsify`` drops entries below a
magnitude floor (bias untouched) and is idempotent.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

_MAGIC = b"ECLIN1\n"
_VERSION = 1
_KINDS = ("l2svm", "logistic")
_HEAD = "<BIdIIBdd"


class LinearFormatError(ValueError):
    """A serialized linear model is truncated, padded or malformed."""


@dataclass(frozen=True)
class TrainMeta:
    """How training went: sweep/step count and objective trajectory."""

    iterations: int
    converged: bool
    primal_objective: float
    objective_curve: tuple[float, ...]
    regularizer: float  # C for the SVM, l2 strength for logistic


@dataclass(frozen=True, eq=False)
class LinearModel:
    kind: str
    dim: int
    indices: np.ndarray  # sorted int32, no duplicates
    values: np.ndarray  # float64, never exactly zero
    bias: float
    meta: TrainMeta

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
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


def _to_sparse(kind: str, w: np.ndarray, bias: float, meta: TrainMeta) -> LinearModel:
    nz = np.nonzero(w)[0]
    return LinearModel(
        kind=kind,
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
        kind=model.kind,
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
    X = np.vstack([np.asarray(v, dtype=np.float64) for v in list(positives) + list(negatives)])
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
    return _to_sparse("l2svm", w[:-1], w[-1], meta)


def logistic_objective(
    w_aug: np.ndarray, Xa: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Regularized negative log-likelihood and its gradient; y in {-1,+1}."""
    margins = y * (Xa @ w_aug)
    value = float(np.logaddexp(0.0, -margins).sum()) + 0.5 * l2 * float(w_aug @ w_aug)
    grad = -(Xa * (y * sigmoid(-margins))[:, None]).sum(axis=0) + l2 * w_aug
    return value, grad


def train_logistic(
    positives: Sequence[np.ndarray],
    negatives: Sequence[np.ndarray],
    l2: float = 1.0,
    max_iter: int = 2000,
    tol: float = 1e-6,
) -> LinearModel:
    """Gradient descent with Armijo backtracking; converged when ||grad|| < tol."""
    if l2 < 0:
        raise ValueError(f"l2 must be non-negative, got {l2}")
    X, y = _check_training_input(positives, negatives)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(d + 1)
    value, grad = logistic_objective(w, Xa, y, l2)
    curve = [value]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gnorm_sq = float(grad @ grad)
        if np.sqrt(gnorm_sq) < tol:
            converged = True
            iterations -= 1
            break
        step = 1.0
        while True:
            trial = w - step * grad
            trial_value, trial_grad = logistic_objective(trial, Xa, y, l2)
            if trial_value <= value - 0.5 * step * gnorm_sq or step < 1e-16:
                break
            step *= 0.5
        w, value, grad = trial, trial_value, trial_grad
        curve.append(value)
    else:
        converged = np.linalg.norm(grad) < tol
    meta = TrainMeta(
        iterations=iterations,
        converged=converged,
        primal_objective=value,
        objective_curve=tuple(curve),
        regularizer=l2,
    )
    return _to_sparse("logistic", w[:-1], w[-1], meta)


# --------------------------------------------------------------------------
# Serialization


def write_model(fh, model: LinearModel) -> None:
    fh.write(
        struct.pack(
            _HEAD,
            _KINDS.index(model.kind),
            model.dim,
            model.bias,
            model.nnz,
            model.meta.iterations,
            int(model.meta.converged),
            model.meta.primal_objective,
            model.meta.regularizer,
        )
    )
    fh.write(struct.pack("<I", len(model.meta.objective_curve)))
    fh.write(np.asarray(model.meta.objective_curve, dtype="<f8").tobytes())
    fh.write(np.asarray(model.indices, dtype="<i4").tobytes())
    fh.write(np.asarray(model.values, dtype="<f8").tobytes())


def read_exact(fh, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise :class:`LinearFormatError`."""
    data = fh.read(size)
    if len(data) != size:
        raise LinearFormatError(f"truncated: wanted {size} bytes, got {len(data)}")
    return data


def read_model(fh) -> LinearModel:
    kind_code, dim, bias, nnz, iterations, converged, primal, reg = struct.unpack(
        _HEAD, read_exact(fh, struct.calcsize(_HEAD))
    )
    if kind_code >= len(_KINDS):
        raise LinearFormatError(f"unknown model kind code {kind_code}")
    (curve_len,) = struct.unpack("<I", read_exact(fh, 4))
    curve = np.frombuffer(read_exact(fh, 8 * curve_len), dtype="<f8")
    indices = np.frombuffer(read_exact(fh, 4 * nnz), dtype="<i4").copy()
    values = np.frombuffer(read_exact(fh, 8 * nnz), dtype="<f8").copy()
    meta = TrainMeta(
        iterations=iterations,
        converged=bool(converged),
        primal_objective=primal,
        objective_curve=tuple(float(v) for v in curve),
        regularizer=reg,
    )
    return LinearModel(
        kind=_KINDS[kind_code], dim=dim, indices=indices, values=values,
        bias=bias, meta=meta,
    )


def save_linear(model: LinearModel, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        write_model(fh, model)


def load_linear(path: str | Path) -> LinearModel:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise LinearFormatError(f"{path}: not a linear-model container")
        (version,) = struct.unpack("<I", read_exact(fh, 4))
        if version != _VERSION:
            raise LinearFormatError(f"{path}: unsupported container version {version}")
        model = read_model(fh)
        if fh.read(1):
            raise LinearFormatError(f"{path}: trailing bytes")
    return model
