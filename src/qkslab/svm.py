"""Soft-margin SVM on a precomputed Gram matrix, solved by SMO.

The solver maximizes the standard dual

    W(a) = sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t.  0 <= a_i <= C,  sum_i a_i y_i = 0

with maximal-violating-pair working-set selection and stops when the
largest KKT violation drops to ``tol``.  Selection ties break on the lowest
index, so training is fully deterministic.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix

_TAU = 1e-12  # curvature floor when the gram is indefinite
_MAX_ITER = 1_000_000


@dataclass(frozen=True, eq=False)
class SvmModel:
    alphas: np.ndarray
    bias: float
    labels: np.ndarray
    C: float
    train_ids: tuple[str, ...]
    n_iter: int
    converged: bool

    def __post_init__(self) -> None:
        if np.any(self.alphas < 0) or np.any(self.alphas > self.C):
            raise ValueError("dual variables escaped the box [0, C]")
        if abs(float(self.alphas @ self.labels)) > 1e-6:
            raise ValueError("dual equality constraint violated")

    @property
    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.alphas > 1e-12)


def train(gram: GramMatrix, labels, C: float = 1.0, tol: float = 1e-3,
          callback=None) -> SvmModel:
    """Fit the dual on a symmetric training gram.

    ``callback(iteration, dual_objective)`` fires once per SMO step when
    given; useful for monitoring convergence.
    """
    if not gram.symmetric:
        raise ValueError("training requires a symmetric GramMatrix")
    y = np.asarray(labels, dtype=np.float64)
    n = y.shape[0]
    if gram.values.shape != (n, n):
        raise ValueError(f"{n} labels do not match gram of shape {gram.values.shape}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.all(y > 0) or np.all(y < 0):
        raise ValueError("single-class labels: both classes must be present")
    if C <= 0:
        raise ValueError("C must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")

    K = gram.values
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of (1/2) a^T Q a - sum(a), Q_ij = y_i y_j K_ij
    pos = y > 0
    warned_indefinite = False
    converged = False
    iteration = 0

    for iteration in range(1, _MAX_ITER + 1):
        crit = -y * grad
        up = np.where(pos, alpha < C, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < C)
        i = int(np.where(up, crit, -np.inf).argmax())
        j = int(np.where(low, crit, np.inf).argmin())
        violation = crit[i] - crit[j]
        if violation <= tol:
            converged = True
            break

        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 0:
            if not warned_indefinite:
                warnings.warn("gram matrix is not positive semidefinite; "
                              "clamping SMO steps to the box", RuntimeWarning, stacklevel=2)
                warned_indefinite = True
            quad = _TAU
        t_room_i = C - alpha[i] if pos[i] else alpha[i]
        t_room_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(violation / quad, t_room_i, t_room_j)

        new_i = alpha[i] + y[i] * t
        new_j = alpha[j] - y[j] * t
        if t == t_room_i:  # land exactly on the box boundary
            new_i = C if pos[i] else 0.0
        if t == t_room_j:
            new_j = 0.0 if pos[j] else C
        grad += y * (y[i] * K[:, i]) * (new_i - alpha[i])
        grad += y * (y[j] * K[:, j]) * (new_j - alpha[j])
        alpha[i], alpha[j] = new_i, new_j
        if callback is not None:
            callback(iteration, 0.5 * float(alpha @ (1.0 - grad)))
    if not converged:
        warnings.warn(f"SMO did not reach tol={tol} within {_MAX_ITER} iterations",
                      RuntimeWarning, stacklevel=2)

    margins = K @ (alpha * y)  # decision values without bias
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(np.mean(y[free] - margins[free]))
    else:
        cand = y - margins
        lower = ((y > 0) & (alpha == 0)) | ((y < 0) & (alpha == C))
        upper = ((y > 0) & (alpha == C)) | ((y < 0) & (alpha == 0))
        b_lo = cand[lower].max() if lower.any() else -np.inf
        b_up = cand[upper].min() if upper.any() else np.inf
        bias = float((b_lo + b_up) / 2.0)

    return SvmModel(alpha, bias, y.astype(np.int64), float(C), gram.row_ids, iteration, converged)


def decision_values(model: SvmModel, cross_gram: GramMatrix) -> np.ndarray:
    """f_t = sum_i a_i y_i K[t, i] + b for each test row."""
    if cross_gram.col_ids != model.train_ids:
        raise ValueError("cross gram columns do not match the model's training samples")
    return cross_gram.values @ (model.alphas * model.labels) + model.bias


def predict(model: SvmModel, cross_gram: GramMatrix) -> np.ndarray:
    """Sign of the decision value; exact zeros map to -1."""
    return np.where(decision_values(model, cross_gram) > 0, 1, -1)

