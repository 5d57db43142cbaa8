"""Soft-margin SVM on a precomputed Gram matrix, solved by SMO.

The solver maximizes the standard dual

    W(a) = sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t.  0 <= a_i <= C,  sum_i a_i y_i = 0

with maximal-violating-pair working-set selection and stops when the
largest KKT violation drops to ``tol``.  The criterion -y * grad is kept up
to date in place from two rows of K per step, and selection is a masked
argmax/argmin over it (additive 0/inf working-set masks), so ties break on
the lowest index and training is fully deterministic.  The solver is
bit-identical to the plain loop ``tests/oracles.reference_smo``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix

DEFAULT_C = 1.0
DEFAULT_TOL = 1e-3
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


def train(gram: GramMatrix, labels, C: float = DEFAULT_C, tol: float = DEFAULT_TOL,
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
    for name, value in (("C", C), ("tol", tol)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be a finite positive number, got {value}")

    C = float(C)
    K = gram.values
    ys = y.tolist()
    diag = K.diagonal().tolist()
    alpha = [0.0] * n
    # crit = -y * grad (grad of (1/2) a^T Q a - sum(a), Q_ij = y_i y_j K_ij) starts at y and
    # is updated in place; y is +-1, so it rounds exactly as -y * grad would.
    crit = y.copy()
    # Additive working-set masks: 0 where index k may move up (down), else -inf (+inf).
    up_off = np.where(y > 0, 0.0, -np.inf)
    low_off = np.where(y > 0, np.inf, 0.0)
    buf = np.empty(n)
    warned_indefinite = False
    converged = False
    iteration = 0

    for iteration in range(1, _MAX_ITER + 1):
        i = int(np.add(crit, up_off, out=buf).argmax())
        j = int(np.add(crit, low_off, out=buf).argmin())
        violation = crit.item(i) - crit.item(j)
        if violation <= tol:
            converged = True
            break

        row_i, row_j = K[i], K[j]  # rows equal columns: the gram is exactly symmetric
        quad = diag[i] + diag[j] - 2.0 * row_i.item(j)
        if quad <= 0:
            if not warned_indefinite:
                warnings.warn("gram matrix is not positive semidefinite; "
                              "clamping SMO steps to the box", RuntimeWarning, stacklevel=2)
                warned_indefinite = True
            quad = _TAU
        a_i, a_j, y_i, y_j = alpha[i], alpha[j], ys[i], ys[j]
        t_room_i = C - a_i if y_i > 0 else a_i
        t_room_j = a_j if y_j > 0 else C - a_j
        t = min(violation / quad, t_room_i, t_room_j)

        new_i = a_i + y_i * t
        new_j = a_j - y_j * t
        if t == t_room_i:  # land exactly on the box boundary
            new_i = C if y_i > 0 else 0.0
        if t == t_room_j:
            new_j = 0.0 if y_j > 0 else C
        crit += np.multiply(row_i, -y_i * (new_i - a_i), out=buf)
        crit += np.multiply(row_j, -y_j * (new_j - a_j), out=buf)
        alpha[i], alpha[j] = new_i, new_j
        up_off[i] = 0.0 if (new_i < C if y_i > 0 else new_i > 0) else -np.inf
        low_off[i] = 0.0 if (new_i > 0 if y_i > 0 else new_i < C) else np.inf
        up_off[j] = 0.0 if (new_j < C if y_j > 0 else new_j > 0) else -np.inf
        low_off[j] = 0.0 if (new_j > 0 if y_j > 0 else new_j < C) else np.inf
        if callback is not None:
            callback(iteration, 0.5 * float(np.array(alpha) @ (1.0 + y * crit)))
    alpha = np.array(alpha)
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

    return SvmModel(alpha, bias, y.astype(np.int64), C, gram.row_ids, iteration, converged)


def decision_values(model: SvmModel, cross_gram: GramMatrix) -> np.ndarray:
    """f_t = sum_i a_i y_i K[t, i] + b for each test row."""
    if cross_gram.col_ids != model.train_ids:
        raise ValueError("cross gram columns do not match the model's training samples")
    return cross_gram.values @ (model.alphas * model.labels) + model.bias


def predict(model: SvmModel, cross_gram: GramMatrix) -> np.ndarray:
    """Sign of the decision value; exact zeros map to -1."""
    return np.where(decision_values(model, cross_gram) > 0, 1, -1)

