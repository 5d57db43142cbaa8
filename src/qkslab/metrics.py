"""Binary classification metrics with +1 as the positive class."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")


def check_labels(y: np.ndarray) -> None:
    """Refuse any label that is not exactly -1 or +1 (NaN and -0.0 included)."""
    if not np.all((y == 1) | (y == -1)):
        raise ValueError("labels must be -1 or +1")


def confusion(y_true, y_pred) -> ConfusionMatrix:
    t = np.asarray(y_true)
    q = np.asarray(y_pred)
    if t.shape != q.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {q.shape}")
    if t.size == 0:
        raise ValueError("empty input")
    check_labels(t)
    check_labels(q)
    return ConfusionMatrix(
        tp=int(np.sum((t == 1) & (q == 1))),
        fp=int(np.sum((t == -1) & (q == 1))),
        tn=int(np.sum((t == -1) & (q == -1))),
        fn=int(np.sum((t == 1) & (q == -1))),
    )


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """(TPR + TNR) / 2; requires both truth classes present."""
    if cm.tp + cm.fn < 1 or cm.tn + cm.fp < 1:
        raise ValueError("balanced accuracy needs both classes in the truth labels")
    return 0.5 * (cm.tp / (cm.tp + cm.fn) + cm.tn / (cm.tn + cm.fp))


def f1(cm: ConfusionMatrix) -> float:
    """2*TP / (2*TP + FP + FN); the degenerate all-zero cell maps to 0."""
    denom = 2 * cm.tp + cm.fp + cm.fn
    if denom == 0:
        warnings.warn("F1 undefined (no positives in truth or prediction); returning 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return 2 * cm.tp / denom
