"""Tests for confusion counts, balanced accuracy, F1, and the one ±1 label check."""
import itertools
import warnings
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

from qkslab.data import Dataset
from qkslab.kernels import gram_matrix, rbf_config
from qkslab.metrics import ConfusionMatrix, balanced_accuracy, confusion, f1
from qkslab.svm import train


def _labels_for(cm: ConfusionMatrix) -> tuple[list[int], list[int]]:
    y_true = [1] * cm.tp + [1] * cm.fn + [-1] * cm.tn + [-1] * cm.fp
    y_pred = [1] * cm.tp + [-1] * cm.fn + [-1] * cm.tn + [1] * cm.fp
    return y_true, y_pred


def test_confusion_examples():
    cm = confusion([1, 1, -1, -1], [1, -1, -1, 1])
    assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)
    same = confusion([1, -1, 1], [1, -1, 1])
    assert same.fp == same.fn == 0
    flipped = confusion([1, -1, 1], [-1, 1, -1])
    assert flipped.tp == flipped.tn == 0


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion([1, -1], [1])
    with pytest.raises(ValueError):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([1, 0], [1, -1])


def test_balanced_accuracy_examples():
    assert balanced_accuracy(ConfusionMatrix(3, 2, 2, 1)) == pytest.approx(0.625)
    assert balanced_accuracy(ConfusionMatrix(5, 0, 5, 0)) == 1.0
    # all-positive predictor on balanced truth sits at chance
    assert balanced_accuracy(ConfusionMatrix(4, 4, 0, 0)) == 0.5
    with pytest.raises(ValueError):
        balanced_accuracy(ConfusionMatrix(0, 1, 1, 0))  # no positive truths


def test_f1_examples():
    assert f1(ConfusionMatrix(3, 2, 4, 1)) == pytest.approx(6 / 9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert f1(ConfusionMatrix(0, 0, 5, 0)) == 0.0
    assert any("F1 undefined" in str(w.message) for w in caught)
    assert f1(ConfusionMatrix(4, 0, 4, 0)) == 1.0


def test_exhaustive_small_cells_against_fraction_arithmetic():
    for tp, fp, tn, fn in itertools.product(range(5), repeat=4):
        if tp + fp + tn + fn == 0:
            continue
        cm = confusion(*_labels_for(ConfusionMatrix(tp, fp, tn, fn)))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
        if tp + fn >= 1 and tn + fp >= 1:
            expected = Fraction(1, 2) * (Fraction(tp, tp + fn) + Fraction(tn, tn + fp))
            assert balanced_accuracy(cm) == pytest.approx(float(expected), abs=1e-15)
            swapped = ConfusionMatrix(tn, fn, tp, fp)  # tp<->tn, fp<->fn
            assert balanced_accuracy(cm) == pytest.approx(balanced_accuracy(swapped), abs=1e-15)
        if 2 * tp + fp + fn > 0:
            assert f1(cm) == pytest.approx(float(Fraction(2 * tp, 2 * tp + fp + fn)), abs=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert 0.0 <= f1(cm) <= 1.0


def test_balanced_accuracy_equals_accuracy_on_balanced_truth():
    cm = ConfusionMatrix(3, 2, 2, 1)  # 4 positive truths, 4 negative truths
    accuracy = (cm.tp + cm.tn) / (cm.tp + cm.fp + cm.tn + cm.fn)
    assert balanced_accuracy(cm) == pytest.approx(accuracy)


def test_metrics_merge_across_disjoint_evaluations():
    a_true, a_pred = [1, 1, -1], [1, -1, -1]
    b_true, b_pred = [-1, 1, -1, -1], [1, 1, -1, 1]
    merged = confusion(a_true + b_true, a_pred + b_pred)
    ca, cb = confusion(a_true, a_pred), confusion(b_true, b_pred)
    summed = ConfusionMatrix(ca.tp + cb.tp, ca.fp + cb.fp, ca.tn + cb.tn, ca.fn + cb.fn)
    assert merged == summed
    assert balanced_accuracy(merged) == balanced_accuracy(summed)
    assert f1(merged) == f1(summed)


@pytest.mark.parametrize("bad", [0.0, -0.0, 2.0, 0.5, 1.5, -1.9, float("nan")],
                         ids=["zero", "minus-zero", "two", "half", "one-and-a-half", "minus-one-point-nine", "nan"])
def test_every_label_check_refuses_what_is_not_plus_or_minus_one(bad):
    y = np.array([1.0, -1.0, bad])
    with pytest.raises(ValueError, match=r"labels must be -1 or \+1"):
        Dataset(("x",), ("a", "b", "c"), (date(2018, 1, 2), date(2018, 1, 3), date(2018, 1, 4)),
                np.zeros((3, 1)), y)
    with pytest.raises(ValueError, match=r"labels must be -1 or \+1"):
        train(gram_matrix(np.eye(3), None, rbf_config(1.0)), y)
    for truth, pred in ((y, [1, -1, 1]), ([1, -1, 1], y)):
        with pytest.raises(ValueError, match=r"labels must be -1 or \+1"):
            confusion(truth, pred)  # refused as given, not after truncation to an integer
    cm = confusion([1, -1, 1], [1.0, -1.0, 1.0])
    assert cm.tp + cm.fp + cm.tn + cm.fn == 3
