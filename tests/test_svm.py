"""Tests for the SMO solver against analytic and projected-gradient oracles."""
import warnings
from math import pi

import numpy as np
import pytest

from qkslab import svm
from qkslab.kernels import GramMatrix, gram_matrix, gram_pair, quantum_config, rbf_config
from qkslab.svm import decision_values, predict, train

from oracles import reference_smo, solve_dual_exhaustive, svm_dual_objective


def _sym_gram(values: np.ndarray) -> GramMatrix:
    ids = tuple(f"r{i}" for i in range(values.shape[0]))
    return GramMatrix(values, ids, ids, rbf_config(gamma=1.0), True)


def _cross_gram(values: np.ndarray, train_ids) -> GramMatrix:
    ids = tuple(f"t{i}" for i in range(values.shape[0]))
    return GramMatrix(values, ids, tuple(train_ids), rbf_config(gamma=1.0), False)


def _random_psd(rng, n):
    a = rng.normal(size=(n, n))
    k = a @ a.T
    d = np.sqrt(np.diag(k))
    k = k / np.outer(d, d)  # unit diagonal, PSD
    return (k + k.T) / 2


def test_two_point_analytic_solution():
    model = train(_sym_gram(np.eye(2)), [1, -1], C=10.0)
    np.testing.assert_allclose(model.alphas, [1.0, 1.0], atol=1e-6)
    assert model.bias == pytest.approx(0.0, abs=1e-6)
    assert list(model.support_indices) == [0, 1]


@pytest.mark.parametrize("setting", [{"C": float("nan")}, {"C": float("inf")}, {"C": 0.0},
                                     {"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1e-3},
                                     {"C": True}, {"tol": "0.1"}],
                         ids=["C-nan", "C-inf", "C-zero", "tol-nan", "tol-inf", "tol-negative",
                              "C-true", "tol-string"])
def test_settings_must_be_finite_and_positive(setting):
    with pytest.raises(ValueError, match=r"^(C|tol) must be a number in \(0, inf\), got "):
        train(_sym_gram(np.eye(2)), [1, -1], **setting)


def test_single_class_is_rejected():
    with pytest.raises(ValueError, match="single-class"):
        train(_sym_gram(np.array([[1.0, 1.0], [1.0, 1.0]])), [1, 1])


def test_input_validation():
    with pytest.raises(ValueError):
        train(_sym_gram(np.eye(2)), [1, 0])
    with pytest.raises(ValueError):
        train(_sym_gram(np.eye(2)), [1, -1], C=0.0)
    with pytest.raises(ValueError):
        train(_sym_gram(np.eye(3)), [1, -1])
    cross = _cross_gram(np.eye(2), ("r0", "r1"))
    with pytest.raises(ValueError, match="symmetric"):
        train(cross, [1, -1])


@pytest.mark.parametrize("seed", range(6))
def test_dual_matches_projected_gradient_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    K = _random_psd(rng, n)
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y == y[0]):
        y[0] = -y[0]
    C = float(rng.choice([0.5, 1.0, 10.0]))
    model = train(_sym_gram(K), y, C=C, tol=1e-6)
    w_smo = svm_dual_objective(model.alphas, K, y)
    w_ref = svm_dual_objective(solve_dual_exhaustive(K, y, C), K, y)
    assert w_smo >= w_ref - 1e-4 * max(1.0, abs(w_ref))
    assert abs(w_smo - w_ref) <= 1e-4 * max(1.0, abs(w_ref))


def test_kkt_conditions_at_tolerance():
    rng = np.random.default_rng(21)
    K = _random_psd(rng, 12)
    y = rng.choice([-1.0, 1.0], size=12)
    y[:2] = (1.0, -1.0)
    tol = 1e-3
    model = train(_sym_gram(K), y, C=1.0, tol=tol)
    f = K @ (model.alphas * model.labels) + model.bias
    yf = y * f
    for i in range(12):
        if model.alphas[i] <= 1e-12:
            assert yf[i] >= 1 - tol - 1e-9
        elif model.alphas[i] >= 1.0 - 1e-12:
            assert yf[i] <= 1 + tol + 1e-9
        else:
            assert abs(yf[i] - 1) <= tol + 1e-9


def test_training_is_bit_reproducible():
    rng = np.random.default_rng(31)
    K = _random_psd(rng, 10)
    y = rng.choice([-1.0, 1.0], size=10)
    y[:2] = (1.0, -1.0)
    a = train(_sym_gram(K), y, C=2.0)
    b = train(_sym_gram(K), y, C=2.0)
    assert a.alphas.tobytes() == b.alphas.tobytes()
    assert a.bias == b.bias and a.n_iter == b.n_iter


def _indefinite_4x4() -> np.ndarray:
    values = np.array([
        [1.0, 0.9, -0.5, 0.2],
        [0.9, 1.0, 0.3, -0.4],
        [-0.5, 0.3, 1.0, 0.8],
        [0.2, -0.4, 0.8, 1.0],
    ])
    return values - 0.6 * np.eye(4)  # push an eigenvalue negative


def _objective_history(monkeypatch, K, y, n_iter):
    """Dual objective after each SMO step: train stopped after k steps, k = 1..n_iter."""
    history = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # stopping early warns by design
        for k in range(1, n_iter + 1):
            monkeypatch.setattr(svm, "_MAX_ITER", k)
            history.append(svm_dual_objective(train(_sym_gram(K), y, C=1.0).alphas, K, y))
    return history


def test_objective_is_monotone_and_indefinite_gram_warns(monkeypatch):
    values = _indefinite_4x4()
    y = np.array([1.0, -1.0, 1.0, -1.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = train(_sym_gram(values), y, C=1.0)
    assert any("positive semidefinite" in str(w.message) for w in caught)
    assert model.converged
    history = _objective_history(monkeypatch, values, y, model.n_iter)
    for prev, cur in zip(history, history[1:]):
        assert cur >= prev - 1e-9


def test_monotone_objective_on_psd_problems(monkeypatch):
    rng = np.random.default_rng(41)
    K = _random_psd(rng, 8)
    y = rng.choice([-1.0, 1.0], size=8)
    y[:2] = (1.0, -1.0)
    model = train(_sym_gram(K), y, C=1.0)
    history = _objective_history(monkeypatch, K, y, model.n_iter)
    assert len(history) == model.n_iter > 1
    assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))


def test_decision_value_examples():
    model = train(_sym_gram(np.eye(2)), [1, -1], C=10.0)
    cross = _cross_gram(np.array([[1.0, 0.0]]), model.train_ids)
    np.testing.assert_allclose(decision_values(model, cross), [1.0], atol=1e-6)

    idle = train(_sym_gram(np.eye(2)), [1, -1], C=10.0)
    object.__setattr__(idle, "alphas", np.zeros(2))
    object.__setattr__(idle, "bias", 0.3)
    np.testing.assert_allclose(decision_values(idle, _cross_gram(np.eye(2), idle.train_ids)),
                               [0.3, 0.3])


def test_decision_reproduces_training_margin():
    rng = np.random.default_rng(51)
    X = rng.uniform(0, pi, size=(8, 2))
    y = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    cfg = quantum_config("yyy", 2, 1)
    gram = gram_matrix(X, None, cfg, row_ids=tuple(f"r{i}" for i in range(8)))
    model = train(gram, y, C=1.0)
    sv = int(model.support_indices[0])
    cross = GramMatrix(gram.values[sv:sv + 1], ("q",), gram.row_ids, cfg, False)
    train_f = gram.values @ (model.alphas * model.labels) + model.bias
    assert decision_values(model, cross)[0] == pytest.approx(train_f[sv], abs=1e-10)


def test_predict_signs_and_tie_rule():
    model = train(_sym_gram(np.eye(2)), [1, -1], C=10.0)
    object.__setattr__(model, "alphas", np.zeros(2))
    for bias, expected in ((0.4, 1), (-2.0, -1), (0.0, -1)):
        object.__setattr__(model, "bias", bias)
        assert predict(model, _cross_gram(np.array([[0.0, 0.0]]), model.train_ids))[0] == expected


def test_id_mismatch_is_rejected():
    model = train(_sym_gram(np.eye(2)), [1, -1])
    bad = _cross_gram(np.eye(2), ("other0", "other1"))
    with pytest.raises(ValueError, match="training samples"):
        decision_values(model, bad)


def test_separable_toy_set_is_memorized():
    # clusters around two anchors whose mapped states are nearly orthogonal
    # (fidelity ~3e-5 under the y+yy map), so the set is kernel-separable
    rng = np.random.default_rng(61)
    anchor_pos = np.array([2.6617, 0.0060])
    anchor_neg = np.array([2.7960, 1.0516])
    pos = np.clip(anchor_pos + rng.normal(0, 0.05, (4, 2)), 0, pi)
    neg = np.clip(anchor_neg + rng.normal(0, 0.05, (4, 2)), 0, pi)
    X = np.vstack([pos, neg])
    y = np.array([1] * 4 + [-1] * 4)
    train_g, cross_g = gram_pair(X, X, quantum_config("yyy", 2, 2))
    model = train(train_g, y, C=10.0)
    assert np.array_equal(predict(model, cross_g), y)



def _labels(rng, n):
    y = rng.choice([-1.0, 1.0], size=n)
    y[:2] = (1.0, -1.0)
    return y


def _psd_case(C):
    def case():
        rng = np.random.default_rng(71)
        return _random_psd(rng, 30), _labels(rng, 30), C
    return case


def _rbf_case():
    rng = np.random.default_rng(72)
    X = rng.normal(size=(40, 5))
    return gram_matrix(X, None, rbf_config(gamma=0.2)).values, _labels(rng, 40), 1.0


def _zz_case():
    rng = np.random.default_rng(73)
    X = rng.uniform(0, pi, size=(24, 3))
    return gram_matrix(X, None, quantum_config("zz", 3)).values, _labels(rng, 24), 1.0


def _shots_case():
    rng = np.random.default_rng(74)
    X = rng.uniform(0, pi, size=(30, 3))
    cfg = quantum_config("yyy", 3, 1, shots=64, master_seed=5)
    clipped = gram_matrix(X, None, cfg).values
    assert not np.array_equal(clipped, gram_matrix(X, None, cfg, clip=False).values)
    return clipped, _labels(rng, 30), 1.0


def _indefinite_case():
    return _indefinite_4x4(), np.array([1.0, -1.0, 1.0, -1.0]), 1.0


def _duplicate_rows_case():
    rng = np.random.default_rng(75)
    idx = np.array([0, 1, 2, 3, 0, 4, 1, 5, 2, 0, 6, 7])
    K = _random_psd(rng, 8)[np.ix_(idx, idx)]
    y = _labels(rng, 8)[idx]  # duplicates share a label, so their criteria tie
    return K, y, 1.0


def _all_at_bound_case():
    rng = np.random.default_rng(79)  # eight labels of each class: every alpha ends at C
    return _random_psd(rng, 16), _labels(rng, 16), 1e-3


@pytest.mark.parametrize("case", [
    _psd_case(0.5), _psd_case(1.0), _psd_case(10.0), _rbf_case, _zz_case, _shots_case,
    _indefinite_case, _duplicate_rows_case, _all_at_bound_case,
], ids=["psd-C0.5", "psd-C1", "psd-C10", "rbf", "zz-F3", "shots-clipped", "indefinite",
        "duplicate-rows", "C1e-3-all-at-bound"])
def test_smo_matches_reference_loop_bitwise(case):
    K, y, C = case()
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        model = train(_sym_gram(K), y, C=C)
    with warnings.catch_warnings(record=True) as ref_warnings:
        warnings.simplefilter("always")
        alphas, bias, n_iter, converged = reference_smo(K, y, C, 1e-3)
    assert model.alphas.tobytes() == alphas.tobytes()
    assert model.bias == bias
    assert model.n_iter == n_iter and model.converged == converged
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in ref_warnings]
    if C == 1e-3:  # the bias comes from the empty-free-set branch
        assert not np.any((alphas > 0) & (alphas < C))


def test_nonconvergence_warns_once_and_reports_it(monkeypatch):
    rng = np.random.default_rng(81)
    K, y = _random_psd(rng, 12), _labels(rng, 12)
    monkeypatch.setattr(svm, "_MAX_ITER", 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = train(_sym_gram(K), y, C=1.0)
    assert model.converged is False and model.n_iter == 3
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1 and "SMO did not reach tol" in runtime[0]


def test_indefinite_gram_warns_once_per_call():
    gram = _sym_gram(_indefinite_4x4())
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train(gram, [1, -1, 1, -1], C=1.0)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1 and "not positive semidefinite" in messages[0]
