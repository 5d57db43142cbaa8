"""Tests for kernel entries, Gram assembly, PSD clipping, and the gram file."""
import json
import re
from itertools import product
from math import cos, exp, pi

import numpy as np
import pytest

from qkslab import kernels
from qkslab.feature_maps import PRESETS, FeatureMapSpec, build_feature_map
from qkslab.kernels import (GramMatrix, KernelConfig, gram_matrix, gram_pair, psd_clip,
                            quantum_config, quantum_kernel_entry, rbf_config,
                            rbf_kernel_entry, read_gram, resolve_gamma, rbf_gamma_scale,
                            write_gram)
from qkslab.seeding import mix64
from qkslab.simulator import simulate


def test_identical_inputs_give_unit_kernel():
    spec = FeatureMapSpec(("Y", "YY"), 3, 2)
    x = np.array([0.3, 1.2, 2.4])
    assert quantum_kernel_entry(spec, x, x) == pytest.approx(1.0, abs=1e-12)


def test_z_single_feature_closed_form():
    spec = FeatureMapSpec(("Z",), 1, 1)
    assert quantum_kernel_entry(spec, [0.0], [pi / 2]) == pytest.approx(0.0, abs=1e-12)
    assert quantum_kernel_entry(spec, [0.0], [pi / 4]) == pytest.approx(0.5, abs=1e-12)
    for x in np.linspace(0, pi, 7):
        for y in np.linspace(0, pi, 5):
            assert quantum_kernel_entry(spec, [x], [y]) == pytest.approx(cos(y - x) ** 2, abs=1e-9)


def test_rbf_entries():
    assert rbf_kernel_entry([1.0, 2.0], [1.0, 2.0], 0.7) == 1.0
    assert rbf_kernel_entry([0.0], [1.0], 1.0) == pytest.approx(exp(-1.0))
    assert rbf_kernel_entry([1.0, 2.0], [2.0, 4.0], 0.5) == pytest.approx(exp(-2.5))
    with pytest.raises(ValueError):
        rbf_kernel_entry([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        rbf_kernel_entry([1.0], [2.0], 0.0)


def test_gram_trivial_cases():
    cfg = quantum_config("yyy", 2, 1)
    one = gram_matrix(np.array([[0.4, 1.1]]), None, cfg)
    np.testing.assert_allclose(one.values, [[1.0]], atol=1e-12)
    two = gram_matrix(np.array([[0.4, 1.1], [0.4, 1.1]]), None, cfg)
    np.testing.assert_allclose(two.values, np.ones((2, 2)), atol=1e-12)


def test_gram_matches_entrywise_oracle():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, pi, size=(4, 2))
    spec = FeatureMapSpec(("Y", "YY"), 2, 1)
    gram = gram_matrix(X, None, quantum_config("yyy", 2, 1))
    states = [simulate(build_feature_map(spec, x)).amplitudes for x in X]
    expected = np.array([[abs(np.vdot(b, a)) ** 2 for b in states] for a in states])
    np.testing.assert_allclose(gram.values, expected, atol=1e-9)
    assert gram.symmetric and gram.row_ids == gram.col_ids


def test_cross_gram_keeps_ids_and_shape():
    rng = np.random.default_rng(6)
    cfg = rbf_config(gamma=0.5)
    g = gram_matrix(rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (5, 2)), cfg,
                    row_ids=("a", "b", "c"), col_ids=tuple("vwxyz"))
    assert g.values.shape == (3, 5)
    assert not g.symmetric
    with pytest.raises(ValueError):
        gram_matrix(rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (5, 3)), cfg)


def test_symmetry_is_exact_by_construction():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, pi, size=(8, 3))
    for cfg in (quantum_config("yyy", 3, 2), rbf_config(gamma=0.3),
                quantum_config("yyy", 3, 1, shots=256, master_seed=9)):
        g = gram_matrix(X, None, cfg, clip=False)
        assert np.array_equal(g.values, g.values.T)


def test_exact_grams_are_psd_across_presets():
    rng = np.random.default_rng(8)
    for preset in sorted(PRESETS):
        for _ in range(10):
            X = rng.uniform(0, pi, size=(8, 3))
            g = gram_matrix(X, None, quantum_config(preset, 3, 2))
            assert np.linalg.eigvalsh(g.values).min() >= -1e-8
            np.testing.assert_allclose(np.diag(g.values), 1.0, atol=1e-12)


def test_shots_gram_is_deterministic_and_unbiased():
    rng = np.random.default_rng(9)
    X = rng.uniform(0, pi, size=(4, 2))
    cfg = quantum_config("yyy", 2, 1, shots=1024, master_seed=77)
    a = gram_matrix(X, None, cfg, clip=False)
    b = gram_matrix(X, None, cfg, clip=False)
    assert np.array_equal(a.values, b.values)
    np.testing.assert_allclose(np.diag(a.values), 1.0)  # p=1 entries sample exactly

    exact = gram_matrix(X, None, quantum_config("yyy", 2, 1)).values[0, 1]
    shots = 1024
    est = []
    for seed in range(400):
        cfg_s = quantum_config("yyy", 2, 1, shots=shots, master_seed=seed)
        est.append(gram_matrix(X[:2], None, cfg_s, clip=False).values[0, 1])
    se = np.sqrt(exact * (1 - exact) / (shots * len(est)))
    assert abs(np.mean(est) - exact) < 3 * se


@pytest.mark.parametrize("features", [2, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_shots_gram_pair_entries_match_the_circuit_oracle(preset, features):
    # train entry (i, j) is drawn with seed mix64(master, min(i, j), max(i, j)),
    # cross entry (test i, train j) with mix64(master, _CROSS, i, j)
    rng = np.random.default_rng(10)
    train = rng.uniform(0, pi, size=(5, features))
    test = rng.uniform(0, pi, size=(3, features))
    shots, master = 256, 123
    cfg = quantum_config(preset, features, 2, shots=shots, master_seed=master)
    train_g, cross_g = gram_pair(train, test, cfg, clip=False)

    def oracle(x, y, seed):
        return quantum_kernel_entry(cfg.feature_map, x, y, shots=shots, entry_seed=seed)

    for i, j in product(range(5), range(5)):
        seed = mix64(master, min(i, j), max(i, j))
        assert train_g.values[i, j] == oracle(train[i], train[j], seed)
    for i, j in product(range(3), range(5)):
        seed = mix64(master, kernels._CROSS, i, j)
        assert cross_g.values[i, j] == oracle(test[i], train[j], seed)


def test_shots_cross_gram_does_not_reuse_train_gram_seeds():
    train = np.random.default_rng(17).uniform(0, pi, size=(4, 2))
    cfg = quantum_config("zz", 2, 1, shots=64, master_seed=7)
    train_g, cross_g = gram_pair(train, train[:2], cfg, clip=False)
    assert not np.array_equal(cross_g.values, train_g.values[:2])


def test_psd_clip_examples():
    identity = GramMatrix(np.eye(3), ("a", "b", "c"), ("a", "b", "c"),
                          rbf_config(gamma=1.0), True)
    assert psd_clip(identity) is identity

    cfg = rbf_config(gamma=1.0)
    wobbly = GramMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]), ("a", "b"), ("a", "b"), cfg, True)
    clipped = psd_clip(wobbly)
    np.testing.assert_allclose(clipped.values, [[1.1, 1.1], [1.1, 1.1]], atol=1e-12)

    rng = np.random.default_rng(11)
    X = rng.uniform(0, pi, size=(8, 2))
    exact = gram_matrix(X, None, quantum_config("yyy", 2, 2))
    assert psd_clip(exact) is exact  # PSD by construction -> untouched

    with pytest.raises(ValueError):
        psd_clip(GramMatrix(np.ones((2, 3)), ("a", "b"), ("x", "y", "z"), cfg, False))


def test_symmetric_gram_must_be_exactly_symmetric():
    # SMO reads rows of a training gram in place of its columns
    rng = np.random.default_rng(13)
    ids = ("a", "b", "c", "d")
    values = gram_matrix(rng.normal(size=(4, 2)), None, rbf_config(gamma=0.5)).values.copy()
    GramMatrix(values, ids, ids, rbf_config(gamma=0.5), True)
    values[1, 2] = np.nextafter(values[1, 2], 2.0)
    with pytest.raises(ValueError, match="exactly symmetric"):
        GramMatrix(values, ids, ids, rbf_config(gamma=0.5), True)


def test_shots_mode_clips_by_default():
    rng = np.random.default_rng(12)
    X = rng.uniform(0, pi, size=(6, 2))
    cfg = quantum_config("yyy", 2, 1, shots=32, master_seed=3)
    g = gram_matrix(X, None, cfg)
    assert np.linalg.eigvalsh(g.values).min() >= -1e-10


def test_gamma_resolution():
    X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert rbf_gamma_scale(X) == pytest.approx(1.0 / (2 * X.var()))
    assert rbf_gamma_scale(np.ones((3, 2))) == 1.0
    cfg = resolve_gamma(rbf_config(), X)
    assert cfg.gamma == pytest.approx(1.0 / (2 * X.var()))
    with pytest.raises(ValueError):
        gram_matrix(X, None, rbf_config())  # unresolved gamma


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_gram_pair_matches_separate_calls(preset):
    rng = np.random.default_rng(13)
    train = rng.uniform(0, pi, size=(5, 3))
    test = rng.uniform(0, pi, size=(3, 3))
    cfg = quantum_config(preset, 3, 2)
    train_g, cross_g = gram_pair(train, test, cfg)
    assert np.array_equal(train_g.values, gram_matrix(train, None, cfg).values)
    assert np.array_equal(cross_g.values, gram_matrix(test, train, cfg).values)
    assert cross_g.col_ids == train_g.row_ids


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
def test_rbf_gamma_must_be_finite_and_positive(gamma):
    with pytest.raises(ValueError, match="gamma must be a finite positive number"):
        rbf_config(gamma)


def test_a_nan_sample_trips_the_value_guards():
    rows = np.array([[0.1, 0.2]])
    cols = np.array([[0.3, 0.4], [np.nan, 0.5]])
    with pytest.raises(AssertionError, match=r"escaped \[0, 1\]"):
        gram_matrix(rows, cols, rbf_config(gamma=1.0))
    with pytest.raises(ArithmeticError, match="norm drifted to nan"):
        gram_matrix(rows, cols, quantum_config("zz", 2, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        quantum_config("yyy", 2, 1, shots=2000)
    assert quantum_config("yyy", 2, 1, shots=2000, allow_overshoot=True).shots == 2000
    with pytest.raises(ValueError):
        quantum_config("yyy", 2, 1, shots=0)
    with pytest.raises(ValueError):
        KernelConfig(None, 1.0, 100, name="rbf")  # rbf in shots mode
    with pytest.raises(ValueError):
        KernelConfig(None, 1.0)  # unnamed
    rbf, exact = rbf_config(gamma=1.0), quantum_config("yyy", 2, 1)
    shots = quantum_config("yyy", 2, 1, shots=100)
    assert (rbf.kind, rbf.mode) == ("rbf", "exact")
    assert (exact.kind, exact.mode) == ("quantum", "exact")
    assert (shots.kind, shots.mode) == ("quantum", "shots")


def test_gram_file_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    X = rng.uniform(0, pi, size=(4, 2))
    for cfg in (quantum_config("yyy", 2, 2, master_seed=5),
                quantum_config("zz", 2, 1, shots=100, master_seed=6),
                rbf_config(gamma=0.37, master_seed=7)):
        g = gram_matrix(X, None, cfg, clip=False)
        path = tmp_path / f"{cfg.name}.gram"
        write_gram(g, path)
        back = read_gram(path)
        assert np.array_equal(back.values, g.values)  # value-exact round trip
        assert back.row_ids == g.row_ids and back.col_ids == g.col_ids
        assert back.config == g.config
        assert back.symmetric == g.symmetric


def test_gram_file_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.gram"
    path.write_text('{"format": "qkslab-gram", "version": "9.0"}')
    with pytest.raises(ValueError, match="version"):
        read_gram(path)


@pytest.mark.parametrize("edit", [
    {"kind": "rbf", "gamma": 0.5},  # an rbf kernel that still lists pauli_layers
    {"mode": "shots", "shots": None},
    {"kind": "foo"},
], ids=["rbf-with-pauli-layers", "shots-mode-without-shots", "unknown-kind"])
def test_gram_file_rejects_kernel_descriptions_it_would_not_write(tmp_path, edit):
    X = np.random.default_rng(16).uniform(0, pi, size=(3, 2))
    path = tmp_path / "bad.gram"
    write_gram(gram_matrix(X, None, quantum_config("zz", 2, 1)), path)
    doc = json.loads(path.read_text())
    doc["kernel"].update(edit)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"malformed {re.escape(str(path))}"):
        read_gram(path)
