"""Tests for Gram assembly against the kernel-entry oracle, PSD clipping, and the gram file."""
import gc
import tracemalloc
from itertools import product
from math import cos, exp, pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkslab import kernels
from qkslab.documents import read_json
from qkslab.feature_maps import PRESETS, FeatureMapSpec, build_feature_map
from qkslab.kernels import (GramMatrix, KernelConfig, config_to_doc, gram_matrix, gram_pair,
                            psd_clip, quantum_config, rbf_config, resolve_gamma, write_gram)
from qkslab.seeding import mix64
from qkslab.simulator import simulate

from oracles import kernel_entry, rbf_squared_distances, reference_fidelity, reference_mirror


def test_identical_inputs_give_unit_kernel():
    spec = FeatureMapSpec(("Y", "YY"), 3, 2)
    x = np.array([0.3, 1.2, 2.4])
    assert kernel_entry(spec, x, x) == pytest.approx(1.0, abs=1e-12)


def test_z_single_feature_closed_form():
    spec = FeatureMapSpec(("Z",), 1, 1)
    cfg = quantum_config("z", 1, 1)
    assert kernel_entry(spec, [0.0], [pi / 2]) == pytest.approx(0.0, abs=1e-12)
    assert kernel_entry(spec, [0.0], [pi / 4]) == pytest.approx(0.5, abs=1e-12)
    for x in np.linspace(0, pi, 7):
        for y in np.linspace(0, pi, 5):
            assert kernel_entry(spec, [x], [y]) == pytest.approx(cos(y - x) ** 2, abs=1e-9)
            assert gram_matrix([[x]], [[y]], cfg).values[0, 0] == pytest.approx(cos(y - x) ** 2, abs=1e-9)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_statevector_stack_is_the_per_gate_simulation(preset):
    rng = np.random.default_rng(31)
    lowest = 2 if any(len(layer) == 2 for layer in PRESETS[preset]) else 1
    for features, reps in product(range(lowest, 9), (1, 2, 3)):
        spec = FeatureMapSpec(PRESETS[preset], features, reps)
        X = rng.uniform(0, pi, size=(3, features))
        stack = kernels._statevector_stack(spec, X)
        oracle = np.stack([simulate(build_feature_map(spec, x)).amplitudes for x in X])
        assert np.abs(stack - oracle).max() <= 1e-12, (features, reps)
        assert np.abs(np.linalg.norm(stack, axis=1) - 1.0).max() <= 1e-12, (features, reps)


def test_gram_trivial_cases():
    cfg = quantum_config("yyy", 2, 1)
    one = gram_matrix(np.array([[0.4, 1.1]]), None, cfg)
    np.testing.assert_allclose(one.values, [[1.0]], atol=1e-12)
    two = gram_matrix(np.array([[0.4, 1.1], [0.4, 1.1]]), None, cfg)
    np.testing.assert_allclose(two.values, np.ones((2, 2)), atol=1e-12)
    assert gram_matrix([[1.0, 2.0]], None, rbf_config(0.7)).values[0, 0] == 1.0
    rbf = gram_matrix([[1.0, 2.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]], rbf_config(0.5))
    np.testing.assert_allclose(rbf.values, [[1.0, exp(-2.5)], [exp(-2.5), exp(-10.0)]], rtol=1e-15)


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
    train_g = gram_matrix(train, None, cfg, clip=False)  # gram_pair's train Gram, before the clip
    cross_g = gram_pair(train, test, cfg)[1]

    def oracle(x, y, seed):
        return kernel_entry(cfg.feature_map, x, y, shots=shots, entry_seed=seed)

    for i, j in product(range(5), range(5)):
        seed = mix64(master, min(i, j), max(i, j))
        assert train_g.values[i, j] == oracle(train[i], train[j], seed)
    for i, j in product(range(3), range(5)):
        seed = mix64(master, kernels._CROSS, i, j)
        assert cross_g.values[i, j] == oracle(test[i], train[j], seed)


def test_shots_cross_gram_does_not_reuse_train_gram_seeds():
    train = np.random.default_rng(17).uniform(0, pi, size=(4, 2))
    cfg = quantum_config("zz", 2, 1, shots=64, master_seed=7)
    train_g, cross_g = gram_matrix(train, None, cfg, clip=False), gram_pair(train, train[:2], cfg)[1]
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
    cfg = resolve_gamma(rbf_config(), X)
    assert cfg.gamma == pytest.approx(1.0 / (2 * X.var()))
    assert resolve_gamma(rbf_config(), np.ones((3, 2))).gamma == 1.0


def test_an_unset_gamma_is_resolved_from_the_train_split():
    rng = np.random.default_rng(15)
    train, test = rng.normal(size=(6, 3)), rng.normal(2.0, 3.0, size=(4, 3))
    unset = rbf_config(master_seed=4)
    preset = rbf_config(1.0 / (train.shape[1] * train.var()), master_seed=4)

    def same(got, want):
        assert np.array_equal(got.values, want.values)
        assert got.config == want.config

    same(gram_matrix(train, None, unset), gram_matrix(train, None, preset))
    same(gram_matrix(test, train, unset), gram_matrix(test, train, preset))
    for got, want in zip(gram_pair(train, test, unset), gram_pair(train, test, preset)):
        same(got, want)


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


@st.composite
def _distance_samples(draw):
    """Two sample sets with repeated rows, one constant column and column scales 10^4 apart."""
    features = draw(st.sampled_from([*range(1, 21), 64, 129, 200]))
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = rng.permutation(np.where(np.arange(features) % 2 == 0, 1e2, 1e-2))
    distinct = rng.normal(size=(max(1, (n + m) // 2), features)) * scales
    samples = distinct[rng.integers(len(distinct), size=n + m)]  # drawn with replacement
    samples[:, rng.integers(features)] = rng.normal()
    return samples[:n], samples[n:]


@settings(max_examples=80, deadline=None)
@given(_distance_samples())
def test_squared_distances_equal_the_difference_tensor_bitwise(samples):
    a, b = samples
    for x, y in ((a, a), (a, b), (b, a)):
        assert np.array_equal(kernels._squared_distances(x, y), rbf_squared_distances(x, y))
    assert np.array_equal(gram_matrix(a, None, rbf_config(0.3)).values,
                          np.exp(-0.3 * rbf_squared_distances(a, a)))
    assert np.array_equal(gram_matrix(a, b, rbf_config(0.3)).values,
                          np.exp(-0.3 * rbf_squared_distances(a, b)))


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """``==`` down to the sign of a zero and the payload of a NaN."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fidelity_equals_its_oracle_bitwise():
    rng = np.random.default_rng(41)

    def states(rows, features):
        z = rng.normal(size=(rows, 2**features)) + 1j * rng.normal(size=(rows, 2**features))
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    for features in range(1, 9):
        for n, m in ((1, 1), (1, 7), (9, 1), (12, 30)):
            a, b = states(n, features), states(m, features)
            assert _same_bits(kernels._fidelity(a, b), reference_fidelity(a, b)), (features, n, m)
        assert _same_bits(kernels._fidelity(a, a), reference_fidelity(a, a)), features


def test_mirror_equals_its_oracle_bitwise_and_ignores_the_lower_triangle():
    rng = np.random.default_rng(43)
    for n in (1, 2, 5, 40):
        values = rng.normal(size=(n, n))
        values[rng.random((n, n)) < 0.2] = -0.0
        values[rng.random((n, n)) < 0.1] = np.nan
        values[0, -1], values[-1, -1] = -0.0, np.nan  # in the upper triangle and on the diagonal
        want = reference_mirror(values)
        other_lower = values.copy()
        other_lower[np.tril_indices(n, -1)] = rng.choice([np.inf, np.nan, -0.0, 7.0], n * (n - 1) // 2)
        for got in (values.copy(), other_lower):
            assert kernels._mirror_upper(got) is got  # in place
            assert _same_bits(got, want), n
        assert not np.signbit(want[want == 0]).any()  # x + 0.0 turned every -0.0 into 0.0


@pytest.mark.parametrize("shots", [None, 16], ids=["exact", "shots"])
def test_quantum_grams_equal_the_oracle_composition_bitwise(shots):
    rng = np.random.default_rng(47)
    train, test = rng.uniform(0, pi, size=(24, 3)), rng.uniform(0, pi, size=(9, 3))
    cfg = quantum_config("zz", 3, shots=shots, master_seed=9)
    train_states = kernels._statevector_stack(cfg.feature_map, train)
    test_states = kernels._statevector_stack(cfg.feature_map, test)
    probs, cross = reference_fidelity(train_states, train_states), reference_fidelity(test_states, train_states)
    np.fill_diagonal(probs, 1.0)
    if shots:
        probs = kernels._shots_quantum_values(cfg, probs, True)
        cross = kernels._shots_quantum_values(cfg, cross, False)
    want = reference_mirror(probs)
    assert _same_bits(gram_matrix(train, None, cfg, clip=False).values, want)
    if shots:
        eigvals, eigvecs = np.linalg.eigh(want)
        assert eigvals.min() < -1e-8  # psd_clip rebuilds this Gram
        want = reference_mirror((eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T)
    train_gram, cross_gram = gram_pair(train, test, cfg)
    assert _same_bits(train_gram.values, want)
    assert _same_bits(cross_gram.values, cross)


@pytest.mark.parametrize("config, rows, bound", [
    (rbf_config(0.2), 280, 4),  # the (n, n, F) difference tensor alone took 7 buffers
    (quantum_config("zz", 3), 280, 3.5),  # overlaps squared apart and mirrored through copies: 4.31
    (quantum_config("zz", 3, shots=64, master_seed=5), 140, 4.75),  # the same, and psd_clip's: 6.90
], ids=["rbf", "exact", "shots"])
def test_gram_pair_peaks_within_its_buffers_and_keeps_none(config, rows, bound):
    rng = np.random.default_rng(21)
    features = 7 if config.kind == "rbf" else 3
    train, test = rng.normal(size=(rows, features)), rng.normal(size=(rows * 3 // 7, features))
    gram_bytes = rows * rows * 8  # the pair's largest Gram, train x train
    train_gram, _ = gram_pair(train, test, config)  # first-call allocations are not the Gram's
    if config.mode == "shots":  # the peak covers psd_clip's rebuild
        assert not np.array_equal(train_gram.values, gram_matrix(train, None, config, clip=False).values)
    del train_gram
    tracemalloc.start()
    gc.disable()  # a buffer kept alive by a reference cycle stays counted
    try:
        gram_pair(train, test, config)
        _, peak = tracemalloc.get_traced_memory()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(20 if config.kind == "rbf" else 2):  # a traced quantum call takes seconds
            gram_pair(train, test, config)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        gc.enable()
        tracemalloc.stop()
    assert peak < bound * gram_bytes
    assert after - before < gram_bytes


def test_statevector_stack_is_written_into_one_array():
    spec = FeatureMapSpec(PRESETS["zz"], 8, 2)
    samples = np.random.default_rng(23).uniform(0, pi, size=(200, 8))
    stack_bytes = 200 * 2**8 * 16
    kernels._statevector_stack(spec, samples)
    tracemalloc.start()
    try:
        kernels._statevector_stack(spec, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * stack_bytes  # a list of states, then their stack, took 2.07 stacks


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0, True])
def test_rbf_gamma_must_be_finite_and_positive(gamma):
    with pytest.raises(ValueError, match=r"^gamma must be a number in \(0, inf\), got "):
        rbf_config(gamma)


def test_a_nan_sample_trips_the_value_guards():
    rows = np.array([[0.1, 0.2]])
    cols = np.array([[0.3, 0.4], [np.nan, 0.5]])
    with pytest.raises(AssertionError, match=r"escaped \[0, 1\]"):
        gram_matrix(rows, cols, rbf_config(gamma=1.0))
    with pytest.raises(ArithmeticError, match="norm drifted to nan"):
        gram_matrix(rows, cols, quantum_config("zz", 2, 1))


@pytest.mark.parametrize("rows, cols", [
    (np.zeros((0, 2)), None), (np.zeros((3, 0)), None), (np.zeros((3, 2, 2)), None),
    (np.zeros((0, 2)), np.zeros((3, 2))), (np.zeros((3, 2)), np.zeros((0, 2))),
])
def test_a_gram_needs_a_2d_array_of_samples_before_any_state_is_prepared(monkeypatch, rows, cols):
    # a 3-D array of rows would otherwise reach the builder as a batch per row
    def no_states(*args):
        raise AssertionError("a state was prepared")
    monkeypatch.setattr(kernels, "_statevector_stack", no_states)
    message = r"^a Gram needs \(samples, features\) of at least one each, got shape \((0, 2|3, 0|3, 2, 2)\)$"
    for cfg in (rbf_config(), rbf_config(gamma=1.0), quantum_config("zz", 2, 1)):
        with pytest.raises(ValueError, match=message):
            gram_matrix(rows, cols, cfg)
        if cols is not None:
            with pytest.raises(ValueError, match=message):
                gram_pair(cols, rows, cfg)


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
    assert quantum_config("z", 16, 1).feature_map.num_features == 16
    with pytest.raises(ValueError, match="^17 qubits exceeds the dense limit of 16$"):
        quantum_config("z", 17, 1)  # a map the simulator cannot run
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
        doc = read_json(path, {"qkslab-gram": "2.0"})
        assert np.array_equal(np.array(doc["values"]), g.values)  # value-exact
        assert tuple(doc["row_ids"]) == g.row_ids and tuple(doc["col_ids"]) == g.col_ids
        assert doc["kernel"] == config_to_doc(cfg)
        assert doc["features"] == (None if cfg.feature_map is None else 2)
        assert doc["symmetric"] == g.symmetric
