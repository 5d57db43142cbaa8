"""Tests for the statevector simulator against a full-matrix oracle."""
import tracemalloc
from math import pi, sqrt

import numpy as np
import pytest

from qkslab import simulator
from qkslab.circuits import Circuit, cx, h, p, rx
from qkslab.feature_maps import PRESETS, FeatureMapSpec, build_feature_map
from qkslab.simulator import Statevector, sample_zero_count, simulate

from oracles import gate_matrix, inverse, random_circuit, simulate_by_matrices


def test_hadamard_amplitudes():
    state = simulate(Circuit(1, (h(0),)))
    np.testing.assert_allclose(state.amplitudes, [1 / sqrt(2), 1 / sqrt(2)], atol=1e-12)


def test_empty_circuit_is_identity():
    state = simulate(Circuit(2, ()))
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=0)


def test_bell_state_matches_matrix_product():
    c = Circuit(2, (h(0), cx(0, 1)))
    np.testing.assert_allclose(simulate(c).amplitudes, simulate_by_matrices(c), atol=1e-12)
    np.testing.assert_allclose(simulate(c).amplitudes, [1 / sqrt(2), 0, 0, 1 / sqrt(2)], atol=1e-12)


def test_gate_matrix_conventions():
    theta = 0.7
    rx_mat = gate_matrix(rx(theta, 0), 1)
    np.testing.assert_allclose(
        rx_mat,
        [[np.cos(theta / 2), -1j * np.sin(theta / 2)],
         [-1j * np.sin(theta / 2), np.cos(theta / 2)]],
    )
    np.testing.assert_allclose(simulate(Circuit(1, (rx(theta, 0),))).amplitudes,
                               rx_mat @ np.array([1, 0]), atol=1e-12)
    # RX(pi)|0> = -i|1>, so P(theta) then gives -i exp(i theta)|1>
    p_state = simulate(Circuit(1, (rx(pi, 0), p(theta, 0)))).amplitudes
    np.testing.assert_allclose(p_state, [0, -1j * np.exp(1j * theta)], atol=1e-12)


def test_oracle_equivalence_on_random_circuits():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        c = random_circuit(rng, n, int(rng.integers(1, 21)))
        np.testing.assert_allclose(simulate(c).amplitudes, simulate_by_matrices(c), atol=1e-9)


def test_norm_preserved_gate_by_gate():
    rng = np.random.default_rng(11)
    c = random_circuit(rng, 4, 60)
    for k in range(len(c.gates) + 1):
        state = simulate(Circuit(4, c.gates[:k])).amplitudes
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


def test_adjoint_round_trip_on_random_circuits():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        c = random_circuit(rng, n, 50)
        state = simulate(Circuit(n, c.gates + inverse(c).gates))
        expected = np.zeros(2**n)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-9)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("reps", (1, 2, 3))
def test_a_batch_agrees_with_its_rows_and_the_matrix_oracle(preset, reps):
    # within 1e-12, not bit for bit: numpy may take another SIMD loop for a column of phases
    rng = np.random.default_rng(31)
    lo = 1 if all(len(layer) == 1 for layer in PRESETS[preset]) else 2
    for f in range(lo, 9):
        spec = FeatureMapSpec.from_preset(preset, f, reps)
        X = rng.uniform(-2 * pi, 2 * pi, size=(17, f))
        batch = simulate(build_feature_map(spec, X)).amplitudes
        assert batch.shape == (17, 2**f)
        for x, amplitudes in zip(X, batch):
            circuit = build_feature_map(spec, x)
            row = simulate(circuit)
            assert isinstance(row, Statevector) and row.amplitudes.shape == (2**f,)
            np.testing.assert_allclose(amplitudes, row.amplitudes, rtol=0, atol=1e-12)
            np.testing.assert_allclose(amplitudes, simulate_by_matrices(circuit), rtol=0, atol=1e-12)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_batch_of_several_blocks_agrees_with_its_rows(preset):
    # two full blocks of rows and a one-row tail, at every width up to 10 qubits
    rng = np.random.default_rng(37)
    lo = 1 if all(len(layer) == 1 for layer in PRESETS[preset]) else 2
    for f in range(lo, 11):
        rows = 2 * max(1, simulator._BLOCK_AMPLITUDES >> f) + 1
        spec = FeatureMapSpec.from_preset(preset, f)
        X = rng.uniform(-2 * pi, 2 * pi, size=(rows, f))
        batch = simulate(build_feature_map(spec, X)).amplitudes
        alone = np.array([simulate(build_feature_map(spec, x)).amplitudes for x in X])
        np.testing.assert_allclose(batch, alone, rtol=0, atol=1e-12)


def test_a_batch_of_no_rows_is_an_empty_stack():
    spec = FeatureMapSpec.from_preset("yyy", 3)
    assert simulate(build_feature_map(spec, np.zeros((0, 3)))).amplitudes.shape == (0, 8)


def test_a_nan_row_trips_the_batch_norm_check():
    X = np.random.default_rng(3).uniform(0, pi, size=(40, 2))
    X[35, 1] = np.nan  # in the second block of rows
    with pytest.raises(ArithmeticError, match="^statevector norm drifted to nan$"):
        simulate(build_feature_map(FeatureMapSpec.from_preset("zz", 2), X))


def _peak_in_stacks(preset, f, rows, seed):
    """tracemalloc's peak over one batched ``simulate`` (after a warm-up call), in stacks."""
    X = np.random.default_rng(seed).uniform(0, pi, size=(rows, f))
    circuit = build_feature_map(FeatureMapSpec.from_preset(preset, f), X)
    simulate(circuit)
    tracemalloc.start()
    try:
        simulate(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (rows * 2**f * 16)


def test_a_batch_is_simulated_within_one_stack_and_its_blocks():
    # the separable generator's shape: a pool of 1 150 rows and 24 anchors; the peak counts
    # every block's gate temporaries and phases
    assert _peak_in_stacks("yyy", 5, 1174, 29) < 1.25


def test_a_wide_batch_is_simulated_within_one_stack_and_its_blocks():
    # blocks of 4 096 amplitudes hold 16 rows here; blocks of 32 rows peaked at 1.325 stacks
    assert _peak_in_stacks("zz", 8, 200, 23) < 1.25


def test_qubit_limit():
    with pytest.raises(ValueError):
        simulate(Circuit(17, ()))


def _zero_probability(circuit: Circuit) -> float:
    a = simulate(circuit).amplitudes[0]
    return float(a.real**2 + a.imag**2)


def test_zero_probability():
    assert _zero_probability(Circuit(2, ())) == 1.0
    assert _zero_probability(Circuit(2, (h(0), cx(0, 1)))) == pytest.approx(0.5)  # Bell state
    for theta in (0.0, 1.0, pi, 4.5):
        assert _zero_probability(Circuit(1, (h(0), p(theta, 0)))) == pytest.approx(0.5)


def test_sampling_extremes_and_determinism():
    for seed in (0, 1, 999):
        assert sample_zero_count(1.0, 1024, seed) == 1024
        assert sample_zero_count(0.0, 1024, seed) == 0
    p = _zero_probability(Circuit(1, (h(0),)))
    a = sample_zero_count(p, 512, 42)
    b = sample_zero_count(p, 512, 42)
    assert a == b
    with pytest.raises(ValueError):
        sample_zero_count(p, 0, 1)


def test_sampling_mean_approaches_probability():
    p = _zero_probability(Circuit(1, (h(0),)))  # 0.5
    shots = 1024
    estimates = [sample_zero_count(p, shots, seed) / shots for seed in range(10_000)]
    assert abs(np.mean(estimates) - 0.5) < 0.005
