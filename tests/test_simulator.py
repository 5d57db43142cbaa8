"""Tests for the statevector simulator against a full-matrix oracle."""
from math import pi, sqrt

import numpy as np
import pytest

from qkslab.circuits import Circuit, adjoint, compose, cx, h, p, rx
from qkslab.simulator import Statevector, sample_zero_count, simulate, zero_probability

from oracles import gate_matrix, random_circuit, simulate_by_matrices


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
        state = simulate(compose(c, adjoint(c)))
        expected = np.zeros(2**n)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-9)


def test_qubit_limit():
    with pytest.raises(ValueError):
        simulate(Circuit(17, ()))


def test_zero_probability():
    assert zero_probability(Statevector(2, np.array([1, 0, 0, 0], dtype=complex))) == 1.0
    bell = simulate(Circuit(2, (h(0), cx(0, 1))))
    assert zero_probability(bell) == pytest.approx(0.5)
    for theta in (0.0, 1.0, pi, 4.5):
        s = Statevector(1, np.array([1 / sqrt(2), np.exp(1j * theta) / sqrt(2)]))
        assert zero_probability(s) == pytest.approx(0.5)


def test_sampling_extremes_and_determinism():
    for seed in (0, 1, 999):
        assert sample_zero_count(1.0, 1024, seed) == 1024
        assert sample_zero_count(0.0, 1024, seed) == 0
    p = zero_probability(simulate(Circuit(1, (h(0),))))
    a = sample_zero_count(p, 512, 42)
    b = sample_zero_count(p, 512, 42)
    assert a == b
    with pytest.raises(ValueError):
        sample_zero_count(p, 0, 1)


def test_sampling_mean_approaches_probability():
    p = zero_probability(simulate(Circuit(1, (h(0),))))  # 0.5
    shots = 1024
    estimates = [sample_zero_count(p, shots, seed) / shots for seed in range(10_000)]
    assert abs(np.mean(estimates) - 0.5) < 0.005
