"""Tests for the circuit IR: validation and depth."""
import pytest

from qkslab.circuits import Circuit, Gate, GateKind, cx, dag_depth, h


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0,), 1.0)  # H carries no angle
    with pytest.raises(ValueError):
        Gate(GateKind.RX, (0,))  # RX needs an angle
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (1, 1))  # control == target
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (0,))  # wrong arity
    with pytest.raises(ValueError):
        Gate(GateKind.H, (-1,))


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        Circuit(1, (cx(0, 1),))


def test_dag_depth_of_small_circuits():
    assert dag_depth(Circuit(2, (h(0), h(1), cx(0, 1)))) == 2
    assert dag_depth(Circuit(2, (h(0), cx(0, 1)))) == 2
    assert dag_depth(Circuit(3, ())) == 0


def test_dag_depth_overlaps_disjoint_gates():
    c = Circuit(4, (h(0), h(1), h(2), h(3), cx(0, 1), cx(2, 3)))
    assert dag_depth(c) == 2
