"""Tests for the circuit IR: validation, adjoint, depth."""
from math import pi

import pytest

from qkslab.circuits import Circuit, Gate, GateKind, adjoint, compose, cx, dag_depth, h, p, rx


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
    assert dag_depth(Circuit(3, ())) == 0


def test_adjoint_examples():
    assert adjoint(Circuit(1, (h(0),))).gates == (h(0),)
    c = Circuit(1, (rx(pi / 2, 0), p(1.4, 0)))
    assert adjoint(c).gates == (p(-1.4, 0), rx(-pi / 2, 0))


def test_adjoint_is_involution():
    c = Circuit(3, (h(0), rx(0.3, 1), cx(0, 2), p(2.2, 2), cx(1, 2)))
    assert adjoint(adjoint(c)) == c


def test_compose_adds_depths_and_checks_register():
    a = Circuit(2, (h(0),))
    b = Circuit(2, (cx(0, 1),))
    assert dag_depth(compose(a, b)) == 2
    assert compose(a, b).gates == (h(0), cx(0, 1))
    with pytest.raises(ValueError):
        compose(a, Circuit(3, ()))


def test_dag_depth_overlaps_disjoint_gates():
    c = Circuit(4, (h(0), h(1), h(2), h(3), cx(0, 1), cx(2, 3)))
    assert dag_depth(c) == 2
