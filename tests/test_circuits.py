"""Tests for the circuit IR: validation, adjoint, depth, serialization."""
from math import pi

import pytest

from qkslab.circuits import (Circuit, Gate, GateKind, adjoint, circuit_from_text,
                             circuit_to_text, compose, cx, dag_depth, h, p, rx)


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


def test_text_round_trip():
    c = Circuit(3, (h(0), rx(pi / 2, 1), p(2.8, 2), cx(0, 1), rx(-1.2345678901234567, 0)))
    text = circuit_to_text(c)
    assert text.splitlines()[0] == "QUBITS 3"
    back = circuit_from_text(text)
    assert back.num_qubits == c.num_qubits
    assert back.gates == c.gates  # angles survive exactly


def test_text_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        circuit_from_text("H q0\n")
    with pytest.raises(ValueError, match="line 2"):
        circuit_from_text("QUBITS 2\nRZ 0.5 q0\n")
    with pytest.raises(ValueError, match="line 3"):
        circuit_from_text("QUBITS 2\nH q0\nRX oops q1\n")


def test_dag_depth_overlaps_disjoint_gates():
    c = Circuit(4, (h(0), h(1), h(2), h(3), cx(0, 1), cx(2, 3)))
    assert dag_depth(c) == 2
