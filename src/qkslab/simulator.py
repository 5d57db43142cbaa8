"""Dense statevector simulation of the {H, RX, P, CX} alphabet.

Convention: little-endian basis ordering (qubit 0 is the least-significant
bit of the amplitude index).  Gate matrices:

    H = [[1, 1], [1, -1]] / sqrt(2)
    RX(t) = [[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]]
    P(t) = diag(1, exp(i t))
    CX flips the target bit where the control bit is 1
"""
from __future__ import annotations

from cmath import exp as cexp
from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .circuits import Circuit, Gate, GateKind
from .seeding import uniforms

MAX_QUBITS = 16  # dense limit; well above anything the experiments need

_INV_SQRT2 = 1.0 / sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray  # complex128, length 2**num_qubits

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError("amplitude length must be 2**num_qubits")


def _apply_1q(state: np.ndarray, m00: complex, m01: complex, m10: complex, m11: complex, qubit: int) -> None:
    view = state.reshape(-1, 2, 1 << qubit)
    a = view[:, 0, :].copy()
    b = view[:, 1, :]
    view[:, 0, :] = m00 * a + m01 * b
    view[:, 1, :] = m10 * a + m11 * b


def _apply_inplace(state: np.ndarray, gate: Gate, num_qubits: int) -> None:
    kind = gate.kind
    if kind is GateKind.H:
        _apply_1q(state, _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2, gate.qubits[0])
    elif kind is GateKind.RX:
        c = cos(gate.angle / 2.0)
        s = -1j * sin(gate.angle / 2.0)
        _apply_1q(state, c, s, s, c, gate.qubits[0])
    elif kind is GateKind.P:
        view = state.reshape(-1, 2, 1 << gate.qubits[0])
        view[:, 1, :] *= cexp(1j * gate.angle)
    else:  # CX
        control, target = gate.qubits
        t = state.reshape([2] * num_qubits)
        ac, at = num_qubits - 1 - control, num_qubits - 1 - target
        i0: list = [slice(None)] * num_qubits
        i1: list = [slice(None)] * num_qubits
        i0[ac], i0[at] = 1, 0
        i1[ac], i1[at] = 1, 1
        lo, hi = tuple(i0), tuple(i1)
        tmp = t[lo].copy()
        t[lo] = t[hi]
        t[hi] = tmp


def simulate(circuit: Circuit) -> Statevector:
    """Run the circuit on |0...0> and return the final state."""
    n = circuit.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the dense limit of {MAX_QUBITS}")
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    for gate in circuit.gates:
        _apply_inplace(state, gate, n)
    norm = float(np.sum(state.real**2 + state.imag**2))
    if not abs(norm - 1.0) <= 1e-9:
        raise ArithmeticError(f"statevector norm drifted to {norm}")
    return Statevector(n, state)


def zero_probability(state: Statevector) -> float:
    """Probability of measuring the all-zeros bitstring."""
    a = state.amplitudes[0]
    return float(a.real**2 + a.imag**2)


def sample_zero_count(prob: float, shots: int, seed: int) -> int:
    """Count all-zeros outcomes over ``shots`` seeded Bernoulli draws.

    Each shot compares one SplitMix64 uniform against ``prob``, the
    all-zeros probability (``zero_probability`` of a simulated circuit, or
    an exact fidelity), so identical (prob, shots, seed) always reproduce
    the same count.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return int(np.count_nonzero(uniforms(seed, shots) < prob))
