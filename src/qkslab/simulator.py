"""Dense statevector simulation of the {H, RX, P, CX} alphabet.

Convention: little-endian basis ordering (qubit 0 is the least-significant
bit of the amplitude index).  Gate matrices:

    H = [[1, 1], [1, -1]] / sqrt(2)
    RX(t) = [[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]]
    P(t) = diag(1, exp(i t))
    CX flips the target bit where the control bit is 1

A batch circuit, built from N feature rows, carries N angles in each P gate.
It runs as one (N, 2^n) array with the same gates in the same order, in
blocks of ``_BLOCK_AMPLITUDES >> n`` rows, so that the gates' temporaries are
bounded in bytes rather than in rows; a register wider than the budget runs
one row at a time.
"""
from __future__ import annotations

from cmath import exp as cexp
from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .circuits import Circuit, Gate, GateKind
from .documents import check_int
from .seeding import uniforms

MAX_QUBITS = 16  # dense limit; well above anything the experiments need
_BLOCK_AMPLITUDES = 4096  # amplitudes of the batch rows run through the gate list together

_INV_SQRT2 = 1.0 / sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray  # complex128, length 2**num_qubits; (N, 2**num_qubits) for a batch

    def __post_init__(self) -> None:
        if self.amplitudes.shape[-1:] != (2**self.num_qubits,) or self.amplitudes.ndim > 2:
            raise ValueError("amplitude length must be 2**num_qubits")


def _apply_1q(state: np.ndarray, m00: complex, m01: complex, m10: complex, m11: complex, qubit: int) -> None:
    view = state.reshape(-1, 2, 1 << qubit)
    a = view[:, 0, :].copy()
    b = view[:, 1, :]
    view[:, 0, :] = m00 * a + m01 * b
    view[:, 1, :] = m10 * a + m11 * b


def _apply_inplace(state: np.ndarray, gate: Gate, num_qubits: int, rows: slice) -> None:
    """Apply ``gate`` to ``state``, the (B, 2^n) block of a circuit's ``rows``."""
    kind = gate.kind
    if kind is GateKind.H:
        _apply_1q(state, _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2, gate.qubits[0])
    elif kind is GateKind.RX:
        c = cos(gate.angle / 2.0)
        s = -1j * sin(gate.angle / 2.0)
        _apply_1q(state, c, s, s, c, gate.qubits[0])
    elif kind is GateKind.P:
        view = state.reshape(len(state), -1, 2, 1 << gate.qubits[0])
        if isinstance(gate.angle, np.ndarray):  # each row turns by its own angle
            view[:, :, 1, :] *= np.exp(1j * gate.angle[rows])[:, None, None]
        else:
            view[:, :, 1, :] *= cexp(1j * gate.angle)
    else:  # CX
        control, target = gate.qubits
        t = state.reshape([-1] + [2] * num_qubits)  # axis 0 holds the rows
        ac, at = num_qubits - control, num_qubits - target
        i0: list = [slice(None)] * (num_qubits + 1)
        i1: list = [slice(None)] * (num_qubits + 1)
        i0[ac], i0[at] = 1, 0
        i1[ac], i1[at] = 1, 1
        lo, hi = tuple(i0), tuple(i1)
        tmp = t[lo].copy()
        t[lo] = t[hi]
        t[hi] = tmp


def check_width(num_qubits: int) -> None:
    """Refuse a register wider than the dense simulator holds."""
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceeds the dense limit of {MAX_QUBITS}")


def simulate(circuit: Circuit) -> Statevector:
    """Run the circuit on |0...0> and return the final state: the (N, 2^n) stack of a
    batch circuit's N rows (empty for N = 0), else one row of 2^n amplitudes."""
    n = circuit.num_qubits
    check_width(n)
    batch = next((len(g.angle) for g in circuit.gates if isinstance(g.angle, np.ndarray)), None)
    state = np.zeros((1 if batch is None else batch, 2**n), dtype=np.complex128)
    state[:, 0] = 1.0
    norms = np.empty(len(state))
    block_rows = max(1, _BLOCK_AMPLITUDES >> n)
    for lo in range(0, len(state), block_rows):
        rows = slice(lo, lo + block_rows)
        block = state[rows]
        for gate in circuit.gates:
            _apply_inplace(block, gate, n, rows)
        norms[rows] = np.sum(block.real**2 + block.imag**2, axis=1)
    drifted = ~(np.abs(norms - 1.0) <= 1e-9)  # NaN drifts
    if drifted.any():
        raise ArithmeticError(f"statevector norm drifted to {norms[drifted][0]}")
    return Statevector(n, state[0] if batch is None else state)


def sample_zero_count(prob: float, shots: int, seed: int) -> int:
    """Count all-zeros outcomes over ``shots`` seeded Bernoulli draws.

    Each shot compares one SplitMix64 uniform against ``prob``, the
    all-zeros probability: a kernel value, which is the exact fidelity of two
    states, or |amp_0|^2 of a simulated compute-uncompute circuit.  Identical
    (prob, shots, seed) always reproduce the same count.
    """
    check_int("shots", shots, 1)
    return int(np.count_nonzero(uniforms(seed, shots) < prob))
