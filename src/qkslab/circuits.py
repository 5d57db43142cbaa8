"""Gate-level circuit IR over the restricted alphabet {H, RX, P, CX}."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class GateKind(Enum):
    H = "H"
    RX = "RX"
    P = "P"
    CX = "CX"


_PARAMETRIC = (GateKind.RX, GateKind.P)


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind in _PARAMETRIC:
            if self.angle is None:
                raise ValueError(f"{self.kind.value} requires an angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind.value} carries no angle")
        arity = 2 if self.kind is GateKind.CX else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind.value} acts on {arity} qubit(s), got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if self.kind is GateKind.CX and self.qubits[0] == self.qubits[1]:
            raise ValueError("CX control equals target")


def h(qubit: int) -> Gate:
    return Gate(GateKind.H, (qubit,))


def rx(angle: float, qubit: int) -> Gate:
    return Gate(GateKind.RX, (qubit,), float(angle))


def p(angle: float, qubit: int) -> Gate:
    return Gate(GateKind.P, (qubit,), float(angle))


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (control, target))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a fixed qubit register.

    The IR carries no depth: ``dag_depth`` measures a gate list, and the
    sequential block depth of a feature map is the sum of the ``dag_depth``
    of its builder's blocks (``feature_maps.sequential_depth``).
    """

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} exceeds register of {self.num_qubits} qubit(s)")


def dag_depth(circuit: Circuit) -> int:
    """Dependency-graph depth: each gate sits one level above its operands."""
    level = [0] * circuit.num_qubits
    for g in circuit.gates:
        step = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = step
    return max(level, default=0)

