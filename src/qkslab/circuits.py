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

    The IR carries no depth: ``dag_depth`` measures the gate list, and the
    sequential block depth of a feature map comes from its layer table
    (``feature_maps.sequential_depth``).
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


def adjoint(circuit: Circuit) -> Circuit:
    """Inverse circuit: gates reversed, angles negated (H and CX are self-inverse)."""
    inv = tuple(
        Gate(g.kind, g.qubits, -g.angle if g.angle is not None else None)
        for g in reversed(circuit.gates)
    )
    return Circuit(circuit.num_qubits, inv)


def compose(first: Circuit, *rest: Circuit) -> Circuit:
    """Concatenate circuits on the same register."""
    gates = list(first.gates)
    for c in rest:
        if c.num_qubits != first.num_qubits:
            raise ValueError("cannot compose circuits with different qubit counts")
        gates.extend(c.gates)
    return Circuit(first.num_qubits, tuple(gates))


def circuit_to_text(circuit: Circuit) -> str:
    """Line format: ``QUBITS n`` header, then one gate per line.

    Angles are printed with 17 significant digits so parsing them back is
    value-exact for float64.
    """
    lines = [f"QUBITS {circuit.num_qubits}"]
    for g in circuit.gates:
        qs = " ".join(f"q{q}" for q in g.qubits)
        if g.angle is not None:
            lines.append(f"{g.kind.value} {g.angle:.17g} {qs}")
        else:
            lines.append(f"{g.kind.value} {qs}")
    return "\n".join(lines) + "\n"


def _parse_qubit(token: str, lineno: int) -> int:
    if not token.startswith("q"):
        raise ValueError(f"line {lineno}: expected qubit token like 'q0', got {token!r}")
    try:
        return int(token[1:])
    except ValueError:
        raise ValueError(f"line {lineno}: bad qubit token {token!r}") from None


def circuit_from_text(text: str) -> Circuit:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("QUBITS "):
        raise ValueError("line 1: missing 'QUBITS n' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError("line 1: malformed 'QUBITS n' header") from None
    gates = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        name = parts[0]
        try:
            kind = GateKind(name)
        except ValueError:
            raise ValueError(f"line {lineno}: unknown gate {name!r}") from None
        if kind in _PARAMETRIC:
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: {name} expects '<angle> q<i>'")
            try:
                angle = float(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad angle {parts[1]!r}") from None
            gates.append(Gate(kind, (_parse_qubit(parts[2], lineno),), angle))
        elif kind is GateKind.CX:
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: CX expects 'q<c> q<t>'")
            gates.append(Gate(kind, (_parse_qubit(parts[1], lineno), _parse_qubit(parts[2], lineno))))
        else:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: H expects 'q<i>'")
            gates.append(Gate(kind, (_parse_qubit(parts[1], lineno),)))
    return Circuit(n, tuple(gates))
