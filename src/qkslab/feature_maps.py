"""Data-parameterized Pauli feature-map circuits.

A map is specified by an ordered list of Pauli layers drawn from
{Z, ZZ, Y, YY}, a repetition count, and the feature count.  Per repetition
the builder emits Hadamards on every qubit, then each layer in order:
single-qubit layers place a phase of 2*x[j] on each qubit, pair layers a
phase of 2*(pi-x[j])*(pi-x[k]) on the target of a CX-conjugated block, for
adjacent pairs (j, j+1) only.  Y-type layers wrap their phases in
RX(+pi/2) / RX(-pi/2) basis changes.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .circuits import Circuit, Gate, cx, h, p, rx

PAULI_LAYERS = ("Z", "ZZ", "Y", "YY")

# Built-in map presets, keyed by the names the CLI accepts.
PRESETS: dict[str, tuple[str, ...]] = {
    "z": ("Z",),
    "zz": ("ZZ",),
    "yyy": ("Y", "YY"),
    "yzz": ("Y", "ZZ"),
    "zzz": ("Z", "ZZ"),
}


def preset_of(pauli_layers: tuple[str, ...]) -> str | None:
    """Preset name whose layer list matches, if any."""
    for name, layers in PRESETS.items():
        if layers == tuple(pauli_layers):
            return name
    return None


@dataclass(frozen=True)
class FeatureMapSpec:
    pauli_layers: tuple[str, ...]
    num_features: int
    repetitions: int = 2
    entanglement: str = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "pauli_layers", tuple(self.pauli_layers))
        if not self.pauli_layers:
            raise ValueError("at least one Pauli layer is required")
        for layer in self.pauli_layers:
            if layer not in PAULI_LAYERS:
                raise ValueError(f"unsupported Pauli layer {layer!r}; allowed: {PAULI_LAYERS}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.num_features < 2 and any(len(l) == 2 for l in self.pauli_layers):
            raise ValueError("two-qubit layers require num_features >= 2")
        if self.entanglement != "linear":
            raise ValueError("only linear entanglement is supported")

    @staticmethod
    def from_preset(name: str, num_features: int, repetitions: int = 2) -> "FeatureMapSpec":
        try:
            layers = PRESETS[name]
        except KeyError:
            raise ValueError(f"unknown feature-map preset {name!r}; known: {sorted(PRESETS)}") from None
        return FeatureMapSpec(layers, num_features, repetitions)


def data_map_single(x: np.ndarray, j: int) -> float:
    """Phase angle of the single-qubit term on qubit j: 2*x[j]."""
    x = np.asarray(x, dtype=np.float64)
    if not 0 <= j < x.shape[0]:
        raise IndexError(f"qubit index {j} out of range for {x.shape[0]} features")
    return 2.0 * float(x[j])


def data_map_pair(x: np.ndarray, j: int, k: int) -> float:
    """Phase angle of the pair term on qubits (j, k): 2*(pi-x[j])*(pi-x[k])."""
    x = np.asarray(x, dtype=np.float64)
    if not 0 <= j < x.shape[0] or not 0 <= k < x.shape[0]:
        raise IndexError(f"qubit pair ({j}, {k}) out of range for {x.shape[0]} features")
    if j >= k:
        raise ValueError(f"pair indices must satisfy j < k, got ({j}, {k})")
    return 2.0 * (pi - float(x[j])) * (pi - float(x[k]))


# Resource-model depth of each layer, with pair blocks run strictly one after
# another: single-qubit layers count once, pair layers once per adjacent pair.
LAYER_DEPTH = {"H": 1, "Z": 1, "Y": 3, "ZZ": 3, "YY": 5}


def sequential_depth(spec: FeatureMapSpec) -> int:
    """R * (1 + sum of single-layer depths + (F - 1) * sum of pair-layer depths)."""
    per_rep = LAYER_DEPTH["H"] + sum(
        LAYER_DEPTH[layer] * (1 if len(layer) == 1 else spec.num_features - 1)
        for layer in spec.pauli_layers)
    return spec.repetitions * per_rep


def build_feature_map(spec: FeatureMapSpec, x: np.ndarray) -> Circuit:
    """Build the map circuit for one feature vector."""
    x = np.asarray(x, dtype=np.float64)
    n = spec.num_features
    if x.shape != (n,):
        raise ValueError(f"feature vector has shape {x.shape}, expected ({n},)")
    gates: list[Gate] = []
    for _ in range(spec.repetitions):
        gates.extend(h(q) for q in range(n))
        for layer in spec.pauli_layers:
            y_basis = layer in ("Y", "YY")
            if len(layer) == 1:
                for q in range(n):
                    if y_basis:
                        gates.append(rx(pi / 2, q))
                    gates.append(p(data_map_single(x, q), q))
                    if y_basis:
                        gates.append(rx(-pi / 2, q))
            else:
                for j in range(n - 1):
                    k = j + 1
                    if y_basis:
                        gates.append(rx(pi / 2, j))
                        gates.append(rx(pi / 2, k))
                    gates.append(cx(j, k))
                    gates.append(p(data_map_pair(x, j, k), k))
                    gates.append(cx(j, k))
                    if y_basis:
                        gates.append(rx(-pi / 2, j))
                        gates.append(rx(-pi / 2, k))
    return Circuit(n, tuple(gates))
