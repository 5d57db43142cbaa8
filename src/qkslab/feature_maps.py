"""Data-parameterized Pauli feature-map circuits.

A map is specified by an ordered list of Pauli layers drawn from
{Z, ZZ, Y, YY}, a repetition count, and the feature count.  Per repetition
the builder emits Hadamards on every qubit, then each layer in order:
single-qubit layers place a phase of 2*x[j] on each qubit, pair layers a
phase of 2*(pi-x[j])*(pi-x[k]) on the target of a CX-conjugated block, for
adjacent pairs (j, j+1) only.  Y-type layers wrap their phases in
RX(+pi/2) / RX(-pi/2) basis changes.  The builder's blocks are the one
description of this structure; depth is measured from them.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .circuits import Circuit, Gate, cx, dag_depth, h, p, rx
from .documents import check_int

PAULI_LAYERS = ("Z", "ZZ", "Y", "YY")
DEFAULT_REPETITIONS = 2

# Built-in map presets, keyed by the names the CLI accepts.
PRESETS: dict[str, tuple[str, ...]] = {
    "z": ("Z",),
    "zz": ("ZZ",),
    "yyy": ("Y", "YY"),
    "yzz": ("Y", "ZZ"),
    "zzz": ("Z", "ZZ"),
}


@dataclass(frozen=True)
class FeatureMapSpec:
    pauli_layers: tuple[str, ...]
    num_features: int
    repetitions: int = DEFAULT_REPETITIONS

    def __post_init__(self) -> None:
        object.__setattr__(self, "pauli_layers", tuple(self.pauli_layers))
        if not self.pauli_layers:
            raise ValueError("at least one Pauli layer is required")
        for layer in self.pauli_layers:
            if layer not in PAULI_LAYERS:
                raise ValueError(f"unsupported Pauli layer {layer!r}; allowed: {PAULI_LAYERS}")
        check_int("repetitions", self.repetitions, 1)
        check_int("num_features", self.num_features, 1)
        if self.num_features < 2 and any(len(l) == 2 for l in self.pauli_layers):
            raise ValueError("two-qubit layers require num_features >= 2")

    @staticmethod
    def from_preset(name: str, num_features: int,
                    repetitions: int = DEFAULT_REPETITIONS) -> "FeatureMapSpec":
        try:
            layers = PRESETS[name]
        except KeyError:
            raise ValueError(f"unknown feature-map preset {name!r}; known: {sorted(PRESETS)}") from None
        return FeatureMapSpec(layers, num_features, repetitions)


def _blocks(spec: FeatureMapSpec, x: np.ndarray):
    """The map's gate blocks in circuit order: per repetition the Hadamard
    wall, each single-qubit layer whole, and each adjacent pair of a pair layer.
    ``x`` is one row, or an (N, F) batch whose P gates carry a column of N angles."""
    n = spec.num_features
    single = 2.0 * x  # phase of qubit j: column j
    pair = 2.0 * (pi - x[..., :-1]) * (pi - x[..., 1:])  # phase of pair (j, j + 1): column j
    # a row's angles are Python floats, which the per-gate simulator reads fastest
    single, pair = (single.tolist(), pair.tolist()) if x.ndim == 1 else (single.T, pair.T)
    for _ in range(spec.repetitions):
        yield [h(q) for q in range(n)]
        for layer in spec.pauli_layers:
            y_basis = layer.startswith("Y")
            if len(layer) == 1:
                block: list[Gate] = []
                for q in range(n):
                    phase = p(single[q], q)
                    block.extend((rx(pi / 2, q), phase, rx(-pi / 2, q)) if y_basis else (phase,))
                yield block
            else:
                for j in range(n - 1):
                    k = j + 1
                    into_y = [rx(pi / 2, j), rx(pi / 2, k)] if y_basis else []
                    out_of_y = [rx(-pi / 2, j), rx(-pi / 2, k)] if y_basis else []
                    yield [*into_y, cx(j, k), p(pair[j], k), cx(j, k), *out_of_y]


def sequential_depth(spec: FeatureMapSpec) -> int:
    """Depth with the blocks run strictly one after another: the sum of their dag depths."""
    n = spec.num_features
    return sum(dag_depth(Circuit(n, tuple(block))) for block in _blocks(spec, np.zeros(n)))


def build_feature_map(spec: FeatureMapSpec, x: np.ndarray) -> Circuit:
    """Build the map circuit for one feature vector, or for an (N, F) batch of them."""
    x = np.asarray(x, dtype=np.float64)
    n = spec.num_features
    if x.shape[-1:] != (n,) or x.ndim > 2:
        raise ValueError(f"feature vector has shape {x.shape}, expected ({n},) or (N, {n})")
    return Circuit(n, tuple(g for block in _blocks(spec, x) for g in block))
