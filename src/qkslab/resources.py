"""Resource model for the paper's Y+YY map, read off the builder and checked against built circuits.

Every column (per-kind gate counts, their total, and depth) is R * (a*F + b)
for F features and R repetitions: the builder emits the same blocks each
repetition, and each layer adds a fixed number of gates per qubit or per
adjacent pair.  ``estimate`` reads a and b off the builder's own tallies at
R = 1 for F = 2 and F = 3, so ``feature_maps._blocks`` stays the only
description of the map.  A record stores the counted columns; ``total`` is
their gate counts' sum and ``qubits`` is F regardless of R.  Depth runs the
builder's blocks strictly one after another (``feature_maps.sequential_depth``).
The dependency-graph depth, which may overlap disjoint pair blocks, is
reported as a diagnostic only.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuits import GateKind, dag_depth
from .feature_maps import PRESETS, FeatureMapSpec, build_feature_map, sequential_depth

_LAYERS = PRESETS["yyy"]
_COLUMNS = ("h", "rx", "p", "cx", "depth")  # the counted columns


@dataclass(frozen=True)
class ResourceEstimate:
    features: int
    repetitions: int
    h: int
    rx: int
    p: int
    cx: int
    depth: int

    @property
    def total(self) -> int:
        return self.h + self.rx + self.p + self.cx

    @property
    def qubits(self) -> int:
        return self.features


def estimate(features: int, repetitions: int) -> ResourceEstimate:
    """Evaluate R * (a*F + b) per column, with a and b read off circuits built at F = 2 and 3."""
    FeatureMapSpec(_LAYERS, features, repetitions)  # the map's own argument checks
    two, three = measure(2, 1)[0], measure(3, 1)[0]
    per_rep = {c: getattr(two, c) + (getattr(three, c) - getattr(two, c)) * (features - 2)
               for c in _COLUMNS}
    return ResourceEstimate(features, repetitions, **{c: repetitions * v for c, v in per_rep.items()})


def measure(features: int, repetitions: int) -> tuple[ResourceEstimate, int]:
    """Tally a built Y+YY circuit, depth from its blocks; returns (estimate, dag depth)."""
    spec = FeatureMapSpec(_LAYERS, features, repetitions)
    circuit = build_feature_map(spec, np.zeros(features))  # gate counts do not depend on the data
    counts = Counter(g.kind for g in circuit.gates)
    measured = ResourceEstimate(
        features, repetitions,
        h=counts[GateKind.H], rx=counts[GateKind.RX], p=counts[GateKind.P], cx=counts[GateKind.CX],
        depth=sequential_depth(spec),
    )
    return measured, dag_depth(circuit)


TABLE_HEADER = ("features", "repetitions", "qubits", "h", "rx", "p", "cx",
                "total", "depth", "dag_depth", "match")


def verification_table(feature_counts, repetition_counts) -> list[tuple]:
    """One row per (F, R): the formula values, the built circuit's dag depth, and whether
    the formula equals that circuit's tally."""
    rows = []
    for f in feature_counts:
        for r in repetition_counts:
            est = estimate(f, r)
            measured, graph_depth = measure(f, r)
            rows.append((f, r, est.qubits, est.h, est.rx, est.p, est.cx,
                         est.total, est.depth, graph_depth, est == measured))
    return rows
