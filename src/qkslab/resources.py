"""Closed-form resource model for the Y+YY feature map, checked against built circuits.

For F features and R repetitions, the builder's gate tally obeys

    H  = F * R                P     = (2F - 1) * R
    RX = (6F - 4) * R         CX    = (2F - 2) * R
    Total = (11F - 7) * R     Depth = (5F - 1) * R

with the qubit count equal to F regardless of R.  Every column is measured
from a built circuit; depth runs the builder's blocks strictly one after
another (``feature_maps.sequential_depth``).  The dependency-graph depth, which
may overlap disjoint pair blocks, is reported as a diagnostic only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import GateKind, dag_depth
from .feature_maps import FeatureMapSpec, build_feature_map, sequential_depth


@dataclass(frozen=True)
class ResourceEstimate:
    features: int
    repetitions: int
    h: int
    rx: int
    p: int
    cx: int
    total: int
    depth: int
    qubits: int

    def __post_init__(self) -> None:
        if self.total != self.h + self.rx + self.p + self.cx:
            raise ValueError("total must equal the sum of per-kind counts")
        if self.qubits != self.features:
            raise ValueError("qubit count must equal the feature count")


def estimate(features: int, repetitions: int) -> ResourceEstimate:
    """Evaluate the closed forms at (features, repetitions)."""
    FeatureMapSpec(("Y", "YY"), features, repetitions)  # the map's own argument checks
    f, r = features, repetitions
    return ResourceEstimate(
        features=f, repetitions=r,
        h=f * r, rx=(6 * f - 4) * r, p=(2 * f - 1) * r, cx=(2 * f - 2) * r,
        total=(11 * f - 7) * r, depth=(5 * f - 1) * r, qubits=f,
    )


def measure(features: int, repetitions: int, x: np.ndarray | None = None) -> tuple[ResourceEstimate, int]:
    """Tally a built Y+YY circuit, depth from its blocks; returns (estimate, dag depth)."""
    if x is None:
        x = np.zeros(features)
    spec = FeatureMapSpec(("Y", "YY"), features, repetitions)
    circuit = build_feature_map(spec, x)
    counts = {kind: 0 for kind in GateKind}
    for g in circuit.gates:
        counts[g.kind] += 1
    measured = ResourceEstimate(
        features=features, repetitions=repetitions,
        h=counts[GateKind.H], rx=counts[GateKind.RX], p=counts[GateKind.P], cx=counts[GateKind.CX],
        total=len(circuit.gates), depth=sequential_depth(spec), qubits=circuit.num_qubits,
    )
    return measured, dag_depth(circuit)


@dataclass(frozen=True)
class VerificationReport:
    formula: ResourceEstimate
    measured: ResourceEstimate
    dag_depth: int
    match: bool


def verify_against_circuit(features: int, repetitions: int,
                           x: np.ndarray | None = None) -> VerificationReport:
    """Compare the closed forms against an actually constructed circuit."""
    formula = estimate(features, repetitions)
    measured, graph_depth = measure(features, repetitions, x)
    return VerificationReport(formula, measured, graph_depth, formula == measured)


TABLE_HEADER = ("features", "repetitions", "qubits", "h", "rx", "p", "cx",
                "total", "depth", "dag_depth", "match")


def verification_table(feature_counts, repetition_counts) -> list[tuple]:
    """One row per (F, R): the formula values plus the circuit-check verdict."""
    rows = []
    for f in feature_counts:
        for r in repetition_counts:
            report = verify_against_circuit(f, r)
            est = report.formula
            rows.append((f, r, est.qubits, est.h, est.rx, est.p, est.cx,
                         est.total, est.depth, report.dag_depth, report.match))
    return rows
