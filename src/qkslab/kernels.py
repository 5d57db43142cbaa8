"""Fidelity quantum kernels, the classical RBF baseline, and Gram assembly.

The quantum kernel is the all-zeros probability of the compute-uncompute
circuit U(y)^dagger U(x), which equals the statevector overlap
|<psi(y)|psi(x)>|^2.  Both modes compute that overlap from one state per
sample; shots mode then samples each value with seeded Bernoulli draws.
``quantum_kernel_entry`` builds and simulates the circuit itself and is the
oracle for both.  Shots-mode entry seeds are mix64(master_seed, i, j) for
train entry i <= j (mirrored) and mix64(master_seed, _CROSS, i, j) for cross
entry (test i, train j), so Gram assembly is independent of evaluation order
and parallelism.

A Gram file is a ``qkslab-gram`` document (see ``documents``) holding the
kernel (``config_to_doc``), the map's feature count, ids and exact values.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import adjoint, compose
from .documents import fields, read_json, write_json
from .feature_maps import FeatureMapSpec, build_feature_map
from .seeding import mix64
from .simulator import sample_zero_count, simulate, zero_probability

SHOT_CAP = 1024
_PSD_TOL = 1e-8
_CROSS = 0x435253  # role word "CRS" in cross-gram entry seeds


@dataclass(frozen=True)
class KernelConfig:
    kind: str  # "quantum" | "rbf"
    mode: str = "exact"  # "exact" | "shots"
    feature_map: FeatureMapSpec | None = None
    gamma: float | None = None  # rbf only; None means "resolve from the train split"
    shots: int | None = None
    master_seed: int = 0
    name: str = ""
    allow_overshoot: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("quantum", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.mode not in ("exact", "shots"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        if self.kind == "quantum":
            if self.feature_map is None:
                raise ValueError("quantum kernel requires a feature map")
            if self.gamma is not None:
                raise ValueError("gamma applies to the rbf kernel only")
        else:
            if self.feature_map is not None:
                raise ValueError("rbf kernel takes no feature map")
            if self.mode != "exact":
                raise ValueError("rbf kernel supports exact mode only")
            if self.gamma is not None and self.gamma <= 0:
                raise ValueError("gamma must be positive")
        if self.mode == "shots":
            if self.shots is None or self.shots < 1:
                raise ValueError("shots mode requires shots >= 1")
            if self.shots > SHOT_CAP and not self.allow_overshoot:
                raise ValueError(f"shots={self.shots} exceeds the {SHOT_CAP}-shot cap")
        elif self.shots is not None:
            raise ValueError("shots only apply in shots mode")
        if not self.name:
            raise ValueError("kernel config needs a name")


def quantum_config(preset: str, num_features: int, repetitions: int = 2, mode: str = "exact",
                   shots: int | None = None, master_seed: int = 0,
                   allow_overshoot: bool = False) -> KernelConfig:
    spec = FeatureMapSpec.from_preset(preset, num_features, repetitions)
    return KernelConfig("quantum", mode, spec, None, shots, master_seed, preset, allow_overshoot)


def rbf_config(gamma: float | None = None, master_seed: int = 0) -> KernelConfig:
    return KernelConfig("rbf", "exact", None, gamma, None, master_seed, "rbf")


def rbf_gamma_scale(train_x: np.ndarray) -> float:
    """Default gamma 1/(F * pooled feature variance); 1.0 for degenerate data."""
    train_x = np.asarray(train_x, dtype=np.float64)
    var = float(train_x.var())
    if var <= 0.0:
        return 1.0
    return 1.0 / (train_x.shape[1] * var)


def resolve_gamma(config: KernelConfig, train_x: np.ndarray) -> KernelConfig:
    """Fill an unset rbf gamma from the training split; no-op otherwise."""
    if config.kind == "rbf" and config.gamma is None:
        return replace(config, gamma=rbf_gamma_scale(train_x))
    return config


def quantum_kernel_entry(spec: FeatureMapSpec, x: np.ndarray, y: np.ndarray, mode: str = "exact",
                         shots: int | None = None, entry_seed: int = 0) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (spec.num_features,) or y.shape != (spec.num_features,):
        raise ValueError("feature vectors must match the map's feature count")
    if mode == "exact":
        sx = simulate(build_feature_map(spec, x)).amplitudes
        sy = simulate(build_feature_map(spec, y)).amplitudes
        overlap = np.vdot(sy, sx)
        return float(overlap.real**2 + overlap.imag**2)
    if shots is None or shots < 1:
        raise ValueError("shots mode requires shots >= 1")
    circuit = compose(build_feature_map(spec, x), adjoint(build_feature_map(spec, y)))
    return sample_zero_count(zero_probability(simulate(circuit)), shots, entry_seed) / shots


def rbf_kernel_entry(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("feature vectors must have equal dimension")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = x - y
    return float(np.exp(-gamma * np.dot(d, d)))


@dataclass(frozen=True, eq=False)
class GramMatrix:
    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    config: KernelConfig
    symmetric: bool

    def __post_init__(self) -> None:
        n, m = self.values.shape
        if len(self.row_ids) != n or len(self.col_ids) != m:
            raise ValueError("id lists must match the value matrix shape")
        if self.symmetric:
            if self.row_ids != self.col_ids:
                raise ValueError("symmetric GramMatrix requires row_ids == col_ids")
            if not np.array_equal(self.values, self.values.T):
                raise ValueError("symmetric GramMatrix must be exactly symmetric")


def _mirror_upper(values: np.ndarray) -> np.ndarray:
    # One computation per unordered pair: the upper triangle is authoritative.
    upper = np.triu(values)
    return upper + np.triu(values, 1).T


def _statevector_stack(spec: FeatureMapSpec, samples: np.ndarray) -> np.ndarray:
    return np.stack([simulate(build_feature_map(spec, row)).amplitudes for row in samples])


def _fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a b^H|^2: fidelities between the rows of two statevector stacks."""
    overlaps = a @ b.conj().T
    return overlaps.real**2 + overlaps.imag**2


def _exact_quantum_values(v_rows: np.ndarray, v_cols: np.ndarray | None) -> np.ndarray:
    if v_cols is None:
        values = _fidelity(v_rows, v_rows)
        np.fill_diagonal(values, 1.0)  # self-fidelity is 1 by definition
        return _mirror_upper(values)
    return _fidelity(v_rows, v_cols)


def _shots_quantum_values(config: KernelConfig, probs: np.ndarray, symmetric: bool) -> np.ndarray:
    """One seeded shot-count estimate per entry of the exact probabilities ``probs``."""
    n, m = probs.shape
    values = np.zeros((n, m))
    for i in range(n):
        for j in range(i if symmetric else 0, m):
            seed = mix64(config.master_seed, i, j) if symmetric else mix64(config.master_seed, _CROSS, i, j)
            values[i, j] = sample_zero_count(probs[i, j], config.shots, seed) / config.shots
    return _mirror_upper(values) if symmetric else values


def _rbf_values(gamma: float, rows: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
    right = rows if cols is None else cols
    d2 = ((rows[:, None, :] - right[None, :, :]) ** 2).sum(axis=2)
    values = np.exp(-gamma * d2)
    return _mirror_upper(values) if cols is None else values


def _points(config: KernelConfig, rows: np.ndarray,
            cols: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Validated samples; quantum kernels work on their feature-map states."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if cols is not None:
        cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
        if cols.shape[1] != rows.shape[1]:
            raise ValueError("row and column samples must share the feature dimension")
    if config.kind == "rbf":
        if config.gamma is None:
            raise ValueError("rbf gamma is unresolved; call resolve_gamma on the train split first")
        return rows, cols
    if rows.shape[1] != config.feature_map.num_features:
        raise ValueError("sample dimension does not match the feature map")
    states = _statevector_stack(config.feature_map, rows)
    return states, None if cols is None else _statevector_stack(config.feature_map, cols)


def _gram(config: KernelConfig, rows: np.ndarray, cols: np.ndarray | None,
          row_ids, col_ids, clip: bool | None) -> GramMatrix:
    """Kernel values between ``_points``: range-checked, sampled in shots mode, labelled, clipped."""
    symmetric = cols is None
    if config.kind == "rbf":
        values = _rbf_values(config.gamma, rows, cols)
    else:
        values = _exact_quantum_values(rows, cols)
    if values.min() < -1e-9 or values.max() > 1.0 + 1e-9:
        raise AssertionError("kernel values escaped [0, 1]")
    if config.mode == "shots":
        values = _shots_quantum_values(config, values, symmetric)
    row_ids = tuple(row_ids) if row_ids is not None else tuple(str(i) for i in range(values.shape[0]))
    if symmetric:
        col_ids = row_ids
    else:
        col_ids = tuple(col_ids) if col_ids is not None else tuple(str(j) for j in range(values.shape[1]))
    gram = GramMatrix(values, row_ids, col_ids, config, symmetric)
    if clip is None:
        clip = symmetric and config.mode == "shots"
    return psd_clip(gram) if clip else gram


def gram_matrix(rows: np.ndarray, cols: np.ndarray | None, config: KernelConfig,
                row_ids: tuple[str, ...] | None = None, col_ids: tuple[str, ...] | None = None,
                clip: bool | None = None) -> GramMatrix:
    """Assemble the kernel matrix rows x cols (cols=None means symmetric).

    ``clip`` controls eigenvalue clipping of symmetric results; the default
    applies it in shots mode only, where sampling noise can break positive
    semidefiniteness.
    """
    return _gram(config, *_points(config, rows, cols), row_ids, col_ids, clip)


def gram_pair(train_x: np.ndarray, test_x: np.ndarray, config: KernelConfig,
              train_ids: tuple[str, ...] | None = None, test_ids: tuple[str, ...] | None = None,
              clip: bool | None = None) -> tuple[GramMatrix, GramMatrix]:
    """Train gram (``clip`` as in ``gram_matrix``) and test-by-train cross gram, one state per sample."""
    test, train = _points(config, test_x, train_x)
    train_ids = tuple(train_ids) if train_ids is not None else tuple(f"t{i}" for i in range(train.shape[0]))
    test_ids = tuple(test_ids) if test_ids is not None else tuple(f"s{i}" for i in range(test.shape[0]))
    return (_gram(config, train, None, train_ids, None, clip),
            _gram(config, test, train, test_ids, train_ids, None))


def psd_clip(gram: GramMatrix) -> GramMatrix:
    """Project a symmetric gram onto the PSD cone by zeroing negative eigenvalues.

    Matrices already PSD within 1e-8 pass through unchanged.
    """
    if not gram.symmetric:
        raise ValueError("psd_clip requires a symmetric GramMatrix")
    eigvals, eigvecs = np.linalg.eigh(gram.values)
    if eigvals.min() >= -_PSD_TOL:
        return gram
    clipped = np.clip(eigvals, 0.0, None)
    values = _mirror_upper((eigvecs * clipped) @ eigvecs.T)
    return GramMatrix(values, gram.row_ids, gram.col_ids, gram.config, True)


# --- gram file format -------------------------------------------------------

GRAM_FORMAT = "qkslab-gram"
GRAM_VERSION = "2.0"


def config_to_doc(config: KernelConfig) -> dict:
    """The kernel fields a sweep or Gram file records; feature counts are the file's own."""
    doc = {"name": config.name, "kind": config.kind, "mode": config.mode,
           "shots": config.shots, "master_seed": config.master_seed}
    if config.kind == "quantum":
        doc["pauli_layers"] = list(config.feature_map.pauli_layers)
        doc["repetitions"] = config.feature_map.repetitions
    else:
        doc["gamma"] = config.gamma
    return doc


def write_gram(gram: GramMatrix, path) -> None:
    fm = gram.config.feature_map
    write_json({
        "format": GRAM_FORMAT, "version": GRAM_VERSION,
        "kernel": config_to_doc(gram.config),
        "features": None if fm is None else fm.num_features,
        "symmetric": gram.symmetric,
        "row_ids": list(gram.row_ids), "col_ids": list(gram.col_ids),
        "values": gram.values.tolist(),
    }, path)


def read_gram(path) -> GramMatrix:
    doc = read_json(path, {GRAM_FORMAT: GRAM_VERSION})
    with fields(path):
        k = doc["kernel"]
        spec = (FeatureMapSpec(k["pauli_layers"], doc["features"], k["repetitions"])
                if k["kind"] == "quantum" else None)
        config = KernelConfig(k["kind"], k["mode"], spec, k.get("gamma"), k["shots"],
                              k["master_seed"], k["name"],
                              k["shots"] is not None and k["shots"] > SHOT_CAP)
        return GramMatrix(np.array(doc["values"], dtype=np.float64), tuple(doc["row_ids"]),
                          tuple(doc["col_ids"]), config, bool(doc["symmetric"]))
