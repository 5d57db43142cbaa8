"""Fidelity quantum kernels, the classical RBF baseline, and Gram assembly.

The quantum kernel is the all-zeros probability of the compute-uncompute
circuit U(y)^dagger U(x), which equals the statevector overlap
|<psi(y)|psi(x)>|^2.  Every value comes from one path: ``_points`` resolves
an unset rbf gamma from the train split and prepares one state per sample,
and ``_gram`` computes, samples (shots mode), mirrors and labels the matrix.
The rbf squared distances are added one feature column at a time into (n, m)
buffers in numpy's pairwise-sum order, bitwise equal to the (n, m, F) tensor
expression ``tests/oracles.rbf_squared_distances``; they are exactly
symmetric, so only quantum Grams are mirrored.
``tests/oracles.kernel_entry`` builds and simulates the circuit itself and is
the oracle for both modes.  Shots-mode entry seeds are mix64(master_seed, i, j)
for train entry i <= j (mirrored) and mix64(master_seed, _CROSS, i, j) for
cross entry (test i, train j), so Gram assembly is independent of evaluation
order and parallelism.

A Gram file is a ``qkslab-gram`` document (see ``documents``) holding the
kernel (``config_to_doc``), the map's feature count, ids and exact values;
qkslab writes it and never reads it back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .documents import check_between, check_int, write_json
from .feature_maps import DEFAULT_REPETITIONS, FeatureMapSpec, build_feature_map
from .seeding import mix64
from .simulator import check_width, sample_zero_count, simulate

SHOT_CAP = 1024
_PSD_TOL = 1e-8
_CROSS = 0x435253  # role word "CRS" in cross-gram entry seeds


@dataclass(frozen=True)
class KernelConfig:
    """A kernel: quantum when it has a feature map, in shots mode when it has shots."""
    feature_map: FeatureMapSpec | None = None
    gamma: float | None = None  # rbf only; None means "resolve from the train split"
    shots: int | None = None
    master_seed: int = 0
    name: str = ""

    @property
    def kind(self) -> str:
        return "rbf" if self.feature_map is None else "quantum"

    @property
    def mode(self) -> str:
        return "exact" if self.shots is None else "shots"

    def __post_init__(self) -> None:
        if self.feature_map is not None:
            if self.gamma is not None:
                raise ValueError("gamma applies to the rbf kernel only")
            check_width(self.feature_map.num_features)  # a map the simulator cannot run
        if self.feature_map is None and self.shots is not None:
            raise ValueError("rbf kernel supports exact mode only")
        if self.gamma is not None:
            check_between("gamma", self.gamma, 0, math.inf)
        if self.shots is not None:
            check_int("shots", self.shots, 1)
        check_int("master_seed", self.master_seed)
        if not self.name:
            raise ValueError("kernel config needs a name")


def quantum_config(preset: str, num_features: int, repetitions: int = DEFAULT_REPETITIONS,
                   shots: int | None = None, master_seed: int = 0,
                   allow_overshoot: bool = False) -> KernelConfig:
    """A preset's kernel, in shots mode when ``shots`` is given (over ``SHOT_CAP`` with ``allow_overshoot``)."""
    config = KernelConfig(FeatureMapSpec.from_preset(preset, num_features, repetitions), None, shots,
                          master_seed, preset)
    if shots is not None and shots > SHOT_CAP and not allow_overshoot:
        raise ValueError(f"shots={shots} exceeds the {SHOT_CAP}-shot cap")
    return config


def rbf_config(gamma: float | None = None, master_seed: int = 0) -> KernelConfig:
    return KernelConfig(None, gamma, None, master_seed, "rbf")


def resolve_gamma(config: KernelConfig, train_x: np.ndarray) -> KernelConfig:
    """Fill an unset rbf gamma from the training split, 1/(F * pooled feature variance) or 1.0
    for degenerate data; no-op otherwise."""
    if config.kind != "rbf" or config.gamma is not None:
        return config
    train_x = np.asarray(train_x, dtype=np.float64)
    var = float(train_x.var())
    return replace(config, gamma=1.0 if var <= 0.0 else 1.0 / (train_x.shape[1] * var))


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
    """Copy the upper triangle of square ``values`` onto its lower one, in place: one computation
    per unordered pair, and the bits of ``triu(v) + triu(v, 1).T``, whose + 0.0 turns -0.0 into 0.0."""
    for i in range(1, len(values)):
        values[i, :i] = values[:i, i]
    values += 0.0
    return values


def _statevector_stack(spec: FeatureMapSpec, samples: np.ndarray) -> np.ndarray:
    states = np.empty((len(samples), 2**spec.num_features), dtype=np.complex128)
    for i, row in enumerate(samples):
        states[i] = simulate(build_feature_map(spec, row)).amplitudes
    return states


def _fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a b^H|^2: fidelities between the rows of two statevector stacks, the overlaps' real and
    imaginary halves squared in place and added into the one new array."""
    overlaps = a @ b.conj().T
    re, im = overlaps.real, overlaps.imag
    re *= re
    im *= im
    return re + im


def _add_columns(out: np.ndarray, a: np.ndarray, b: np.ndarray, cols) -> np.ndarray:
    """Add (a[:, f] - b[:, f])**2 into ``out`` for each f of ``cols``, in order."""
    tmp = np.empty_like(out)
    for f in cols:
        np.subtract.outer(a[:, f], b[:, f], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _squared_distances(a: np.ndarray, b: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b`` over feature columns lo..hi-1, bitwise
    ``((a[:, None] - b[None]) ** 2).sum(axis=2)``: columns are added in numpy's pairwise-sum order."""
    hi = a.shape[1] if hi is None else hi
    n = hi - lo
    if n < 8:  # one running sum
        return _add_columns(np.zeros((len(a), len(b))), a, b, range(lo, hi))
    if n > 128:  # two halves, split at a multiple of 8
        mid = lo + n // 2 - n // 2 % 8
        return _squared_distances(a, b, lo, mid) + _squared_distances(a, b, mid, hi)
    end = hi - n % 8  # eight running sums over the whole blocks of 8, then the rest one by one
    r = [_add_columns(np.zeros((len(a), len(b))), a, b, range(lo + j, end, 8)) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return _add_columns(total, a, b, range(end, hi))


def _shots_quantum_values(config: KernelConfig, probs: np.ndarray, symmetric: bool) -> np.ndarray:
    """One seeded shot-count estimate per entry of the exact probabilities ``probs``
    (the upper triangle only when ``symmetric``)."""
    n, m = probs.shape
    values = np.zeros((n, m))
    for i in range(n):
        for j in range(i if symmetric else 0, m):
            seed = mix64(config.master_seed, i, j) if symmetric else mix64(config.master_seed, _CROSS, i, j)
            values[i, j] = sample_zero_count(probs[i, j], config.shots, seed) / config.shots
    return values


def _points(config: KernelConfig, rows: np.ndarray,
            cols: np.ndarray | None) -> tuple[KernelConfig, np.ndarray, np.ndarray | None]:
    """The kernel, its unset rbf gamma resolved from the train split (``cols``, or ``rows`` of a
    symmetric Gram), and the validated samples; quantum kernels work on their feature-map states."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if cols is not None:
        cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
        if cols.shape[1] != rows.shape[1]:
            raise ValueError("row and column samples must share the feature dimension")
    for samples in (rows, cols):
        if samples is not None and (samples.ndim != 2 or 0 in samples.shape):
            raise ValueError(f"a Gram needs (samples, features) of at least one each, got shape {samples.shape}")
    if config.kind == "rbf":
        return resolve_gamma(config, rows if cols is None else cols), rows, cols
    if rows.shape[1] != config.feature_map.num_features:
        raise ValueError("sample dimension does not match the feature map")
    states = _statevector_stack(config.feature_map, rows)
    return config, states, None if cols is None else _statevector_stack(config.feature_map, cols)


def _gram(config: KernelConfig, rows: np.ndarray, cols: np.ndarray | None,
          row_ids, col_ids, clip: bool) -> GramMatrix:
    """Kernel values between ``_points``: range-checked, sampled in shots mode, mirrored, labelled, clipped."""
    symmetric = cols is None
    other = rows if symmetric else cols
    if config.kind == "rbf":
        values = _squared_distances(rows, other)
        values *= -config.gamma
        np.exp(values, out=values)
    else:
        values = _fidelity(rows, other)
        if symmetric:
            np.fill_diagonal(values, 1.0)  # self-fidelity is 1 by definition
    if not (-1e-9 <= values.min() and values.max() <= 1.0 + 1e-9):
        raise AssertionError("kernel values escaped [0, 1]")
    if config.mode == "shots":
        values = _shots_quantum_values(config, values, symmetric)
    if symmetric and config.kind == "quantum":  # (a - b)**2 == (b - a)**2: rbf is symmetric as computed
        values = _mirror_upper(values)
    row_ids = tuple(row_ids) if row_ids is not None else tuple(str(i) for i in range(values.shape[0]))
    if symmetric:
        col_ids = row_ids
    else:
        col_ids = tuple(col_ids) if col_ids is not None else tuple(str(j) for j in range(values.shape[1]))
    gram = GramMatrix(values, row_ids, col_ids, config, symmetric)
    return psd_clip(gram) if clip and symmetric and config.mode == "shots" else gram


def gram_matrix(rows: np.ndarray, cols: np.ndarray | None, config: KernelConfig,
                row_ids: tuple[str, ...] | None = None, col_ids: tuple[str, ...] | None = None,
                clip: bool = True) -> GramMatrix:
    """Assemble the kernel matrix rows x cols (cols=None means symmetric).

    A symmetric shots-mode result, whose sampling noise can break positive
    semidefiniteness, is eigenvalue-clipped unless ``clip`` is False.
    """
    return _gram(*_points(config, rows, cols), row_ids, col_ids, clip)


def gram_pair(train_x: np.ndarray, test_x: np.ndarray, config: KernelConfig,
              train_ids: tuple[str, ...] | None = None,
              test_ids: tuple[str, ...] | None = None) -> tuple[GramMatrix, GramMatrix]:
    """Train gram (clipped as in ``gram_matrix``) and test-by-train cross gram, one state per sample."""
    config, test, train = _points(config, test_x, train_x)
    train_gram = _gram(config, train, None, train_ids, None, clip=True)
    return train_gram, _gram(config, test, train, test_ids, train_gram.row_ids, clip=True)


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
        "format": "qkslab-gram", "version": "2.0",
        "kernel": config_to_doc(gram.config),
        "features": None if fm is None else fm.num_features,
        "symmetric": gram.symmetric,
        "row_ids": list(gram.row_ids), "col_ids": list(gram.col_ids),
        "values": gram.values.tolist(),
    }, path)
