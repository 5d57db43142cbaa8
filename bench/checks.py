"""Output checks behind the benchmark's ``failed`` count.

They run after each timed call, outside its timing.  An operation fails
when it raises or when a check on its output fails.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Rows of the operation's own train/test split whose Gram block is
# reproduced per check.  Shots mode simulates one circuit per entry, so its
# block is smaller; either block is a few percent of the operation's work.
EXACT_BLOCK = (32, 8)
SHOTS_BLOCK = (8, 4)
REFERENCE_TOL = 1e-12  # exact-mode entries against the per-gate simulator


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_operation(qk, train_ds, test_ds, kernels: dict, scores: dict, index: int) -> list[str]:
    """Check one (config, trial) operation; returns the problems found.

    Scores must cover every kernel and lie in [0, 1].  One kernel per
    operation, rotating with ``index``, has a leading block of the
    operation's train/test Gram pair reproduced through the public
    ``kernels.gram_pair`` and checked for the invariants of its mode.
    """
    problems = []
    if set(scores) != set(kernels):
        problems.append(f"scores cover {sorted(scores)}, kernels are {sorted(kernels)}")
    for name, values in scores.items():
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"{name}: balanced accuracy / F1 {values} outside [0, 1]")

    name = list(kernels)[index % len(kernels)]
    config = qk.kernels.resolve_gamma(kernels[name], train_ds.X)
    rows, cols = SHOTS_BLOCK if config.mode == "shots" else EXACT_BLOCK
    train_x, test_x = train_ds.X[:rows], test_ds.X[:cols]
    train_gram, cross_gram = qk.kernels.gram_pair(train_x, test_x, config)
    where = f"{name} F={train_ds.X.shape[1]} N={len(train_ds) + len(test_ds)}"
    if config.mode == "shots":
        counts = cross_gram.values * config.shots
        if not np.array_equal(counts, np.round(counts)):
            problems.append(f"{where}: cross-Gram entries are not multiples of 1/{config.shots}")
        return problems

    k = train_gram.values
    if not np.array_equal(k, k.T):
        problems.append(f"{where}: train Gram is not exactly symmetric")
    if not np.all(np.diag(k) == 1.0):
        problems.append(f"{where}: train Gram diagonal is not exactly 1")
    for label, values in (("train", k), ("cross", cross_gram.values)):
        if values.min() < 0.0 or values.max() > 1.0:
            problems.append(f"{where}: {label} Gram values outside [0, 1]")
    if config.kind == "quantum":
        for got, x, y in ((k[0, 1], train_x[0], train_x[1]),
                          (cross_gram.values[0, 0], test_x[0], train_x[0])):
            ref = _reference_entry(qk, config.feature_map, x, y)
            if abs(got - ref) > REFERENCE_TOL:
                problems.append(f"{where}: kernel entry {float(got)!r} differs from the per-gate "
                                f"reference {ref!r} by more than {REFERENCE_TOL}")
    return problems


def _reference_entry(qk, spec, x, y) -> float:
    """|<psi(y)|psi(x)>|^2 from the per-gate simulator, the oracle of every fast path."""
    sx = qk.simulator.simulate(qk.feature_maps.build_feature_map(spec, x)).amplitudes
    sy = qk.simulator.simulate(qk.feature_maps.build_feature_map(spec, y)).amplitudes
    overlap = np.vdot(sy, sx)
    return float(overlap.real**2 + overlap.imag**2)


def check_call(qk, out: Path, expect_advantage: bool) -> tuple[list[str], dict]:
    """Check one finished ``cli.main`` call from its files.

    Every digest in the manifest must match its file, and a sweep must hold
    one record per (config, kernel, trial).  With ``expect_advantage`` the
    yyy-minus-rbf EQA difference must be positive at every grid point, as
    acceptance criterion 7 requires; the points where it is not are
    returned with their difference, so their operations count as failed.
    """
    problems = []
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
    for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
        if sha256(path) != digest:
            problems.append(f"manifest digest does not match {path}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    if doc.get("format") != "qkslab-sweep":
        return problems, {}
    sr = qk.experiment.sweep_from_doc(doc)
    for key, records in sr.cells.items():
        if len(records) != sr.trials:
            problems.append(f"sweep cell {key} holds {len(records)} of {sr.trials} trials")
    if len(sr.cells) != len(sr.configs) * len(sr.kernel_names):
        problems.append(f"sweep holds {len(sr.cells)} cells, expected "
                        f"{len(sr.configs)} configs x {len(sr.kernel_names)} kernels")
    no_advantage = {}
    if expect_advantage:
        for cfg, diff in qk.experiment.eqa_difference(sr, "yyy", "rbf").items():
            if not diff > 0.0:
                no_advantage[(cfg.features, cfg.size)] = diff
    return problems, no_advantage
