"""Experiment orchestration: sweeps, reference trials, EQA, PTRI, variability.

A sweep walks a grid of (feature count, dataset size) points.  Per point
and trial it draws one stratified subset and evaluates every kernel on
that same subset (paired design), so kernel comparisons are same-data by
construction.  Trial seeds derive from mix64(master_seed, F, N, trial),
which makes the whole sweep a pure function of its arguments.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import DEFAULT_SPLIT_RATIO, Dataset, SubsetSpec, sample_subset, scale_split
from .documents import check_format, fields, write_csv
from .kernels import KernelConfig, config_to_doc, gram_pair, resolve_gamma
from .metrics import balanced_accuracy, confusion, f1
from .seeding import mix64
from .svm import DEFAULT_C, DEFAULT_TOL, predict, train

DEFAULT_SIZES = (200, 250, 300, 350, 400)
DEFAULT_FEATURE_COUNTS = (5, 6, 7)
DEFAULT_BINS = 20  # variability histogram bins


class ExperimentError(RuntimeError):
    """Failure inside a sweep, annotated with its (config, trial) coordinates."""


@dataclass(frozen=True)
class ConfigPoint:
    features: int
    size: int


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    trial_seed: int
    balanced_accuracy: float
    f1: float
    fingerprint: str  # digest of the train/test row ids (paired-design witness)


@dataclass(eq=False)
class SweepResult:
    configs: tuple[ConfigPoint, ...]
    kernels: dict[str, dict]  # each kernel's ``config_to_doc`` description, by name
    trials: int
    master_seed: int
    split_ratio: float
    svm_c: float
    svm_tol: float
    cells: dict[tuple[int, int, str], list[TrialRecord]]

    @property
    def kernel_names(self) -> tuple[str, ...]:
        return tuple(self.kernels)

    def records(self, config: ConfigPoint, kernel: str) -> list[TrialRecord]:
        return self.cells[(config.features, config.size, kernel)]

    def metric_values(self, config: ConfigPoint, kernel: str, metric: str = "balanced_accuracy") -> list[float]:
        return [getattr(r, metric) for r in self.records(config, kernel)]


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1); std is 0.0 for n < 2."""
    vals = list(values)
    n = len(vals)
    m = math.fsum(vals) / n
    if n < 2:
        return m, 0.0
    return m, math.sqrt(math.fsum((v - m) ** 2 for v in vals) / (n - 1))


def _subset_fingerprint(train: Dataset, test: Dataset) -> str:
    text = " ".join(train.ids) + "|" + " ".join(test.ids)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def trial(ds: Dataset, point: ConfigPoint, t: int, master_seed: int, split_ratio: float,
          kernels) -> tuple[int, Dataset, Dataset, dict[str, KernelConfig]]:
    """Trial ``t`` at ``point``: seed mix64(master_seed, F, N, t), the scaled train/test split,
    and each kernel template at F with seed mix64(kernel master, trial seed), by name."""
    trial_seed = mix64(master_seed, point.features, point.size, t)
    subset = SubsetSpec(point.size, point.features, trial_seed, split_ratio)
    train_ds, test_ds = scale_split(*sample_subset(ds, subset))
    instances = {}
    for k in kernels:
        fm = None if k.feature_map is None else replace(k.feature_map, num_features=point.features)
        instances[k.name] = replace(k, feature_map=fm, master_seed=mix64(k.master_seed, trial_seed))
    return trial_seed, train_ds, test_ds, instances


def evaluate_kernels_on_subset(train_ds: Dataset, test_ds: Dataset, kernels: dict[str, KernelConfig],
                               svm_c: float, svm_tol: float) -> dict[str, tuple[float, float]]:
    """Train and score every kernel on one already-scaled train/test split."""
    out: dict[str, tuple[float, float]] = {}
    for name, kcfg in kernels.items():
        kcfg = resolve_gamma(kcfg, train_ds.X)
        train_gram, cross_gram = gram_pair(train_ds.X, test_ds.X, kcfg,
                                           train_ids=train_ds.ids, test_ids=test_ds.ids)
        model = train(train_gram, train_ds.y, C=svm_c, tol=svm_tol)
        cm = confusion(test_ds.y, predict(model, cross_gram))
        out[name] = (balanced_accuracy(cm), f1(cm))
    return out


def _unique_grid(configs) -> tuple[ConfigPoint, ...]:
    """The grid points, each (F, N) listed once: a repeated one would hold two trials per index."""
    configs = tuple(ConfigPoint(c.features, c.size) if isinstance(c, ConfigPoint) else ConfigPoint(*c)
                    for c in configs)
    repeated = sorted({(c.features, c.size) for c in configs if configs.count(c) > 1})
    if repeated:
        raise ValueError(f"grid points (F, N) must be unique; repeated: {repeated}")
    return configs


def run_sweep(ds: Dataset, configs, kernels, trials: int, master_seed: int,
              split_ratio: float = DEFAULT_SPLIT_RATIO, svm_c: float = DEFAULT_C,
              svm_tol: float = DEFAULT_TOL) -> SweepResult:
    """Evaluate every kernel at every (config, trial) on shared subsets."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    configs = _unique_grid(configs)
    kernel_map = {k.name: k for k in kernels}
    if len(kernel_map) != len(kernels):
        raise ValueError("kernel names must be unique")
    cells: dict[tuple[int, int, str], list[TrialRecord]] = {
        (c.features, c.size, name): [] for c in configs for name in kernel_map
    }
    for cfg in configs:
        for t in range(trials):
            try:
                trial_seed, train_ds, test_ds, trial_kernels = trial(
                    ds, cfg, t, master_seed, split_ratio, kernel_map.values())
                fingerprint = _subset_fingerprint(train_ds, test_ds)
                scores = evaluate_kernels_on_subset(train_ds, test_ds, trial_kernels, svm_c, svm_tol)
            except Exception as exc:
                raise ExperimentError(
                    f"config (F={cfg.features}, N={cfg.size}) trial {t}: {exc}") from exc
            for name, (ba, f1_score) in scores.items():
                cells[(cfg.features, cfg.size, name)].append(
                    TrialRecord(t, trial_seed, ba, f1_score, fingerprint))
    return SweepResult(configs, {name: config_to_doc(k) for name, k in kernel_map.items()},
                       trials, master_seed, split_ratio, svm_c, svm_tol, cells)


@dataclass(frozen=True)
class ReferenceTrials:
    closest_to_mean: int
    closest_to_min: int
    closest_to_max: int


def select_reference_trials(sr: SweepResult, baseline: str) -> dict[ConfigPoint, ReferenceTrials]:
    """Trial indices where the baseline's BA is nearest its mean/min/max.

    Ties break toward the lowest trial index.
    """
    if baseline not in sr.kernel_names:
        raise ValueError(f"baseline kernel {baseline!r} not present in the sweep")
    out: dict[ConfigPoint, ReferenceTrials] = {}
    for cfg in sr.configs:
        bas = sr.metric_values(cfg, baseline)
        mean, _ = mean_std(bas)

        def nearest(target: float) -> int:
            return min(range(len(bas)), key=lambda t: (abs(bas[t] - target), t))

        out[cfg] = ReferenceTrials(nearest(mean), nearest(min(bas)), nearest(max(bas)))
    return out


def eqa_difference(sr: SweepResult, quantum: str, classical: str) -> dict[ConfigPoint, float]:
    """Mean BA difference quantum minus classical per grid point.

    Positive values sit above the zero-advantage line.
    """
    for name in (quantum, classical):
        if name not in sr.kernel_names:
            raise ValueError(f"kernel {name!r} not present in the sweep")
    out: dict[ConfigPoint, float] = {}
    for cfg in sr.configs:
        qm, _ = mean_std(sr.metric_values(cfg, quantum))
        cm, _ = mean_std(sr.metric_values(cfg, classical))
        out[cfg] = qm - cm
    return out


@dataclass(eq=False)
class PTRIGrid:
    feature_axis: tuple[int, ...]
    size_axis: tuple[int, ...]
    values: dict[str, np.ndarray]  # metric surface per method
    scores: dict[str, np.ndarray]  # ruggedness surface per method


def ptri_scores(z: np.ndarray) -> np.ndarray:
    """Root-sum-of-squared differences to the up-to-8 adjacent grid cells."""
    rows, cols = z.shape
    scores = np.zeros_like(z)
    for r in range(rows):
        for c in range(cols):
            acc = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        acc += (z[rr, cc] - z[r, c]) ** 2
            scores[r, c] = math.sqrt(acc)
    return scores


def ptri(sr: SweepResult, methods: list[str], metric: str = "balanced_accuracy",
         trial_selection: str = "all", baseline: str | None = None) -> PTRIGrid:
    """Ruggedness surfaces of each method's metric over the full config grid, in one grid.

    ``trial_selection="all"`` averages every trial per cell;
    ``"reference"`` averages the two trials where the baseline (default:
    the method itself; refused with ``"all"``) was closest to its min and max.
    """
    if not methods:
        raise ValueError("no methods to score")
    for method in methods:
        if method not in sr.kernel_names:
            raise ValueError(f"kernel {method!r} not present in the sweep")
    if metric != "balanced_accuracy" and metric != "f1":
        raise ValueError(f"unknown metric {metric!r}")
    feature_axis = tuple(sorted({c.features for c in sr.configs}))
    size_axis = tuple(sorted({c.size for c in sr.configs}))
    present = {(c.features, c.size) for c in sr.configs}
    missing = [(f, n) for f in feature_axis for n in size_axis if (f, n) not in present]
    if missing:
        raise ValueError(f"config grid is ragged; missing points: {missing}")

    if trial_selection == "reference":
        refs = {m: select_reference_trials(sr, baseline or m) for m in methods}
    elif trial_selection != "all":
        raise ValueError(f"unknown trial_selection {trial_selection!r}")
    elif baseline is not None:
        raise ValueError("a baseline applies only to trial_selection 'reference' (--selection reference)")

    grid = PTRIGrid(feature_axis, size_axis, {}, {})
    for method in methods:
        z = np.zeros((len(feature_axis), len(size_axis)))
        for fi, f in enumerate(feature_axis):
            for si, n in enumerate(size_axis):
                cfg = ConfigPoint(f, n)
                vals = sr.metric_values(cfg, method, metric)
                if trial_selection == "reference":
                    ref = refs[method][cfg]
                    vals = [vals[t] for t in sorted({ref.closest_to_min, ref.closest_to_max})]
                z[fi, si], _ = mean_std(vals)
        grid.values[method] = z
        grid.scores[method] = ptri_scores(z)
    return grid


@dataclass(eq=False)
class VariabilityResult:
    features: int
    size: int
    kernel_name: str
    trials: int
    master_seed: int
    records: list[TrialRecord]
    mean: float
    std: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray


def variability_study(ds: Dataset, config: ConfigPoint, kernel: KernelConfig, trials: int,
                      master_seed: int, split_ratio: float = DEFAULT_SPLIT_RATIO,
                      svm_c: float = DEFAULT_C, svm_tol: float = DEFAULT_TOL,
                      bins: int = DEFAULT_BINS) -> VariabilityResult:
    """Repeat subset-train-test cycles and summarize the BA distribution.

    The trials are those of a one-point, one-kernel ``run_sweep``.
    """
    if trials < 2:
        raise ValueError("variability needs at least two trials")
    records = run_sweep(ds, [config], [kernel], trials, master_seed, split_ratio, svm_c,
                        svm_tol).records(config, kernel.name)
    bas = [r.balanced_accuracy for r in records]
    mean, std = mean_std(bas)
    lo, hi = min(bas), max(bas)
    if hi <= lo:  # degenerate distribution still gets plottable bins
        lo, hi = lo - 0.005, hi + 0.005
    counts, edges = np.histogram(bas, bins=bins, range=(lo, hi))
    return VariabilityResult(config.features, config.size, kernel.name, trials, master_seed,
                             records, mean, std, edges, counts)


# --- serialization ----------------------------------------------------------------

SWEEP_FORMAT = "qkslab-sweep"
PTRI_FORMAT = "qkslab-ptri"
VARIABILITY_FORMAT = "qkslab-variability"
RESULT_VERSION = "1.0"
RESULT_FORMATS = dict.fromkeys((SWEEP_FORMAT, PTRI_FORMAT, VARIABILITY_FORMAT), RESULT_VERSION)


def _record_doc(r: TrialRecord) -> dict:
    return {"trial": r.trial, "trial_seed": r.trial_seed,
            "balanced_accuracy": r.balanced_accuracy, "f1": r.f1, "fingerprint": r.fingerprint}


def sweep_to_doc(sr: SweepResult) -> dict:
    cells = []
    for (features, size, kernel), records in sorted(sr.cells.items()):
        mean_ba, std_ba = mean_std(r.balanced_accuracy for r in records)
        mean_f1, std_f1 = mean_std(r.f1 for r in records)
        cells.append({
            "features": features, "size": size, "kernel": kernel,
            "records": [_record_doc(r) for r in records],
            "mean_balanced_accuracy": mean_ba, "std_balanced_accuracy": std_ba,
            "mean_f1": mean_f1, "std_f1": std_f1,
        })
    return {
        "format": SWEEP_FORMAT, "version": RESULT_VERSION,
        "master_seed": sr.master_seed, "trials": sr.trials, "split_ratio": sr.split_ratio,
        "svm": {"C": sr.svm_c, "tol": sr.svm_tol},
        "configs": [[c.features, c.size] for c in sr.configs],
        "kernels": list(sr.kernels.values()),
        "cells": cells,
    }


def sweep_from_doc(doc: dict, where="document") -> SweepResult:
    """The sweep in a ``qkslab-sweep`` document; ``where`` names it in errors."""
    check_format(doc, {SWEEP_FORMAT: RESULT_VERSION}, where)
    with fields(where):
        cells: dict[tuple[int, int, str], list[TrialRecord]] = {}
        kernels = {k["name"]: k for k in doc["kernels"]}
        if len(kernels) != len(doc["kernels"]):
            raise ValueError("kernel names must be unique")
        configs = _unique_grid(doc["configs"])
        for cell in doc["cells"]:
            key = (cell["features"], cell["size"], cell["kernel"])
            trials = [r["trial"] for r in cell["records"]]
            if trials != list(range(doc["trials"])) or not trials:
                raise ValueError(f"cell {key} holds trials {trials} for {doc['trials']} trials")
            if cell["kernel"] not in kernels:
                raise ValueError(f"cell {key} names a kernel the sweep does not list")
            if ConfigPoint(*key[:2]) not in configs or key in cells:
                raise ValueError(f"cell {key} is off the sweep's grid or listed twice")
            cells[key] = [TrialRecord(r["trial"], r["trial_seed"], r["balanced_accuracy"],
                                      r["f1"], r["fingerprint"]) for r in cell["records"]]
        missing = [(c.features, c.size, k) for c in configs for k in kernels
                   if (c.features, c.size, k) not in cells]
        if missing:
            raise ValueError(f"no cells for {missing}")
        return SweepResult(configs, kernels, doc["trials"], doc["master_seed"],
                           doc["split_ratio"], doc["svm"]["C"], doc["svm"]["tol"], cells)


def ptri_to_doc(grid: PTRIGrid, metric: str, trial_selection: str, baseline: str | None) -> dict:
    return {
        "format": PTRI_FORMAT, "version": RESULT_VERSION,
        "metric": metric, "trial_selection": trial_selection, "baseline": baseline,
        "feature_axis": list(grid.feature_axis), "size_axis": list(grid.size_axis),
        "surfaces": {
            method: {"values": grid.values[method].tolist(), "scores": grid.scores[method].tolist()}
            for method in sorted(grid.values)
        },
    }


def variability_to_doc(vr: VariabilityResult) -> dict:
    return {
        "format": VARIABILITY_FORMAT, "version": RESULT_VERSION,
        "features": vr.features, "size": vr.size, "kernel": vr.kernel_name,
        "trials": vr.trials, "master_seed": vr.master_seed,
        "records": [_record_doc(r) for r in vr.records],
        "mean": vr.mean, "std": vr.std,
        "histogram": {"bin_edges": vr.bin_edges.tolist(), "counts": vr.bin_counts.tolist()},
    }


def result_table_rows(doc: dict, where="document") -> tuple[list[str], list[list]]:
    """Flatten any result document into plot-ready tabular rows."""
    kind = check_format(doc, RESULT_FORMATS, where)
    with fields(where):
        if kind == SWEEP_FORMAT:
            header = ["features", "size", "kernel", "trial", "trial_seed", "balanced_accuracy",
                      "f1"]
            rows = [[c["features"], c["size"], c["kernel"], r["trial"], r["trial_seed"],
                     repr(r["balanced_accuracy"]), repr(r["f1"])]
                    for c in doc["cells"] for r in c["records"]]
        elif kind == PTRI_FORMAT:
            header = ["method", "features", "size", "mean_metric", "score"]
            rows = []
            for method, surface in sorted(doc["surfaces"].items()):
                for fi, f in enumerate(doc["feature_axis"]):
                    for si, n in enumerate(doc["size_axis"]):
                        rows.append([method, f, n, repr(surface["values"][fi][si]),
                                     repr(surface["scores"][fi][si])])
        else:
            header = ["trial", "trial_seed", "balanced_accuracy", "f1"]
            rows = [[r["trial"], r["trial_seed"], repr(r["balanced_accuracy"]), repr(r["f1"])]
                    for r in doc["records"]]
    return header, rows


def write_table(doc: dict, path) -> None:
    write_csv(path, *result_table_rows(doc))
