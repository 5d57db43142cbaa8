"""Experiment orchestration: sweeps, reference trials, EQA, PTRI, variability.

A sweep walks a grid of (feature count, dataset size) points.  Per point
and trial it draws one stratified subset and evaluates every kernel on
that same subset (paired design), so kernel comparisons are same-data by
construction.  Trial seeds derive from mix64(master_seed, F, N, trial),
which makes the whole sweep a pure function of its arguments.
``run_sweep``, ``ptri`` and ``variability_study`` return the documents they are
written as; a sweep file is read back as a ``SweepResult`` (``sweep_from_doc``), which
holds what the grid analyses read of it.
"""
from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields as record_fields, replace

import numpy as np

from .data import DEFAULT_SPLIT_RATIO, Dataset, sample_subset, scale_split
from .documents import check_between, check_format, check_int, fields, write_csv
from .kernels import KernelConfig, config_to_doc, gram_pair
from .metrics import balanced_accuracy, confusion, f1
from .seeding import mix64
from .svm import DEFAULT_C, DEFAULT_TOL, predict, train

DEFAULT_SIZES = (200, 250, 300, 350, 400)
DEFAULT_FEATURE_COUNTS = (5, 6, 7)
DEFAULT_BINS = 20  # variability histogram bins
METRICS = ("balanced_accuracy", "f1")  # what a trial scores, in evaluate_kernels_on_subset's order
SWEEP_FORMAT = "qkslab-sweep"
PTRI_FORMAT = "qkslab-ptri"
VARIABILITY_FORMAT = "qkslab-variability"
RESULT_VERSION = "1.0"


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
    balanced_accuracy: float  # the METRICS, in their order
    f1: float
    fingerprint: str  # digest of the train/test row ids (paired-design witness)

    def __post_init__(self) -> None:
        # refuse what no sweep writes: bool is an int subclass, and JSON reads true as one
        kinds = {"trial": int, "trial_seed": int, "fingerprint": str} | dict.fromkeys(METRICS, (int, float))
        for name, kind in kinds.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or name in METRICS and not 0 <= value <= 1:
                raise ValueError(f"record field {name} cannot hold {value!r}")


@dataclass(eq=False)
class SweepResult:
    """A sweep file as ``sweep_from_doc`` reads it: grid, kernel names, trial count, records."""
    configs: tuple[ConfigPoint, ...]
    kernel_names: tuple[str, ...]
    trials: int
    cells: dict[tuple[int, int, str], list[TrialRecord]]

    def records(self, config: ConfigPoint, kernel: str) -> list[TrialRecord]:
        if kernel not in self.kernel_names:
            raise ValueError(f"kernel {kernel!r} not present in the sweep")
        return self.cells[(config.features, config.size, kernel)]

    def metric_values(self, config: ConfigPoint, kernel: str,
                      metric: str = METRICS[0]) -> list[float]:
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
    train_ds, test_ds = scale_split(*sample_subset(ds, point.size, point.features, trial_seed,
                                                   split_ratio))
    instances = {}
    for k in kernels:
        fm = None if k.feature_map is None else replace(k.feature_map, num_features=point.features)
        instances[k.name] = replace(k, feature_map=fm, master_seed=mix64(k.master_seed, trial_seed))
    return trial_seed, train_ds, test_ds, instances


def evaluate_kernels_on_subset(train_ds: Dataset, test_ds: Dataset, kernels: dict[str, KernelConfig],
                               svm_c: float, svm_tol: float) -> dict[str, tuple[float, float]]:
    """Each kernel's ``METRICS`` scores, trained and tested on one already-scaled split."""
    out: dict[str, tuple[float, float]] = {}
    for name, kcfg in kernels.items():
        train_gram, cross_gram = gram_pair(train_ds.X, test_ds.X, kcfg,
                                           train_ids=train_ds.ids, test_ids=test_ds.ids)
        model = train(train_gram, train_ds.y, C=svm_c, tol=svm_tol)
        cm = confusion(test_ds.y, predict(model, cross_gram))
        out[name] = (balanced_accuracy(cm), f1(cm))
        del train_gram, cross_gram, model  # the next kernel's Grams are built without these
    return out


def _unique_grid(configs) -> tuple[ConfigPoint, ...]:
    """The grid points, at least one, each (F, N) once: a repeated one would hold two trials per index."""
    configs = tuple(ConfigPoint(c.features, c.size) if isinstance(c, ConfigPoint) else ConfigPoint(*c)
                    for c in configs)
    for c in configs:
        check_int("F", c.features, 1)
        check_int("N", c.size, 1)
    if not configs:
        raise ValueError("a grid needs at least one point")
    repeated = sorted({(c.features, c.size) for c in configs if configs.count(c) > 1})
    if repeated:
        raise ValueError(f"grid points (F, N) must be unique; repeated: {repeated}")
    return configs


@contextmanager
def _at(point: ConfigPoint, t: int):
    """Re-raise a failure as an ``ExperimentError`` naming trial ``t`` at ``point``."""
    try:
        yield
    except Exception as exc:
        raise ExperimentError(
            f"config (F={point.features}, N={point.size}) trial {t}: {exc}") from exc


def cell(ds: Dataset, point: ConfigPoint, t: int, master_seed: int, split_ratio: float, kernels,
         svm_c: float, svm_tol: float) -> dict[str, TrialRecord]:
    """Every kernel's record of trial ``t`` at ``point``, by name, scored on one shared split:
    a pure function of its arguments, so a sweep's cells may run in any order or process."""
    with _at(point, t):
        trial_seed, train_ds, test_ds, trial_kernels = trial(ds, point, t, master_seed,
                                                             split_ratio, kernels)
        fingerprint = _subset_fingerprint(train_ds, test_ds)
        scores = evaluate_kernels_on_subset(train_ds, test_ds, trial_kernels, svm_c, svm_tol)
    return {name: TrialRecord(t, trial_seed, *values, fingerprint)
            for name, values in scores.items()}


def _settings(master_seed, split_ratio, svm_c, svm_tol) -> dict:
    """A sweep document's settings, each refused outside the range its users accept."""
    return {"master_seed": check_int("master_seed", master_seed),
            "split_ratio": check_between("split_ratio", split_ratio, 0, 1),
            "svm": {"C": check_between("C", svm_c, 0, math.inf),
                    "tol": check_between("tol", svm_tol, 0, math.inf)}}


def run_sweep(ds: Dataset, configs, kernels, trials: int, master_seed: int,
              split_ratio: float = DEFAULT_SPLIT_RATIO, svm_c: float = DEFAULT_C,
              svm_tol: float = DEFAULT_TOL) -> dict:
    """The ``qkslab-sweep`` document of every kernel at every (config, trial) on shared subsets:
    each ``cell`` runs in grid order, and the cells are listed by (F, N, kernel), each with its
    records and their per-metric mean and std."""
    check_int("trials", trials, 1)
    configs = _unique_grid(configs)
    settings = _settings(master_seed, split_ratio, svm_c, svm_tol)
    if len({k.name for k in kernels}) != len(kernels):
        raise ValueError("kernel names must be unique")
    for point in configs:  # a point whose trials cannot be drawn fails before any cell runs
        with _at(point, 0):
            trial(ds, point, 0, master_seed, split_ratio, kernels)
    cells = []
    for point in configs:
        records = [cell(ds, point, t, master_seed, split_ratio, kernels, svm_c, svm_tol)
                   for t in range(trials)]
        for k in kernels:
            entry = {"features": point.features, "size": point.size, "kernel": k.name,
                     "records": [asdict(r[k.name]) for r in records]}
            for metric in METRICS:
                entry[f"mean_{metric}"], entry[f"std_{metric}"] = mean_std(
                    r[metric] for r in entry["records"])
            cells.append(entry)
    return {"format": SWEEP_FORMAT, "version": RESULT_VERSION, "trials": trials, **settings,
            "configs": [[c.features, c.size] for c in configs],
            "kernels": [config_to_doc(k) for k in kernels],
            "cells": sorted(cells, key=lambda c: (c["features"], c["size"], c["kernel"]))}


def select_reference_trials(sr: SweepResult, baseline: str) -> dict[ConfigPoint, tuple[int, int]]:
    """Per grid point, the (min, max) trial indices of the baseline's BA.

    Ties break toward the lowest trial index.
    """
    return {cfg: (int(np.argmin(bas)), int(np.argmax(bas)))
            for cfg in sr.configs for bas in [sr.metric_values(cfg, baseline)]}


def eqa_difference(sr: SweepResult, quantum: str, classical: str) -> dict[ConfigPoint, float]:
    """Mean BA difference quantum minus classical per grid point.

    Positive values sit above the zero-advantage line.
    """
    return {cfg: mean_std(sr.metric_values(cfg, quantum))[0]
            - mean_std(sr.metric_values(cfg, classical))[0] for cfg in sr.configs}


def ptri_scores(z: np.ndarray) -> np.ndarray:
    """Root-sum-of-squared differences to the up-to-8 adjacent grid cells (Riley et al., 1999).

    Every cell adds its neighbours' terms in the same (dr, dc) order, and ``float_power``
    squares as a float64 scalar's ``** 2`` does, so each score has the bits of a per-cell loop.
    """
    rows, cols = z.shape
    acc = np.zeros(z.shape)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:  # the cells [r0:r1, c0:c1] whose (r + dr, c + dc) neighbour is on the grid
                r0, r1, c0, c1 = max(-dr, 0), rows - max(dr, 0), max(-dc, 0), cols - max(dc, 0)
                acc[r0:r1, c0:c1] += np.float_power(z[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
                                                    - z[r0:r1, c0:c1], 2)
    return np.sqrt(acc)


def ptri(sr: SweepResult, methods: list[str], metric: str = METRICS[0],
         trial_selection: str = "all", baseline: str | None = None) -> dict:
    """The ``qkslab-ptri`` document: each method's metric surface over the grid and its ruggedness.

    ``trial_selection="all"`` averages every trial per cell; ``"reference"``
    averages the distinct (min, max) trials of the baseline (default: the
    method itself; refused with ``"all"``).
    """
    if not methods or len(set(methods)) != len(methods):
        raise ValueError(f"methods must be one or more distinct kernels, got {methods}")
    if metric not in METRICS:
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

    def mean(cfg: ConfigPoint, method: str) -> float:
        vals = sr.metric_values(cfg, method, metric)
        keep = sorted(set(refs[method][cfg])) if trial_selection == "reference" else range(len(vals))
        return mean_std(vals[t] for t in keep)[0]

    surfaces = {}
    for m in methods:
        z = np.array([[mean(ConfigPoint(f, n), m) for n in size_axis] for f in feature_axis])
        surfaces[m] = {"values": z.tolist(), "scores": ptri_scores(z).tolist()}
    return {"format": PTRI_FORMAT, "version": RESULT_VERSION, "metric": metric,
            "trial_selection": trial_selection, "baseline": baseline,
            "feature_axis": list(feature_axis), "size_axis": list(size_axis), "surfaces": surfaces}


def variability_study(ds: Dataset, config: ConfigPoint, kernel: KernelConfig, trials: int,
                      master_seed: int, split_ratio: float = DEFAULT_SPLIT_RATIO,
                      svm_c: float = DEFAULT_C, svm_tol: float = DEFAULT_TOL,
                      bins: int = DEFAULT_BINS) -> dict:
    """The ``qkslab-variability`` document: repeated subset-train-test cycles and their BA spread.

    The trials, their mean and std are the one cell of a one-point, one-kernel ``run_sweep``.
    """
    check_int("trials", trials, 2)
    check_int("bins", bins, 1)
    (sweep_cell,) = run_sweep(ds, [config], [kernel], trials, master_seed, split_ratio, svm_c,
                              svm_tol)["cells"]
    bas = [r["balanced_accuracy"] for r in sweep_cell["records"]]
    lo, hi = min(bas), max(bas)
    if hi <= lo:  # degenerate distribution still gets plottable bins
        lo, hi = lo - 0.005, hi + 0.005
    counts, edges = np.histogram(bas, bins=bins, range=(lo, hi))
    return {"format": VARIABILITY_FORMAT, "version": RESULT_VERSION,
            "features": config.features, "size": config.size, "kernel": kernel.name,
            "trials": trials, "master_seed": master_seed,
            "records": sweep_cell["records"], "mean": sweep_cell["mean_balanced_accuracy"],
            "std": sweep_cell["std_balanced_accuracy"],
            "histogram": {"bin_edges": edges.tolist(), "counts": counts.tolist()}}


# --- serialization ----------------------------------------------------------------

RECORD_FIELDS = tuple(f.name for f in record_fields(TrialRecord))
TABLE_FIELDS = tuple(name for name in RECORD_FIELDS if name != "fingerprint")  # CSV record columns


def sweep_from_doc(doc: dict, where="document") -> SweepResult:
    """The sweep in a ``qkslab-sweep`` document; ``where`` names it in errors."""
    check_format(doc, SWEEP_FORMAT, RESULT_VERSION, where)
    with fields(where):
        _settings(doc["master_seed"], doc["split_ratio"], doc["svm"]["C"], doc["svm"]["tol"])
        if not all(isinstance(k, dict) and isinstance(k.get("name"), str) and k["name"]
                   for k in doc["kernels"]):
            raise ValueError("each kernel entry must be an object with a non-empty string name")
        kernel_names = tuple(k["name"] for k in doc["kernels"])
        if len(set(kernel_names)) != len(kernel_names):
            raise ValueError("kernel names must be unique")
        configs, trials = _unique_grid(doc["configs"]), check_int("trials", doc["trials"], 1)
        cells: dict[tuple[int, int, str], list[TrialRecord]] = {}
        for cell in doc["cells"]:
            key = (check_int("F", cell["features"], 1), check_int("N", cell["size"], 1), cell["kernel"])
            held = [r["trial"] for r in cell["records"]]
            if held != list(range(trials)):
                raise ValueError(f"cell {key} holds trials {held} for {trials} trials")
            if cell["kernel"] not in kernel_names:
                raise ValueError(f"cell {key} names a kernel the sweep does not list")
            if ConfigPoint(*key[:2]) not in configs or key in cells:
                raise ValueError(f"cell {key} is off the sweep's grid or listed twice")
            # each record is checked as a TrialRecord; keys beyond its fields are ignored
            cells[key] = [TrialRecord(**{name: r[name] for name in RECORD_FIELDS})
                          for r in cell["records"]]
        missing = [(c.features, c.size, k) for c in configs for k in kernel_names
                   if (c.features, c.size, k) not in cells]
        if missing:
            raise ValueError(f"no cells for {missing}")
        return SweepResult(configs, kernel_names, trials, cells)


def result_table_rows(doc: dict) -> tuple[list[str], list[list]]:
    """A result document qkslab built, flattened into plot-ready tabular rows."""
    def columns(r: dict) -> list:
        return [repr(r[name]) if name in METRICS else r[name] for name in TABLE_FIELDS]

    if doc["format"] == SWEEP_FORMAT:
        header = ["features", "size", "kernel", *TABLE_FIELDS]
        rows = [[c["features"], c["size"], c["kernel"], *columns(r)]
                for c in doc["cells"] for r in c["records"]]
    elif doc["format"] == PTRI_FORMAT:
        header = ["method", "features", "size", "mean_metric", "score"]
        rows = [[method, f, n, repr(surface["values"][fi][si]), repr(surface["scores"][fi][si])]
                for method, surface in sorted(doc["surfaces"].items())
                for fi, f in enumerate(doc["feature_axis"]) for si, n in enumerate(doc["size_axis"])]
    else:
        header = list(TABLE_FIELDS)
        rows = [columns(r) for r in doc["records"]]
    return header, rows


def write_table(doc: dict, path) -> None:
    write_csv(path, *result_table_rows(doc))
