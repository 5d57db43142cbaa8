"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the pass/fail
lines; the full-pipeline criterion takes a few minutes.
"""
import functools
import hashlib
import itertools
import json
import time
import warnings
from fractions import Fraction
from math import pi, sqrt

import numpy as np
import pytest
from qkslab.cli import main as cli_main
from qkslab.data import quantum_separable_dataset, synthetic_dataset
from qkslab.experiment import (ConfigPoint, eqa_difference, mean_std, ptri, ptri_scores,
                               run_sweep, select_reference_trials, sweep_from_doc,
                               variability_study)
from qkslab.feature_maps import PRESETS, FeatureMapSpec
from qkslab.kernels import GramMatrix, gram_matrix, quantum_config, rbf_config
from qkslab.metrics import ConfusionMatrix, balanced_accuracy, confusion, f1
from qkslab.resources import estimate, measure
from qkslab.simulator import simulate
from qkslab.svm import train

from oracles import (kernel_entry, random_circuit, simulate_by_matrices, solve_dual_exhaustive,
                     svm_dual_objective)


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL  {name}")
                raise
            print(f"[criterion {num}] PASS  {name}")
            return result

        return wrapper

    return deco


@criterion(1, "resource formulas match built circuits exactly")
def test_resource_formula_reproduction():
    start = time.perf_counter()
    for features in range(2, 11):
        for reps in range(1, 4):
            measured = measure(features, reps)[0]
            assert estimate(features, reps) == measured, (features, reps)
            assert measured.qubits == features
    four = estimate(4, 1)
    assert four.total == 37 and four.depth == 19
    assert time.perf_counter() - start < 1.0


@criterion(2, "simulator agrees with the full-matrix oracle on 200 random circuits")
def test_simulator_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        circuit = random_circuit(rng, n, int(rng.integers(1, 21)))
        np.testing.assert_allclose(simulate(circuit).amplitudes,
                                   simulate_by_matrices(circuit), atol=1e-9)
    assert time.perf_counter() - start < 10.0


@criterion(3, "kernels: unit diagonal, PSD, closed form, unbiased shot estimates")
def test_kernel_correctness():
    start = time.perf_counter()

    # (a) exact grams: unit diagonal and PSD across presets
    rng = np.random.default_rng(33)
    sets = [rng.uniform(0, pi, size=(8, 3)) for _ in range(50)]
    for preset in sorted(PRESETS):
        for X in sets:
            gram = gram_matrix(X, None, quantum_config(preset, 3, 2))
            assert np.all(np.abs(np.diag(gram.values) - 1.0) <= 1e-12)
            assert np.linalg.eigvalsh(gram.values).min() >= -1e-8

    # (b) single-feature Z map reduces to cos^2(y - x)
    spec = FeatureMapSpec(("Z",), 1, 1)
    for x in np.linspace(0.0, pi, 5):
        for y in np.linspace(0.0, pi, 4):
            got = kernel_entry(spec, [x], [y])
            assert abs(got - np.cos(y - x) ** 2) <= 1e-9

    # (c) shot sampling is unbiased over seeds
    shots, n_seeds = 1024, 1000
    pair_spec = FeatureMapSpec(("Y", "YY"), 2, 1)
    pair_rng = np.random.default_rng(77)
    entries = []
    while len(entries) < 20:
        x, y = pair_rng.uniform(0, pi, 2), pair_rng.uniform(0, pi, 2)
        exact = kernel_entry(pair_spec, x, y)
        if 0.05 <= exact <= 0.95:  # keep the standard error well defined
            entries.append((x, y, exact))
    for idx, (x, y, exact) in enumerate(entries):
        estimates = [kernel_entry(pair_spec, x, y, shots=shots, entry_seed=idx * 100_000 + s)
                     for s in range(n_seeds)]
        se = sqrt(exact * (1.0 - exact) / (shots * n_seeds))
        assert abs(float(np.mean(estimates)) - exact) <= 3.0 * se, idx
    assert time.perf_counter() - start < 120.0


@criterion(4, "SMO matches the brute-force QP oracle and satisfies KKT")
def test_svm_solver():
    rng = np.random.default_rng(44)
    ids8 = tuple(f"r{i}" for i in range(8))
    for problem in range(30):
        n = int(rng.integers(4, 9))
        a = rng.normal(size=(n, n))
        K = a @ a.T
        d = np.sqrt(np.diag(K))
        K = (K / np.outer(d, d) + (K / np.outer(d, d)).T) / 2
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = float(rng.choice([0.5, 1.0, 5.0]))
        gram = GramMatrix(K, ids8[:n], ids8[:n], rbf_config(gamma=1.0), True)
        model = train(gram, y, C=C, tol=1e-6)
        w_smo = svm_dual_objective(model.alphas, K, y)
        w_ref = svm_dual_objective(solve_dual_exhaustive(K, y, C), K, y)
        assert abs(w_smo - w_ref) <= 1e-4 * max(1.0, abs(w_ref)), problem

        # KKT at tol 1e-3
        tol_model = train(gram, y, C=C, tol=1e-3)
        yf = y * (K @ (tol_model.alphas * y) + tol_model.bias)
        for i in range(n):
            if tol_model.alphas[i] <= 1e-12:
                assert yf[i] >= 1 - 1e-3 - 1e-9
            elif tol_model.alphas[i] >= C - 1e-12:
                assert yf[i] <= 1 + 1e-3 + 1e-9
            else:
                assert abs(yf[i] - 1) <= 1e-3 + 1e-9

    two = train(GramMatrix(np.eye(2), ("a", "b"), ("a", "b"), rbf_config(gamma=1.0), True),
                [1, -1], C=10.0)
    assert np.all(np.abs(two.alphas - 1.0) <= 1e-6)
    assert abs(two.bias) <= 1e-6


@criterion(5, "metrics match exact rational arithmetic on all small cells")
def test_metrics_exhaustive():
    for tp, fp, tn, fn in itertools.product(range(5), repeat=4):
        if tp + fp + tn + fn == 0:
            continue
        y_true = [1] * tp + [1] * fn + [-1] * tn + [-1] * fp
        y_pred = [1] * tp + [-1] * fn + [-1] * tn + [1] * fp
        cm = confusion(y_true, y_pred)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
        if tp + fn >= 1 and tn + fp >= 1:
            expected = Fraction(1, 2) * (Fraction(tp, tp + fn) + Fraction(tn, tn + fp))
            assert abs(balanced_accuracy(cm) - float(expected)) <= 1e-15
            swapped = ConfusionMatrix(tn, fn, tp, fp)
            assert abs(balanced_accuracy(cm) - balanced_accuracy(swapped)) <= 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected_f1 = Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn else Fraction(0)
            assert abs(f1(cm) - float(expected_f1)) <= 1e-15


@criterion(6, "PTRI: flat zero, hand value, shift and scale behaviour")
def test_ptri_properties():
    assert np.all(ptri_scores(np.full((3, 5), 0.71)) == 0.0)
    z = np.full((3, 3), 0.6)
    z[1, 1] = 0.5
    assert abs(ptri_scores(z)[1, 1] - sqrt(8 * 0.01)) <= 1e-10
    rng = np.random.default_rng(66)
    for _ in range(100):
        grid = rng.uniform(0, 1, size=(int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        base = ptri_scores(grid)
        shift = float(rng.uniform(-5, 5))
        scale = float(rng.uniform(0.1, 10))
        np.testing.assert_allclose(ptri_scores(grid + shift), base, atol=1e-10)
        np.testing.assert_allclose(ptri_scores(grid * scale), base * scale, atol=1e-10)


@pytest.mark.slow
@criterion(7, "end-to-end 15-point sweep: deterministic, paired, EQA-positive")
def test_end_to_end_pipeline():
    start = time.perf_counter()
    sizes = (200, 250, 300, 350, 400)
    feature_counts = (5, 6, 7)
    configs = [ConfigPoint(f, n) for f in feature_counts for n in sizes]
    kernels = [quantum_config(p, 7, 2) for p in ("z", "zz", "yyy", "yzz", "zzz")]
    kernels.append(rbf_config())
    master_seed = 2025

    ds = synthetic_dataset(314, days=460)
    doc_a = run_sweep(ds, configs, kernels, trials=5, master_seed=master_seed)
    doc_b = run_sweep(ds, configs, kernels, trials=5, master_seed=master_seed)
    assert doc_a == doc_b  # full-sweep determinism
    sweep_a = sweep_from_doc(doc_a)

    # paired design: per (config, trial) every kernel saw the same subset
    for cfg in configs:
        for t in range(5):
            prints = {sweep_a.records(cfg, k.name)[t].fingerprint for k in kernels}
            assert len(prints) == 1

    # stored aggregates recompute exactly from the per-trial records
    for cell in doc_a["cells"]:
        bas = [r["balanced_accuracy"] for r in cell["records"]]
        mean, std = mean_std(bas)
        assert cell["mean_balanced_accuracy"] == mean
        assert cell["std_balanced_accuracy"] == std

    refs = select_reference_trials(sweep_a, "rbf")
    assert set(refs) == set(configs)
    diffs = eqa_difference(sweep_a, "yyy", "rbf")
    assert set(diffs) == set(configs)
    for method in ("yyy", "rbf"):
        scores = np.array(ptri(sweep_a, [method])["surfaces"][method]["scores"])
        assert scores.shape == (len(feature_counts), len(sizes))
        assert np.all(scores >= 0.0)

    # constructed dataset: quantum-separable labels, Euclidean-hostile geometry
    eqa_ds = quantum_separable_dataset(101, rows=460, num_features=7)
    eqa_sweep = sweep_from_doc(run_sweep(eqa_ds, configs,
                                         [quantum_config("yyy", 7, 2), rbf_config()],
                                         trials=5, master_seed=master_seed))
    advantage = eqa_difference(eqa_sweep, "yyy", "rbf")
    for cfg in configs:
        assert advantage[cfg] > 0.0, cfg

    assert time.perf_counter() - start < 1800.0


@criterion(8, "variability study: stored std equals independent recomputation")
def test_variability_study():
    ds = synthetic_dataset(271, days=460)
    doc = variability_study(ds, ConfigPoint(5, 200), rbf_config(), trials=200, master_seed=8)
    bas = [r["balanced_accuracy"] for r in doc["records"]]
    assert len(bas) == 200
    n = len(bas)
    mean = sum(bas) / n  # plain-Python recomputation
    std = sqrt(sum((b - mean) ** 2 for b in bas) / (n - 1))
    assert abs(doc["mean"] - mean) <= 1e-12
    assert abs(doc["std"] - std) <= 1e-12
    assert doc["std"] > 0.0


@criterion(9, "manifests replay to byte-identical outputs")
def test_reproducibility_envelope(tmp_path, capsys):
    def run(argv):
        code = cli_main(argv)
        capsys.readouterr()
        assert code == 0, argv
        return code

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    ds_path = tmp_path / "ds.json"
    run(["ingest", "--synthetic", "21", "--days", "120", "--out", str(ds_path)])
    gram_path = tmp_path / "k.gram"
    run(["kernel", "--dataset", str(ds_path), "--map", "yyy", "--features", "3",
         "--size", "40", "--mode", "shots", "--shots", "256", "--seed", "5",
         "--out", str(gram_path)])
    sweep_path = tmp_path / "sweep.json"
    run(["sweep", "--dataset", str(ds_path), "--sizes", "40,50", "--features", "2,3",
         "--kernels", "yyy,rbf", "--trials", "2", "--seed", "6", "--out", str(sweep_path),
         "--table", str(tmp_path / "sweep.csv")])
    ptri_path = tmp_path / "ptri.json"
    run(["ptri", "--sweep", str(sweep_path), "--methods", "yyy,rbf", "--out", str(ptri_path)])
    var_path = tmp_path / "var.json"
    run(["variability", "--dataset", str(ds_path), "--size", "40", "--features", "2",
         "--kernel", "rbf", "--trials", "4", "--seed", "7", "--out", str(var_path)])

    outputs = [ds_path, gram_path, sweep_path, tmp_path / "sweep.csv", ptri_path, var_path]
    before = {p: digest(p) for p in outputs}
    for target in (ds_path, gram_path, sweep_path, ptri_path, var_path):
        manifest = json.loads((tmp_path / (target.name + ".manifest.json")).read_text())
        assert manifest["command"]
        run(["replay", str(tmp_path / (target.name + ".manifest.json"))])
    after = {p: digest(p) for p in outputs}
    assert before == after
