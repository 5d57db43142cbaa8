"""Tests for sweeps, reference trials, EQA, PTRI, and the variability study."""
from math import sqrt

import numpy as np
import pytest

from qkslab.data import quantum_separable_dataset, synthetic_dataset
from qkslab.experiment import (ConfigPoint, SweepResult, TrialRecord,
                               eqa_difference, mean_std, ptri, ptri_scores,
                               ptri_to_doc, result_table_rows, run_sweep,
                               select_reference_trials, sweep_from_doc, sweep_to_doc,
                               variability_study, variability_to_doc, write_table)
from qkslab.documents import read_json, write_json
from qkslab.kernels import quantum_config, rbf_config


def _fake_sweep(cell_bas: dict, trials: int = 1, kernels=("m",)) -> SweepResult:
    """Build a SweepResult directly from prescribed per-trial BAs."""
    configs = sorted({(f, n) for (f, n, _k) in cell_bas})
    cells = {}
    for (f, n, k), bas in cell_bas.items():
        cells[(f, n, k)] = [TrialRecord(t, 1000 + t, ba, ba, "fp") for t, ba in enumerate(bas)]
    return SweepResult(tuple(ConfigPoint(f, n) for f, n in configs),
                       {k: {"name": k} for k in kernels}, trials, 0, 0.7, 1.0, 1e-3, cells)


# --- run_sweep ---

def test_single_cell_sweep_shape():
    ds = synthetic_dataset(1, days=80)
    sr = run_sweep(ds, [(3, 40)], [rbf_config()], trials=1, master_seed=5)
    records = sr.records(ConfigPoint(3, 40), "rbf")
    assert len(records) == 1
    assert 0.0 <= records[0].balanced_accuracy <= 1.0


def test_sweep_is_deterministic():
    ds = synthetic_dataset(2, days=90)
    kernels = [quantum_config("z", 2, 1), rbf_config()]
    a = run_sweep(ds, [(2, 40), (3, 50)], kernels, trials=2, master_seed=42)
    b = run_sweep(ds, [(2, 40), (3, 50)], kernels, trials=2, master_seed=42)
    assert sweep_to_doc(a) == sweep_to_doc(b)
    c = run_sweep(ds, [(2, 40), (3, 50)], kernels, trials=2, master_seed=43)
    assert sweep_to_doc(a) != sweep_to_doc(c)


def test_paired_design_shares_subsets_across_kernels():
    ds = synthetic_dataset(3, days=90)
    kernels = [quantum_config("yyy", 2, 1), quantum_config("z", 2, 1), rbf_config()]
    sr = run_sweep(ds, [(2, 40)], kernels, trials=3, master_seed=7)
    for t in range(3):
        prints = {sr.records(ConfigPoint(2, 40), k.name)[t].fingerprint for k in kernels}
        assert len(prints) == 1


def test_separable_dataset_reaches_high_accuracy():
    ds = quantum_separable_dataset(29, rows=120, num_features=2, informative=2, anchors=12)
    sr = run_sweep(ds, [(2, 80)], [quantum_config("yyy", 2, 2)], trials=10, master_seed=11)
    mean, _ = mean_std(sr.metric_values(ConfigPoint(2, 80), "yyy"))
    assert mean >= 0.9


def test_sweep_errors_are_annotated():
    from qkslab.experiment import ExperimentError

    ds = synthetic_dataset(4, days=50)
    with pytest.raises(ExperimentError, match=r"F=2, N=4000"):
        run_sweep(ds, [(2, 4000)], [rbf_config()], trials=1, master_seed=1)


# --- reference trials / EQA ---

def test_reference_trial_selection():
    sr = _fake_sweep({(5, 200, "m"): [0.5, 0.6, 0.7]}, trials=3)
    refs = select_reference_trials(sr, "m")[ConfigPoint(5, 200)]
    assert (refs.closest_to_mean, refs.closest_to_min, refs.closest_to_max) == (1, 0, 2)


def test_reference_selection_single_trial_and_ties():
    sr = _fake_sweep({(5, 200, "m"): [0.4]}, trials=1)
    refs = select_reference_trials(sr, "m")[ConfigPoint(5, 200)]
    assert (refs.closest_to_mean, refs.closest_to_min, refs.closest_to_max) == (0, 0, 0)
    tied = _fake_sweep({(5, 200, "m"): [0.5, 0.7]}, trials=2)
    refs = select_reference_trials(tied, "m")[ConfigPoint(5, 200)]
    assert refs.closest_to_mean == 0  # equidistant from the mean -> lowest index
    with pytest.raises(ValueError):
        select_reference_trials(sr, "missing")


def test_eqa_difference():
    sr = _fake_sweep({(5, 200, "q"): [0.68], (5, 200, "c"): [0.61]}, kernels=("q", "c"))
    diff = eqa_difference(sr, "q", "c")
    assert diff[ConfigPoint(5, 200)] == pytest.approx(0.07)
    assert eqa_difference(sr, "q", "q")[ConfigPoint(5, 200)] == 0.0
    with pytest.raises(ValueError):
        eqa_difference(sr, "q", "nope")


# --- PTRI ---

def test_ptri_flat_grid_is_zero():
    cells = {(f, n, "m"): [0.6] for f in (5, 6, 7) for n in (200, 300, 400)}
    grid = ptri(_fake_sweep(cells), ["m"])
    assert np.all(grid.scores["m"] == 0.0)


def test_ptri_center_hand_example():
    cells = {(f, n, "m"): [0.6] for f in (5, 6, 7) for n in (200, 300, 400)}
    cells[(6, 300, "m")] = [0.5]
    grid = ptri(_fake_sweep(cells), ["m"])
    center = grid.scores["m"][1, 1]
    assert center == pytest.approx(sqrt(8 * 0.01), abs=1e-10)
    assert center == pytest.approx(0.2828, abs=5e-4)


def test_ptri_corner_uses_three_neighbors():
    z = np.zeros((3, 3))
    z[0, 0] = 1.0
    scores = ptri_scores(z)
    assert scores[0, 0] == pytest.approx(sqrt(3 * 1.0))
    assert scores[0, 1] == pytest.approx(1.0)  # edge cell, one unit-diff neighbor


def test_ptri_shift_and_scale_behaviour():
    rng = np.random.default_rng(31)
    for _ in range(10):
        z = rng.uniform(0, 1, size=(3, 5))
        base = ptri_scores(z)
        np.testing.assert_allclose(ptri_scores(z + 0.37), base, atol=1e-12)
        np.testing.assert_allclose(ptri_scores(z * 2.5), base * 2.5, atol=1e-12)


def test_ptri_requires_full_grid():
    cells = {(5, 200, "m"): [0.5], (6, 300, "m"): [0.5]}
    with pytest.raises(ValueError, match="ragged"):
        ptri(_fake_sweep(cells), ["m"])


def test_ptri_reference_selection_averages_min_max_trials():
    cells = {(f, n, "m"): [0.4, 0.9, 0.6] for f in (5, 6) for n in (200, 300)}
    grid = ptri(_fake_sweep(cells, trials=3), ["m"], trial_selection="reference")
    np.testing.assert_allclose(grid.values["m"], 0.65)  # mean of min and max trials


def test_ptri_scores_every_method():
    cells = {(f, n, k): [0.5] for f in (5, 6) for n in (200, 300) for k in ("a", "b")}
    cells[(6, 300, "b")] = [0.9]
    sr = _fake_sweep(cells, kernels=("a", "b"))
    grid = ptri(sr, ["a", "b"])
    assert set(grid.scores) == set(grid.values) == {"a", "b"}
    for method in ("a", "b"):
        alone = ptri(sr, [method])
        assert np.array_equal(grid.values[method], alone.values[method])
        assert np.array_equal(grid.scores[method], alone.scores[method])
    assert grid.scores["a"].max() == 0.0 < grid.scores["b"].max()
    with pytest.raises(ValueError):
        ptri(sr, [])


# --- variability ---

@pytest.mark.parametrize("kernel", [quantum_config("zz", 2, 1),
                                    quantum_config("zz", 2, 1, shots=64, master_seed=5)],
                         ids=["exact", "shots"])
def test_variability_records_are_the_one_point_sweep_records(kernel):
    ds = synthetic_dataset(6, days=80)
    point = ConfigPoint(2, 30)
    vr = variability_study(ds, point, kernel, trials=3, master_seed=1, split_ratio=0.6,
                           svm_c=2.0, svm_tol=1e-4)
    sr = run_sweep(ds, [point], [kernel], 3, 1, 0.6, 2.0, 1e-4)
    assert vr.records == sr.records(point, kernel.name)


def test_two_point_sample_std():
    mean, std = mean_std([0.6, 0.7])
    assert mean == pytest.approx(0.65)
    assert std == pytest.approx(sqrt(((0.6 - 0.65) ** 2 + (0.7 - 0.65) ** 2) / 1))
    assert std == pytest.approx(0.0707, abs=5e-4)


def test_variability_reported_std_matches_recomputation():
    ds = synthetic_dataset(7, days=90)
    vr = variability_study(ds, ConfigPoint(3, 40), rbf_config(), trials=12, master_seed=3)
    bas = [r.balanced_accuracy for r in vr.records]
    mean, std = mean_std(bas)
    assert vr.mean == mean and vr.std == std  # identical arithmetic, bit-equal
    assert vr.bin_counts.sum() == 12
    with pytest.raises(ValueError):
        variability_study(ds, ConfigPoint(3, 40), rbf_config(), trials=1, master_seed=3)


# --- serialization ---

def test_sweep_doc_round_trip_and_aggregate_consistency(tmp_path):
    ds = synthetic_dataset(8, days=90)
    sr = run_sweep(ds, [(2, 40), (2, 50)], [quantum_config("z", 2, 1), rbf_config()],
                   trials=3, master_seed=9)
    doc = sweep_to_doc(sr)
    path = tmp_path / "sweep.json"
    write_json(doc, path)
    loaded = read_json(path, {"qkslab-sweep": "1.0"})
    assert loaded == doc
    back = sweep_from_doc(loaded)
    assert back.configs == sr.configs
    assert back.kernel_names == sr.kernel_names
    assert sweep_to_doc(back) == doc  # lossless, kernel descriptions included
    for cell in loaded["cells"]:
        bas = [r["balanced_accuracy"] for r in cell["records"]]
        mean, std = mean_std(bas)
        assert cell["mean_balanced_accuracy"] == mean  # exact, not approximate
        assert cell["std_balanced_accuracy"] == std


def test_result_tables(tmp_path):
    cells = {(5, 200, "m"): [0.5, 0.6], (5, 300, "m"): [0.7, 0.8],
             (6, 200, "m"): [0.5, 0.5], (6, 300, "m"): [0.6, 0.6]}
    sr = _fake_sweep(cells, trials=2)
    sweep_doc = sweep_to_doc(sr)
    header, rows = result_table_rows(sweep_doc)
    assert header[0] == "features" and len(rows) == 8
    write_table(sweep_doc, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text().startswith("features,size,kernel")

    grid = ptri(sr, ["m"])
    ptri_doc = ptri_to_doc(grid, "balanced_accuracy", "all", None)
    header, rows = result_table_rows(ptri_doc)
    assert len(rows) == 4

    ds = synthetic_dataset(9, days=80)
    vr = variability_study(ds, ConfigPoint(2, 30), rbf_config(), trials=3, master_seed=2)
    header, rows = result_table_rows(variability_to_doc(vr))
    assert len(rows) == 3
    with pytest.raises(ValueError):
        result_table_rows({"format": "unknown"})
