"""Tests for sweeps, reference trials, EQA, PTRI, and the variability study."""
import gc
import multiprocessing
import re
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkslab.data import quantum_separable_dataset, synthetic_dataset
from qkslab.experiment import (ConfigPoint, SweepResult, TrialRecord, cell,
                               eqa_difference, evaluate_kernels_on_subset, mean_std, ptri,
                               ptri_scores, result_table_rows, run_sweep,
                               select_reference_trials, sweep_from_doc, trial,
                               variability_study, write_table)
from qkslab.documents import read_json, write_json
from qkslab.feature_maps import PRESETS
from qkslab.kernels import quantum_config, rbf_config

from oracles import reference_ptri_scores


def _fake_sweep(cell_bas: dict, trials: int = 1, kernels=("m",)) -> SweepResult:
    """Build a SweepResult directly from prescribed per-trial BAs."""
    configs = sorted({(f, n) for (f, n, _k) in cell_bas})
    cells = {}
    for (f, n, k), bas in cell_bas.items():
        cells[(f, n, k)] = [TrialRecord(t, 1000 + t, ba, ba, "fp") for t, ba in enumerate(bas)]
    return SweepResult(tuple(ConfigPoint(f, n) for f, n in configs), tuple(kernels), trials, cells)


def _cells(doc: dict) -> dict:
    """A sweep document's cells by (F, N, kernel)."""
    return {(c["features"], c["size"], c["kernel"]): c for c in doc["cells"]}


# --- run_sweep ---

def test_single_cell_sweep_shape():
    ds = synthetic_dataset(1, days=80)
    sr = sweep_from_doc(run_sweep(ds, [(3, 40)], [rbf_config()], trials=1, master_seed=5))
    records = sr.records(ConfigPoint(3, 40), "rbf")
    assert len(records) == 1
    assert 0.0 <= records[0].balanced_accuracy <= 1.0


def test_sweep_is_deterministic():
    ds = synthetic_dataset(2, days=90)
    kernels = [quantum_config("z", 2, 1), rbf_config()]
    a = run_sweep(ds, [(2, 40), (3, 50)], kernels, trials=2, master_seed=42)
    b = run_sweep(ds, [(2, 40), (3, 50)], kernels, trials=2, master_seed=42)
    assert a == b
    c = run_sweep(ds, [(2, 40), (3, 50)], kernels, trials=2, master_seed=43)
    assert a != c


def test_paired_design_shares_subsets_across_kernels():
    ds = synthetic_dataset(3, days=90)
    kernels = [quantum_config("yyy", 2, 1), quantum_config("z", 2, 1), rbf_config()]
    sr = sweep_from_doc(run_sweep(ds, [(2, 40)], kernels, trials=3, master_seed=7))
    for t in range(3):
        prints = {sr.records(ConfigPoint(2, 40), k.name)[t].fingerprint for k in kernels}
        assert len(prints) == 1


def test_separable_dataset_reaches_high_accuracy():
    ds = quantum_separable_dataset(29, rows=160, num_features=5)
    sr = sweep_from_doc(run_sweep(ds, [(5, 120)], [quantum_config("yyy", 5, 2)], trials=10,
                                  master_seed=11))
    mean, _ = mean_std(sr.metric_values(ConfigPoint(5, 120), "yyy"))
    assert mean >= 0.9


def test_sweep_errors_are_annotated():
    from qkslab.experiment import ExperimentError

    ds = synthetic_dataset(4, days=50)
    with pytest.raises(ExperimentError, match=r"F=2, N=4000"):
        run_sweep(ds, [(2, 4000)], [rbf_config()], trials=1, master_seed=1)


@pytest.mark.parametrize("field, value", [
    ("trial", True), ("trial", 0.0), ("trial_seed", False), ("trial_seed", "1"),
    ("balanced_accuracy", True), ("balanced_accuracy", "0.5"), ("balanced_accuracy", 7.5),
    ("f1", -0.1), ("f1", float("nan")), ("fingerprint", 3),
])
def test_trial_record_refuses_what_no_sweep_writes(field, value):
    fields = {"trial": 0, "trial_seed": 1, "balanced_accuracy": 0.5, "f1": 1, "fingerprint": "x"}
    TrialRecord(**fields)  # an int metric in [0, 1] is a number
    with pytest.raises(ValueError, match=f"record field {field} cannot hold"):
        TrialRecord(**{**fields, field: value})


# --- the cell premise: each (F, N, trial) cell is a pure function of its coordinates ---

_CELL_DS = synthetic_dataset(5, days=80)
_GRIDS = st.lists(st.tuples(st.sampled_from((2, 3)), st.sampled_from((24, 32, 40))),
                  min_size=2, max_size=4, unique=True)
_SEEDS = st.integers(0, 2**64 - 1)


def _six_kernels(shots=None, seed=0):
    """Every preset and rbf; ``shots`` puts the quantum kernels in shots mode."""
    return [*(quantum_config(name, 3, shots=shots, master_seed=seed) for name in PRESETS),
            rbf_config(master_seed=seed)]


@settings(max_examples=6, deadline=None)
@given(grid=_GRIDS, trials=st.integers(1, 2), seed=_SEEDS, data=st.data())
def test_a_permuted_grid_gives_the_same_records_per_cell(grid, trials, seed, data):
    kernels = [quantum_config("yyy", 3), rbf_config()]
    permuted = data.draw(st.permutations(grid))
    assert (run_sweep(_CELL_DS, permuted, kernels, trials, seed)["cells"]
            == run_sweep(_CELL_DS, grid, kernels, trials, seed)["cells"])


@settings(max_examples=6, deadline=None)
@given(grid=_GRIDS, trials=st.integers(1, 2), seed=_SEEDS, data=st.data())
def test_a_grid_split_into_two_sweeps_gives_the_whole_sweeps_cells(grid, trials, seed, data):
    kernels = [quantum_config("zz", 3, shots=64), rbf_config()]
    first = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=len(grid) - 1,
                               unique=True))
    parts = [_cells(run_sweep(_CELL_DS, part, kernels, trials, seed))
             for part in (first, [point for point in grid if point not in first])]
    assert {**parts[0], **parts[1]} == _cells(run_sweep(_CELL_DS, grid, kernels, trials, seed))


@settings(max_examples=6, deadline=None)
@given(point=st.tuples(st.sampled_from((2, 3)), st.sampled_from((24, 40))),
       trials=st.integers(1, 2), seed=_SEEDS, kernel_seed=_SEEDS,
       shots=st.sampled_from((None, 64)))
def test_each_kernel_alone_gives_its_records_in_the_six_kernel_sweep(point, trials, seed,
                                                                      kernel_seed, shots):
    kernels = _six_kernels(shots, kernel_seed)
    whole = _cells(run_sweep(_CELL_DS, [point], kernels, trials, seed))
    for kernel in kernels:
        alone = _cells(run_sweep(_CELL_DS, [point], [kernel], trials, seed))
        assert alone == {key: c for key, c in whole.items() if key[2] == kernel.name}


def test_a_cell_computed_in_a_spawned_worker_is_the_in_process_cell():
    args = (_CELL_DS, ConfigPoint(3, 40), 1, 12, 0.7, _six_kernels(64, 5), 1.0, 1e-3)
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        remote = pool.submit(cell, *args).result(timeout=120)
    assert remote == cell(*args)
    assert list(remote) == [*PRESETS, "rbf"]


def test_a_cell_holds_one_kernels_grams_at_a_time():
    templates = [quantum_config(preset, 3) for preset in ("z", "zz", "yyy")]
    _, train_ds, test_ds, kernels = trial(synthetic_dataset(1), ConfigPoint(3, 400), 0, 5, 0.7, templates)
    gram_bytes = len(train_ds) ** 2 * 8  # one train Gram, 280 x 280

    def peak(chosen):
        evaluate_kernels_on_subset(train_ds, test_ds, chosen, 1.0, 1e-3)  # first-call allocations
        tracemalloc.start()
        gc.disable()
        try:
            evaluate_kernels_on_subset(train_ds, test_ds, chosen, 1.0, 1e-3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            gc.enable()
            tracemalloc.stop()

    one = peak({"yyy": kernels["yyy"]})
    assert peak(kernels) - one < 0.5 * gram_bytes  # 1.65 buffers while the last kernel's Grams lived on


# --- reference trials / EQA ---

def test_reference_trial_selection():
    sr = _fake_sweep({(5, 200, "m"): [0.5, 0.6, 0.7]}, trials=3)
    assert select_reference_trials(sr, "m") == {ConfigPoint(5, 200): (0, 2)}


def test_reference_selection_single_trial_and_ties():
    sr = _fake_sweep({(5, 200, "m"): [0.4]}, trials=1)
    assert select_reference_trials(sr, "m")[ConfigPoint(5, 200)] == (0, 0)
    tied = _fake_sweep({(5, 200, "m"): [0.7, 0.5, 0.7, 0.5]}, trials=4)
    assert select_reference_trials(tied, "m")[ConfigPoint(5, 200)] == (1, 0)  # tied -> lowest index
    with pytest.raises(ValueError, match="^kernel 'missing' not present in the sweep$"):
        select_reference_trials(sr, "missing")


@settings(max_examples=50, deadline=None)
@given(bas=st.lists(st.sampled_from((0.25, 0.5, 0.6, 0.7, 0.75, 1.0)), min_size=1, max_size=6))
def test_reference_trials_are_the_nearest_trials_with_the_lowest_index(bas):
    def nearest(target: float) -> int:  # reference: plain distance loop, ties to the lowest index
        return min(range(len(bas)), key=lambda t: (abs(bas[t] - target), t))

    sr = _fake_sweep({(5, 200, "m"): bas}, trials=len(bas))
    refs = select_reference_trials(sr, "m")[ConfigPoint(5, 200)]
    assert refs == (nearest(min(bas)), nearest(max(bas)))


def test_eqa_difference():
    sr = _fake_sweep({(5, 200, "q"): [0.68], (5, 200, "c"): [0.61]}, kernels=("q", "c"))
    diff = eqa_difference(sr, "q", "c")
    assert diff[ConfigPoint(5, 200)] == pytest.approx(0.07)
    assert eqa_difference(sr, "q", "q")[ConfigPoint(5, 200)] == 0.0
    with pytest.raises(ValueError):
        eqa_difference(sr, "q", "nope")


def test_an_unknown_kernel_is_refused_by_the_sweep_with_one_message():
    sr = _fake_sweep({(5, 200, "m"): [0.5]})
    for refused in (lambda: sr.records(ConfigPoint(5, 200), "x"),
                    lambda: select_reference_trials(sr, "x"), lambda: eqa_difference(sr, "m", "x"),
                    lambda: ptri(sr, ["m", "x"]),
                    lambda: ptri(sr, ["m"], trial_selection="reference", baseline="x")):
        with pytest.raises(ValueError, match="^kernel 'x' not present in the sweep$"):
            refused()


def test_a_sweep_needs_a_grid_point():
    with pytest.raises(ValueError, match="at least one point"):
        run_sweep(synthetic_dataset(1, days=80), [], [rbf_config()], trials=1, master_seed=5)


@pytest.mark.parametrize("configs, trials, refused", [
    ([(True, 40)], 1, "F must be an integer >= 1, got True"),
    ([(2.0, 40)], 1, "F must be an integer >= 1, got 2.0"),
    ([(0, 40)], 1, "F must be an integer >= 1, got 0"),
    ([(2, 40.0)], 1, "N must be an integer >= 1, got 40.0"),
    ([(2, 40)], True, "trials must be an integer >= 1, got True"),
    ([(2, 40)], 0, "trials must be an integer >= 1, got 0"),
], ids=["F-true", "F-float", "F-zero", "N-float", "trials-true", "trials-zero"])
def test_grid_counts_and_trials_are_integers_of_at_least_one(configs, trials, refused):
    with pytest.raises(ValueError, match=f"^{refused}$"):
        run_sweep(synthetic_dataset(1, days=80), configs, [rbf_config()], trials, master_seed=5)


@pytest.mark.parametrize("setting, refused", [
    ({"master_seed": True}, "master_seed must be an integer, got True"),
    ({"master_seed": 1.0}, "master_seed must be an integer, got 1.0"),
    ({"split_ratio": 1}, "split_ratio must be a number in (0, 1), got 1"),
    ({"split_ratio": "0.5"}, "split_ratio must be a number in (0, 1), got '0.5'"),
    ({"svm_c": True}, "C must be a number in (0, inf), got True"),
    ({"svm_tol": float("nan")}, "tol must be a number in (0, inf), got nan"),
], ids=["seed-true", "seed-float", "split-one", "split-string", "c-true", "tol-nan"])
def test_sweep_settings_are_refused_before_any_cell(monkeypatch, setting, refused):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran before the settings were checked")

    monkeypatch.setattr("qkslab.experiment.cell", no_cells)
    kwargs = {"master_seed": 5, **setting}
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        run_sweep(synthetic_dataset(1, days=80), [(2, 30)], [rbf_config()], 1, **kwargs)


# --- PTRI ---

def test_ptri_flat_grid_is_zero():
    cells = {(f, n, "m"): [0.6] for f in (5, 6, 7) for n in (200, 300, 400)}
    doc = ptri(_fake_sweep(cells), ["m"])
    assert np.all(np.array(doc["surfaces"]["m"]["scores"]) == 0.0)


def test_ptri_center_hand_example():
    cells = {(f, n, "m"): [0.6] for f in (5, 6, 7) for n in (200, 300, 400)}
    cells[(6, 300, "m")] = [0.5]
    center = ptri(_fake_sweep(cells), ["m"])["surfaces"]["m"]["scores"][1][1]
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


@settings(max_examples=1000, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 1), seed=0)
@example(shape=(1, 7), seed=0)
@example(shape=(6, 1), seed=0)
def test_ptri_scores_are_the_loop_oracle_bit_for_bit(shape, seed):
    # numpy draws full-precision values: an array ``** 2`` (a multiply) moves a bit in a few
    # hundred grids of these, which hypothesis's own simple floats rarely show
    z = np.random.default_rng(seed).uniform(0, 1, size=shape)
    assert np.array_equal(ptri_scores(z), reference_ptri_scores(z))


def test_ptri_reference_surfaces_with_a_baseline_are_the_oracle_surfaces():
    feature_axis, size_axis, trials = (5, 6, 7), (200, 250, 300, 350), 4
    rng = np.random.default_rng(8)
    cells = {(f, n, k): [TrialRecord(t, t, *(float(v) for v in rng.uniform(0, 1, 2).round(1)), "fp")
                         for t in range(trials)]
             for f in feature_axis for n in size_axis for k in ("q", "c")}
    configs = tuple(ConfigPoint(f, n) for f in feature_axis for n in size_axis)
    sr = SweepResult(configs, ("q", "c"), trials, cells)
    doc = ptri(sr, ["q", "c"], "f1", "reference", "c")
    assert (doc["format"], doc["version"]) == ("qkslab-ptri", "1.0")
    assert (doc["metric"], doc["trial_selection"], doc["baseline"]) == ("f1", "reference", "c")
    assert (doc["feature_axis"], doc["size_axis"]) == (list(feature_axis), list(size_axis))
    assert set(doc["surfaces"]) == {"q", "c"}
    for method in ("q", "c"):
        expected = np.zeros((len(feature_axis), len(size_axis)))
        for fi, f in enumerate(feature_axis):
            for si, n in enumerate(size_axis):
                base = [r.balanced_accuracy for r in cells[(f, n, "c")]]  # first index on ties
                picked = [cells[(f, n, method)][t].f1
                          for t in sorted({base.index(min(base)), base.index(max(base))})]
                expected[fi, si] = sum(picked) / len(picked)
        assert doc["surfaces"][method] == {"values": expected.tolist(),
                                           "scores": reference_ptri_scores(expected).tolist()}


def test_ptri_requires_full_grid():
    cells = {(5, 200, "m"): [0.5], (6, 300, "m"): [0.5]}
    with pytest.raises(ValueError, match="ragged"):
        ptri(_fake_sweep(cells), ["m"])


def test_ptri_reference_selection_averages_min_max_trials():
    cells = {(f, n, "m"): [0.4, 0.9, 0.6] for f in (5, 6) for n in (200, 300)}
    doc = ptri(_fake_sweep(cells, trials=3), ["m"], trial_selection="reference")
    np.testing.assert_allclose(doc["surfaces"]["m"]["values"], 0.65)  # mean of min and max trials


def test_ptri_scores_every_method():
    cells = {(f, n, k): [0.5] for f in (5, 6) for n in (200, 300) for k in ("a", "b")}
    cells[(6, 300, "b")] = [0.9]
    sr = _fake_sweep(cells, kernels=("a", "b"))
    surfaces = ptri(sr, ["a", "b"])["surfaces"]
    assert set(surfaces) == {"a", "b"}
    for method in ("a", "b"):
        assert set(surfaces[method]) == {"values", "scores"}
        assert surfaces[method] == ptri(sr, [method])["surfaces"][method]
    assert np.max(surfaces["a"]["scores"]) == 0.0 < np.max(surfaces["b"]["scores"])
    with pytest.raises(ValueError):
        ptri(sr, [])


# --- variability ---

@pytest.mark.parametrize("kernel", [quantum_config("zz", 2, 1),
                                    quantum_config("zz", 2, 1, shots=64, master_seed=5)],
                         ids=["exact", "shots"])
def test_variability_records_are_the_one_point_sweep_records(kernel):
    ds = synthetic_dataset(6, days=80)
    point = ConfigPoint(2, 30)
    doc = variability_study(ds, point, kernel, trials=3, master_seed=1, split_ratio=0.6,
                            svm_c=2.0, svm_tol=1e-4)
    (sweep_cell,) = run_sweep(ds, [point], [kernel], 3, 1, 0.6, 2.0, 1e-4)["cells"]
    assert doc["records"] == sweep_cell["records"]
    assert (doc["mean"], doc["std"]) == (sweep_cell["mean_balanced_accuracy"],
                                         sweep_cell["std_balanced_accuracy"])
    assert (doc["features"], doc["size"], doc["kernel"]) == (2, 30, kernel.name)


def test_two_point_sample_std():
    mean, std = mean_std([0.6, 0.7])
    assert mean == pytest.approx(0.65)
    assert std == pytest.approx(sqrt(((0.6 - 0.65) ** 2 + (0.7 - 0.65) ** 2) / 1))
    assert std == pytest.approx(0.0707, abs=5e-4)


def test_variability_reported_std_matches_recomputation():
    ds = synthetic_dataset(7, days=90)
    doc = variability_study(ds, ConfigPoint(3, 40), rbf_config(), trials=12, master_seed=3)
    bas = [r["balanced_accuracy"] for r in doc["records"]]
    mean, std = mean_std(bas)
    assert doc["mean"] == mean and doc["std"] == std  # identical arithmetic, bit-equal
    assert sum(doc["histogram"]["counts"]) == 12
    with pytest.raises(ValueError):
        variability_study(ds, ConfigPoint(3, 40), rbf_config(), trials=1, master_seed=3)


# --- serialization ---

def test_sweep_doc_round_trip_and_aggregate_consistency(tmp_path):
    ds = synthetic_dataset(8, days=90)
    doc = run_sweep(ds, [(2, 50), (2, 40)], [quantum_config("z", 2, 1), rbf_config()],
                    trials=3, master_seed=9)
    assert [(c["features"], c["size"], c["kernel"]) for c in doc["cells"]] == [
        (2, 40, "rbf"), (2, 40, "z"), (2, 50, "rbf"), (2, 50, "z")]  # by (F, N, kernel)
    path = tmp_path / "sweep.json"
    write_json(doc, path)
    loaded = read_json(path, "qkslab-sweep", "1.0")
    assert loaded == doc
    back = sweep_from_doc(loaded)
    assert back.configs == (ConfigPoint(2, 50), ConfigPoint(2, 40))
    assert (back.kernel_names, back.trials) == (("z", "rbf"), 3)
    assert len(back.cells) == len(doc["cells"])
    for cell in loaded["cells"]:  # every record read back equals the document's
        key = (cell["features"], cell["size"], cell["kernel"])
        assert [asdict(r) for r in back.cells[key]] == cell["records"]
    for cell in loaded["cells"]:
        bas = [r["balanced_accuracy"] for r in cell["records"]]
        mean, std = mean_std(bas)
        assert cell["mean_balanced_accuracy"] == mean  # exact, not approximate
        assert cell["std_balanced_accuracy"] == std


def test_result_tables(tmp_path):
    ds = synthetic_dataset(9, days=80)
    sweep_doc = run_sweep(ds, [(f, n) for f in (2, 3) for n in (30, 40)], [rbf_config()],
                          trials=2, master_seed=2)
    header, rows = result_table_rows(sweep_doc)
    assert header[0] == "features" and len(rows) == 8
    write_table(sweep_doc, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text().startswith("features,size,kernel")

    header, rows = result_table_rows(ptri(sweep_from_doc(sweep_doc), ["rbf"]))
    assert len(rows) == 4

    header, rows = result_table_rows(variability_study(ds, ConfigPoint(2, 30), rbf_config(),
                                                       trials=3, master_seed=2))
    assert len(rows) == 3
