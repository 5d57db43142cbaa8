"""End-to-end tests of the command-line interface and its manifests."""
import argparse
import dataclasses
import hashlib
import inspect
import json
import shlex
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from qkslab import __version__, experiment
from qkslab.cli import build_parser, main
from qkslab.data import DEFAULT_SPLIT_RATIO, Dataset, sample_subset, write_dataset
from qkslab.documents import read_json
from qkslab.experiment import DEFAULT_BINS, METRICS, TrialRecord, run_sweep, variability_study
from qkslab.feature_maps import DEFAULT_REPETITIONS
from qkslab.kernels import GramMatrix, config_to_doc, psd_clip, quantum_config
from qkslab.svm import DEFAULT_C, DEFAULT_TOL, train

from golden import COMMAND_LINES, command_line, make_inputs
from synthetic_csvs import write_synthetic_csvs

README = Path(__file__).resolve().parent.parent / "README.md"


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _snapshot(directory) -> dict:
    return {path: path.read_bytes() for path in directory.iterdir()}


def _gram_doc(path) -> dict:
    return read_json(path, "qkslab-gram", "2.0")


@pytest.fixture()
def dataset(tmp_path, capsys):
    path = tmp_path / "ds.json"
    code, out, err = _run(["ingest", "--synthetic", "7", "--days", "80",
                           "--out", str(path)], capsys)
    assert code == 0, err
    return path


def test_ingest_synthetic_prints_summary(tmp_path, capsys):
    out_path = tmp_path / "ds.json"
    code, out, _ = _run(["ingest", "--synthetic", "3", "--days", "460", "--out", str(out_path)], capsys)
    assert code == 0
    assert "rows=459" in out
    manifest = json.loads((tmp_path / "ds.json.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert str(out_path) in manifest["outputs"]


def test_ingest_from_csvs_and_missing_file(tmp_path, capsys):
    write_synthetic_csvs(tmp_path / "i.csv", tmp_path / "g.csv", 5, days=60)
    code, out, _ = _run(["ingest", "--index", str(tmp_path / "i.csv"),
                         "--gold", str(tmp_path / "g.csv"),
                         "--out", str(tmp_path / "ds.json")], capsys)
    assert code == 0
    assert "rows=59" in out

    code, _, err = _run(["ingest", "--index", str(tmp_path / "nope.csv"),
                         "--gold", str(tmp_path / "g.csv"),
                         "--out", str(tmp_path / "x.json")], capsys)
    assert code != 0
    assert "file not found" in err


def test_ingest_synthetic_keeps_the_requested_columns(tmp_path, capsys):
    out_path = tmp_path / "ds.json"
    code, out, err = _run(["ingest", "--synthetic", "3", "--days", "60", "--columns", "open,high",
                           "--out", str(out_path)], capsys)
    assert code == 0, err
    assert "features=2" in out
    assert json.loads(out_path.read_text())["feature_names"] == ["open", "high"]


@pytest.mark.parametrize("extra", [["--synthetic", "3"], ["--days", "60"]],
                         ids=["synthetic-with-csvs", "days-with-csvs"])
def test_ingest_rejects_options_it_would_ignore(tmp_path, capsys, extra):
    write_synthetic_csvs(tmp_path / "i.csv", tmp_path / "g.csv", 5, days=60)
    out_path = tmp_path / "ds.json"
    code, _, err = _run(["ingest", "--index", str(tmp_path / "i.csv"), "--gold",
                         str(tmp_path / "g.csv"), *extra, "--out", str(out_path)], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert not out_path.exists()


def test_kernel_exact_diagonal(dataset, tmp_path, capsys):
    out = tmp_path / "train.gram"
    code, text, _ = _run(["kernel", "--dataset", str(dataset), "--map", "yyy",
                          "--features", "3", "--size", "24", "--seed", "5",
                          "--out", str(out)], capsys)
    assert code == 0
    gram = _gram_doc(out)
    assert gram["symmetric"]
    assert all(v == 1.0 for v in np.diagonal(gram["values"]))


def test_kernel_shot_cap(dataset, tmp_path, capsys):
    for command in (["kernel", "--map", "yyy", "--features", "2", "--size", "16"],
                    ["sweep", "--kernels", "yyy", "--features", "2", "--sizes", "16",
                     "--trials", "1"],
                    ["variability", "--kernel", "yyy", "--features", "2", "--size", "16",
                     "--trials", "2"]):
        args = command + ["--dataset", str(dataset), "--mode", "shots", "--shots", "2000",
                          "--out", str(tmp_path / "out")]
        code, _, err = _run(args, capsys)
        assert code != 0 and "cap" in err
        code, _, err = _run(args + ["--allow-overshoot"], capsys)
        assert code == 0, err


def test_kernel_determinism(dataset, tmp_path, capsys):
    a, b = tmp_path / "a.gram", tmp_path / "b.gram"
    argv = ["kernel", "--dataset", str(dataset), "--map", "zz", "--features", "3",
            "--size", "20", "--mode", "shots", "--shots", "128", "--seed", "9"]
    assert _run(argv + ["--out", str(a)], capsys)[0] == 0
    assert _run(argv + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_kernel_test_rows_are_rectangular(dataset, tmp_path, capsys):
    out = tmp_path / "cross.gram"
    code, text, _ = _run(["kernel", "--dataset", str(dataset), "--map", "rbf",
                          "--features", "3", "--size", "30", "--rows", "test",
                          "--out", str(out)], capsys)
    assert code == 0
    gram = _gram_doc(out)
    assert not gram["symmetric"]
    assert np.shape(gram["values"]) == (len(gram["row_ids"]), len(gram["col_ids"]))
    assert len(gram["row_ids"]) < len(gram["col_ids"])


def test_sweep_ptri_report_chain(dataset, tmp_path, capsys):
    sweep_path = tmp_path / "sweep.json"
    code, out, err = _run(["sweep", "--dataset", str(dataset), "--sizes", "30,40",
                           "--features", "2,3", "--kernels", "z,rbf", "--trials", "2",
                           "--seed", "4", "--out", str(sweep_path),
                           "--table", str(tmp_path / "sweep.csv")], capsys)
    assert code == 0, err
    doc = json.loads(sweep_path.read_text())
    assert len(doc["cells"]) == 8  # 4 configs x 2 kernels
    assert (tmp_path / "sweep.csv").exists()

    ptri_path, table = tmp_path / "ptri.json", tmp_path / "ptri.csv"
    code, out, err = _run(["ptri", "--sweep", str(sweep_path), "--methods", "z,rbf",
                           "--out", str(ptri_path), "--table", str(table)], capsys)
    assert code == 0, err
    pdoc = json.loads(ptri_path.read_text())
    assert set(pdoc["surfaces"]) == {"z", "rbf"}
    lines = table.read_text().splitlines()
    assert lines[0] == "method,features,size,mean_metric,score"
    assert len(lines) == 1 + 2 * 4  # one row per (method, grid point)


def test_ptri_flat_surface_is_zero(tmp_path, capsys):
    # hand-build a constant-metric sweep document
    cells = []
    for f in (2, 3):
        for n in (30, 40):
            cells.append({"features": f, "size": n, "kernel": "rbf",
                          "records": [{"trial": 0, "trial_seed": 1, "balanced_accuracy": 0.5,
                                       "f1": 0.5, "fingerprint": "x"}],
                          "mean_balanced_accuracy": 0.5, "std_balanced_accuracy": 0.0,
                          "mean_f1": 0.5, "std_f1": 0.0})
    doc = {"format": "qkslab-sweep", "version": "1.0", "master_seed": 0, "trials": 1,
           "split_ratio": 0.7, "svm": {"C": 1.0, "tol": 0.001},
           "configs": [[2, 30], [2, 40], [3, 30], [3, 40]],
           "kernels": [{"name": "rbf"}], "cells": cells}
    sweep_path = tmp_path / "flat.json"
    sweep_path.write_text(json.dumps(doc))
    code, out, err = _run(["ptri", "--sweep", str(sweep_path), "--methods", "rbf",
                           "--out", str(tmp_path / "p.json")], capsys)
    assert code == 0, err
    pdoc = json.loads((tmp_path / "p.json").read_text())
    assert all(v == 0.0 for row in pdoc["surfaces"]["rbf"]["scores"] for v in row)


def test_ptri_without_methods_is_an_error(dataset, tmp_path, capsys):
    sweep_path = tmp_path / "sweep.json"
    assert _run(["sweep", "--dataset", str(dataset), "--sizes", "30", "--features", "2",
                 "--kernels", "rbf", "--trials", "1", "--out", str(sweep_path)], capsys)[0] == 0
    code, _, err = _run(["ptri", "--sweep", str(sweep_path), "--methods", ",",
                         "--out", str(tmp_path / "p.json")], capsys)
    assert code == 1
    assert err.startswith("error: ")


def test_ptri_with_a_repeated_method_is_an_error(dataset, tmp_path, capsys):
    sweep_path = tmp_path / "sweep.json"
    assert _run(["sweep", "--dataset", str(dataset), "--sizes", "30", "--features", "2",
                 "--kernels", "rbf", "--trials", "1", "--out", str(sweep_path)], capsys)[0] == 0
    out = tmp_path / "p.json"
    code, text, err = _run(["ptri", "--sweep", str(sweep_path), "--methods", "rbf,rbf",
                            "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "distinct" in err
    assert text == "" and not out.exists()


def test_ptri_baseline_without_reference_selection_is_an_error(dataset, tmp_path, capsys):
    sweep_path = tmp_path / "sweep.json"
    assert _run(["sweep", "--dataset", str(dataset), "--sizes", "30", "--features", "2",
                 "--kernels", "rbf", "--trials", "1", "--out", str(sweep_path)], capsys)[0] == 0
    out = tmp_path / "p.json"
    code, _, err = _run(["ptri", "--sweep", str(sweep_path), "--methods", "rbf",
                         "--baseline", "rbf", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "--selection reference" in err
    assert not out.exists()


def test_sweep_without_sizes_is_an_error(dataset, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, _, err = _run(["sweep", "--dataset", str(dataset), "--sizes", ",", "--features", "2",
                         "--kernels", "rbf", "--trials", "1", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("grid", [["--sizes", "40,40", "--features", "3"],
                                  ["--sizes", "40", "--features", "3,3"]],
                         ids=["sizes", "features"])
def test_sweep_with_a_repeated_grid_point_is_an_error(dataset, tmp_path, capsys, grid):
    out = tmp_path / "sweep.json"
    code, _, err = _run(["sweep", "--dataset", str(dataset), *grid, "--kernels", "rbf",
                         "--trials", "1", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "(3, 40)" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, refused", [
    (["--split-ratio", "1.5"], "split_ratio must be a number in (0, 1), got 1.5"),
    (["--c", "-1"], "C must be a number in (0, inf), got -1.0"),
], ids=["split-ratio-above-one", "c-negative"])
def test_sweep_settings_out_of_range_are_errors_before_any_cell(dataset, tmp_path, capsys,
                                                                  monkeypatch, flags, refused):
    def no_cells(*args, **kwargs):
        raise AssertionError("sweep ran a cell before refusing its settings")

    monkeypatch.setattr(experiment, "cell", no_cells)
    out = tmp_path / "sweep.json"
    code, _, err = _run(["sweep", "--dataset", str(dataset), "--sizes", "30", "--features", "2",
                         "--kernels", "rbf", "--trials", "1", *flags, "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: {refused}\n"
    assert not out.exists()


def test_a_cli_sweep_file_read_back_holds_what_the_bench_checks_read(dataset, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert _run(["sweep", "--dataset", str(dataset), "--sizes", "24,30", "--features", "2,3",
                 "--kernels", "yyy,rbf", "--trials", "2", "--out", str(out)], capsys)[0] == 0
    sr = experiment.sweep_from_doc(read_json(out, "qkslab-sweep", "1.0"), out)
    grid = [(f, n) for f in (2, 3) for n in (24, 30)]
    assert [(c.features, c.size) for c in sr.configs] == grid
    assert (sr.kernel_names, sr.trials) == (("yyy", "rbf"), 2)
    assert set(sr.cells) == {(f, n, k) for f, n in grid for k in sr.kernel_names}
    for records in sr.cells.values():  # one record per trial, in trial order
        assert [r.trial for r in records] == list(range(sr.trials))
    diffs = experiment.eqa_difference(sr, "yyy", "rbf")
    assert sorted((c.features, c.size) for c in diffs) == grid


@pytest.mark.parametrize("command", [
    ["sweep", "--sizes", "400", "--features", "2", "--kernels", "rbf", "--trials", "1"],
    ["variability", "--features", "9", "--size", "30", "--trials", "2"],
], ids=["sweep", "variability"])
def test_trial_failures_are_errors_with_their_coordinates(dataset, tmp_path, capsys, command):
    code, _, err = _run(command + ["--dataset", str(dataset), "--out", str(tmp_path / "out")],
                        capsys)
    assert code == 1
    assert err.startswith("error: config (F=")
    assert ") trial 0: " in err


@pytest.fixture()
def wide_dataset(tmp_path):
    """18 feature columns: room for a map wider than the simulator's 16 qubits."""
    rng, rows = np.random.default_rng(3), 80
    path = tmp_path / "wide.json"
    write_dataset(Dataset(tuple(f"x{j}" for j in range(18)), tuple(f"r{i}" for i in range(rows)),
                          tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(rows)),
                          rng.uniform(0.0, 1.0, (rows, 18)), np.resize([1, -1], rows)), path)
    return path


@pytest.mark.parametrize("source, grid, refused", [
    ("dataset", ["--sizes", "30,3", "--features", "2", "--kernels", "rbf"],
     "config (F=2, N=3) trial 0: "),
    ("dataset", ["--sizes", "30,5000", "--features", "2", "--kernels", "rbf"],
     "config (F=2, N=5000) trial 0: subset size 5000 exceeds dataset size "),
    ("dataset", ["--sizes", "30", "--features", "2,1", "--kernels", "zz"],
     "config (F=1, N=30) trial 0: "),
    ("wide_dataset", ["--sizes", "30", "--features", "2,17", "--kernels", "z"],
     "config (F=17, N=30) trial 0: 17 qubits exceeds the dense limit of 16"),
], ids=["size-too-small", "size-above-the-row-count", "pair-layer-map-at-one-feature",
        "map-wider-than-the-simulator"])
def test_an_undrawable_grid_point_fails_before_any_operation(request, tmp_path, capsys, monkeypatch,
                                                           source, grid, refused):
    def no_operations(*args, **kwargs):
        raise AssertionError("the sweep ran an operation before refusing a grid point")

    monkeypatch.setattr(experiment, "evaluate_kernels_on_subset", no_operations)
    out = tmp_path / "sweep.json"
    code, _, err = _run(["sweep", "--dataset", str(request.getfixturevalue(source)), *grid,
                         "--trials", "1", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith(f"error: {refused}")
    assert not out.exists()


def test_variability_command(dataset, tmp_path, capsys):
    out = tmp_path / "var.json"
    code, text, err = _run(["variability", "--dataset", str(dataset), "--size", "30",
                            "--features", "2", "--kernel", "rbf", "--trials", "5",
                            "--seed", "2", "--out", str(out)], capsys)
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 5
    assert "std=" in text


def test_trial_record_and_metrics_are_the_schema_of_every_result_file(dataset, tmp_path, capsys):
    fields = [f.name for f in dataclasses.fields(TrialRecord)]
    columns = [name for name in fields if name != "fingerprint"]
    assert [name for name in fields if name in METRICS] == list(METRICS)
    metric, = (a for a in _subcommands()["ptri"]._actions if a.dest == "metric")
    assert (tuple(metric.choices), metric.default) == (METRICS, METRICS[0])
    docs = {}
    for command, argv, prefix in (
            ("sweep", ["--sizes", "24,30", "--features", "2,3", "--kernels", "z,rbf"],
             ["features", "size", "kernel"]),
            ("variability", ["--size", "30", "--features", "2"], [])):
        out, table = tmp_path / f"{command}.json", tmp_path / f"{command}.csv"
        code, _, err = _run([command, "--dataset", str(dataset), *argv, "--trials", "2",
                             "--out", str(out), "--table", str(table)], capsys)
        assert code == 0, err
        docs[command] = json.loads(out.read_text())
        assert table.read_text().splitlines()[0].split(",") == prefix + columns
    records = [r for c in docs["sweep"]["cells"] for r in c["records"]]
    assert {tuple(sorted(r)) for r in records + docs["variability"]["records"]} == {
        tuple(sorted(fields))}

    # a 1.x reader ignores a record key it does not know
    for r in records:
        r["smo_iterations"] = 7
    (tmp_path / "extended.json").write_text(json.dumps(docs["sweep"]))
    written = {}
    for sweep in ("sweep", "extended"):
        out = tmp_path / f"{sweep}.ptri"
        code, _, err = _run(["ptri", "--sweep", f"{tmp_path}/{sweep}.json", "--methods", "z,rbf",
                             "--metric", METRICS[-1], "--out", str(out)], capsys)
        assert code == 0, err
        written[sweep] = out.read_bytes()
    assert written["extended"] == written["sweep"]


def test_resources_command(tmp_path, capsys):
    code, out, err = _run(["resources", "--features", "4", "--reps", "1"], capsys)
    assert code == 0, err
    row = [ln for ln in out.splitlines() if ln.startswith("4")][0]
    assert "37" in row and "19" in row and "True" in row


def test_resources_verify_without_features_is_an_error(capsys):
    code, _, err = _run(["resources", "--features", ","], capsys)
    assert code == 1
    assert err.startswith("error: ")


def test_schema_version_rejection(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "qkslab-sweep", "version": "9.0", "cells": [],
                               "kernels": [], "configs": [], "trials": 1,
                               "master_seed": 0, "split_ratio": 0.7,
                               "svm": {"C": 1.0, "tol": 0.001}}))
    code, _, err = _run(["ptri", "--sweep", str(bad), "--methods", "rbf",
                         "--out", str(tmp_path / "p.json")], capsys)
    assert code != 0
    assert "version" in err


_SWEEP_DOC = {"format": "qkslab-sweep", "version": "1.0", "master_seed": 0, "trials": 1,
              "split_ratio": 0.7, "svm": {"C": 1.0, "tol": 0.001}, "configs": [[2, 30]],
              "kernels": [{"name": "rbf"}],
              "cells": [{"features": 2, "size": 30, "kernel": "rbf", "records": []}]}


def _cell(kernel: str, features: int = 2, trials=(0,), score=0.5) -> dict:
    return {"features": features, "size": 30, "kernel": kernel,
            "records": [{"trial": t, "trial_seed": 1, "balanced_accuracy": score, "f1": 0.5,
                         "fingerprint": "x"} for t in trials]}


_PTRI_DOC = {"format": "qkslab-ptri", "version": "1.0", "metric": "f1", "trial_selection": "all",
             "baseline": None, "feature_axis": [2], "size_axis": [30],
             "surfaces": {"rbf": {"values": [[0.5]], "scores": [[0.0]]}}}
_VARIABILITY_DOC = {"format": "qkslab-variability", "version": "1.0", "features": 2, "size": 30,
                    "kernel": "rbf", "trials": 1, "master_seed": 0,
                    "records": _cell("rbf")["records"], "mean": 0.5, "std": 0.0,
                    "histogram": {"bin_edges": [0.495, 0.505], "counts": [1]}}


def _dataset_doc(value, label=-1) -> dict:
    return {"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0"],
            "rows": [{"id": "a", "date": "2018-01-02", "features": [0.5], "label": 1},
                     {"id": "b", "date": "2018-01-03", "features": [value], "label": label}]}


@pytest.mark.parametrize("command, doc", [
    ("ptri", {k: v for k, v in _SWEEP_DOC.items() if k != "kernels"}),
    ("ptri", _SWEEP_DOC),
    ("ptri", {**_SWEEP_DOC, "cells": []}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf"), _cell("yyy")]}),
    ("ptri", {**_SWEEP_DOC, "kernels": [{"name": "rbf"}] * 2, "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "configs": [[2, 30], [2, 30]], "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf"), _cell("rbf", features=3)]}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf"), _cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "trials": 2, "cells": [_cell("rbf", trials=(0, 0))]}),
    ("ptri", {**_SWEEP_DOC, "trials": 2, "cells": [_cell("rbf", trials=(1, 0))]}),
    ("ptri", {**_SWEEP_DOC, "configs": [], "cells": []}),
    ("ptri", {**_SWEEP_DOC, "configs": [[True, 30]], "cells": [_cell("rbf", features=1)]}),
    ("ptri", {**_SWEEP_DOC, "configs": [[1.0, 30]], "cells": [_cell("rbf", features=1)]}),
    ("ptri", {**_SWEEP_DOC, "configs": [[0, 30]], "cells": [_cell("rbf", features=0)]}),
    ("ptri", {**_SWEEP_DOC, "configs": [[2, 30.0]], "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "trials": True, "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf", features=2.0)]}),
    ("ptri", {**_SWEEP_DOC, "configs": [[1, 30]], "cells": [_cell("rbf", features=True)]}),
    ("ptri", {**_SWEEP_DOC, "master_seed": "abc", "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "master_seed": True, "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "split_ratio": "x", "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "split_ratio": 1.5, "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "svm": {"C": -1, "tol": 0.001}, "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "svm": {"C": 1.0, "tol": None}, "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "kernels": [{"name": 5, "kind": "banana"}, {"name": "rbf"}],
              "cells": [_cell(5), _cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "kernels": [{"name": ""}, {"name": "rbf"}],
              "cells": [_cell(""), _cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "kernels": ["rbf"], "cells": [_cell("rbf")]}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf", score=float("nan"))]}),
    ("report", {**_SWEEP_DOC, "cells": [_cell("rbf", score=float("nan"))]}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf", score="0.5")]}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf", score=7.5)]}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf", score=True)]}),
    ("report", {**_SWEEP_DOC, "cells": [_cell("rbf", score="0.5")]}),
    ("report", {**_SWEEP_DOC, "cells": [_cell("rbf", score=7.5)]}),
    ("report", {**_SWEEP_DOC, "cells": [_cell("rbf", score=True)]}),
    ("ptri", _PTRI_DOC),
    ("ptri", _VARIABILITY_DOC),
    ("sweep", {"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0", "x1"]}),
    ("sweep", {"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0"],
               "rows": [{"id": "r1", "date": "2018-13-01", "features": [0.5], "label": 1}]}),
    ("sweep", _dataset_doc(float("nan"))),
    ("sweep", _dataset_doc(float("-inf"))),
    ("sweep", _dataset_doc(0.5, label=1.5)),
    ("sweep", _dataset_doc(0.5, label=-1.9)),
    ("sweep", _dataset_doc(0.5, label=True)),
    ("sweep", _dataset_doc(True)),
    ("report", []),
    ("ptri", []),
    ("sweep", []),
    ("sweep", "not json"),
    ("ptri", "not json"),
    ("report", "not json"),
], ids=["sweep-without-kernels", "cell-without-records", "sweep-without-cells",
        "cell-of-unlisted-kernel", "kernel-listed-twice", "grid-point-listed-twice",
        "cell-off-the-grid", "cell-listed-twice", "trial-index-repeated", "trials-out-of-order",
        "sweep-without-grid-points", "grid-feature-count-true", "grid-feature-count-float",
        "grid-feature-count-zero", "grid-size-float", "trials-true", "cell-feature-count-float",
        "cell-feature-count-true", "master-seed-string", "master-seed-true",
        "split-ratio-string", "split-ratio-one-and-a-half", "svm-c-negative", "svm-tol-null",
        "kernel-name-not-a-string", "kernel-name-empty", "kernel-entry-not-an-object",
        "ptri-nan-score", "report-nan-score", "ptri-string-score", "ptri-score-above-one",
        "ptri-bool-score", "report-string-score", "report-score-above-one", "report-bool-score",
        "ptri-on-a-ptri-file", "ptri-on-a-variability-file",
        "dataset-without-rows", "dataset-bad-date", "dataset-nan-feature", "dataset-inf-feature",
        "dataset-label-one-and-a-half", "dataset-label-minus-one-point-nine", "dataset-label-true",
        "dataset-feature-true",
        "report-list", "ptri-list", "sweep-list",
        "sweep-not-json", "ptri-not-json", "report-not-json"])
def test_malformed_input_files_are_errors(tmp_path, capsys, command, doc):
    path = tmp_path / "in.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    table = tmp_path / "table.csv"
    # "report" is the CSV report of a sweep file, which `--table` writes: it must write no table
    argv = {"ptri": ["ptri", "--sweep", str(path), "--methods", "rbf"],
            "report": ["ptri", "--sweep", str(path), "--methods", "rbf", "--table", str(table)],
            "sweep": ["sweep", "--dataset", str(path), "--sizes", "30", "--features", "2",
                      "--kernels", "rbf", "--trials", "1"]}[command]
    code, _, err = _run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.startswith(f"error: {path}: ") or err.startswith(f"error: malformed {path}: ")
    if doc in (_PTRI_DOC, _VARIABILITY_DOC):  # files qkslab writes but never reads back
        assert err == f"error: {path}: not a qkslab-sweep document\n"
    assert not (tmp_path / "out").exists()
    assert not table.exists()


def test_the_one_cell_sweep_file_is_read(tmp_path, capsys):
    """The rows above that edit one setting of this file are refused for that setting alone."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**_SWEEP_DOC, "cells": [_cell("rbf")]}))
    code, _, err = _run(["ptri", "--sweep", str(path), "--methods", "rbf",
                         "--out", str(tmp_path / "out")], capsys)
    assert code == 0, err


def test_ingest_csv_field_over_the_csv_limit_is_an_error(tmp_path, capsys):
    csv_path = tmp_path / "i.csv"
    csv_path.write_text('Date,Price,Open,High,Low,Vol.,Change %\n01/02/2018,"'
                        + "9" * 200_000 + '",1,1,1,1,1\n')
    code, _, err = _run(["ingest", "--index", str(csv_path), "--gold", str(csv_path),
                         "--out", str(tmp_path / "ds.json")], capsys)
    assert code == 1
    assert err.startswith("error: ")


@pytest.fixture()
def run_inputs(tmp_path):
    """A dataset, its source CSVs and a sweep file for the command lines of ``golden``."""
    make_inputs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", list(COMMAND_LINES))
def test_replay_reproduces_byte_identical_outputs(run_inputs, capsys, name):
    """Replay reruns in a scratch directory: it neither needs nor recreates the recorded outputs."""
    argv = command_line(name, run_inputs)
    code, _, err = _run(argv, capsys)
    assert code == 0, err
    manifest_path = argv[argv.index("--out") + 1] + ".manifest.json"
    for path in json.loads(Path(manifest_path).read_text())["outputs"]:
        Path(path).unlink()
    before = _snapshot(run_inputs)
    code, out, err = _run(["replay", manifest_path], capsys)
    assert code == 0, err
    assert "byte-identical" in out
    assert _snapshot(run_inputs) == before


def test_a_failed_replay_keeps_the_record(tmp_path, capsys):
    ds_path = tmp_path / "ds.json"
    assert _run(["ingest", "--synthetic", "3", "--days", "60", "--out", str(ds_path)], capsys)[0] == 0
    manifest_path = tmp_path / "ds.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][str(ds_path)] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    before = _snapshot(tmp_path)
    for _ in range(2):  # a rerun that wrote at the recorded paths would make the second one pass
        code, _, err = _run(["replay", str(manifest_path)], capsys)
        assert code == 1
        assert err == f"error: replay outputs differ from the manifest: {[str(ds_path)]}\n"
        assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("name", list(COMMAND_LINES))
def test_manifest_records_every_parsed_argument(run_inputs, capsys, name):
    argv = command_line(name, run_inputs)
    code, _, err = _run(argv, capsys)
    assert code == 0, err
    manifest = json.loads(Path(argv[argv.index("--out") + 1] + ".manifest.json").read_text())
    parsed = vars(build_parser().parse_args(argv))
    assert set(manifest["arguments"]) == set(parsed) - {"command", "func"}
    assert manifest["arguments"] == {k: parsed[k] for k in manifest["arguments"]}
    assert manifest["command"] == parsed["command"]
    assert (manifest["version"], manifest["numpy"]) == ("1.1", np.__version__)
    named = {kind: {argv[i + 1] for i, flag in enumerate(argv) if flag in flags}
             for kind, flags in (("inputs", ("--dataset", "--sweep", "--index", "--gold")),
                                 ("outputs", ("--out", "--table")))}
    assert {kind: set(manifest[kind]) for kind in named} == named


@pytest.mark.parametrize("argv", [
    "kernel --dataset {d}/nope.json --map z --features 2 --out {d}/out",
    "sweep --dataset {d}/nope.json --out {d}/out",
    "variability --dataset {d}/nope.json --out {d}/out",
    "ptri --sweep {d}/nope.json --out {d}/out",
    "ingest --index {d}/nope.json --gold {d}/g.csv --out {d}/out",
    "replay {d}/nope.json",
], ids=["kernel", "sweep", "variability", "ptri", "ingest", "replay"])
def test_a_missing_input_is_an_error_before_anything_is_written(tmp_path, capsys, argv):
    write_synthetic_csvs(tmp_path / "i.csv", tmp_path / "g.csv", 5, days=60)
    before = _snapshot(tmp_path)
    code, _, err = _run(argv.format(d=tmp_path).split(), capsys)
    assert code == 1
    assert err == f"error: file not found: {tmp_path}/nope.json\n"
    assert _snapshot(tmp_path) == before


def test_replay_detects_changed_inputs(tmp_path, capsys):
    ds_path = tmp_path / "ds.json"
    assert _run(["ingest", "--synthetic", "12", "--days", "60", "--out", str(ds_path)], capsys)[0] == 0
    out = tmp_path / "k.gram"
    assert _run(["kernel", "--dataset", str(ds_path), "--map", "z", "--features", "2",
                 "--size", "20", "--out", str(out)], capsys)[0] == 0
    ds_path.write_text(ds_path.read_text() + "\n")
    code, _, err = _run(["replay", str(out) + ".manifest.json"], capsys)
    assert code != 0
    assert "changed" in err


_MANIFEST = {"format": "qkslab-manifest", "version": "1.1", "tool_version": __version__,
             "numpy": np.__version__, "command": "resources", "arguments": {}, "inputs": {},
             "outputs": {}}


@pytest.mark.parametrize("text", [
    "{",
    json.dumps(["not", "an", "object"]),
    *(json.dumps({k: v for k, v in _MANIFEST.items() if k != key})
      for key in ("command", "arguments", "inputs", "outputs")),
    json.dumps({**_MANIFEST, "inputs": ["ds.json"]}),
    json.dumps({**_MANIFEST, "inputs": {"ds.json": float("nan")}}),
    json.dumps({**_MANIFEST, "command": "ingest",
                "arguments": {"synthetic": 3, "days": "sixty", "out": "ds.json"}}),
], ids=["not-json", "list", "no-command", "no-arguments", "no-inputs", "no-outputs",
        "inputs-list", "nan-token", "argument-does-not-parse"])
def test_replay_rejects_a_malformed_manifest(tmp_path, capsys, text):
    manifest_path = tmp_path / "m.manifest.json"
    manifest_path.write_text(text)
    code, _, err = _run(["replay", str(manifest_path)], capsys)
    assert code == 1
    assert (err.startswith(f"error: {manifest_path}: ")
            or err.startswith(f"error: malformed {manifest_path}: "))
    if "sixty" in text:  # the refusal names the argument, as argparse words it
        assert err == (f"error: malformed {manifest_path}: "
                       "argument --days: invalid int value: 'sixty'\n")
    assert sorted(tmp_path.iterdir()) == [manifest_path]


def test_replay_rejects_a_manifest_from_another_tool_version(tmp_path, capsys):
    ds_path = tmp_path / "ds.json"
    assert _run(["ingest", "--synthetic", "13", "--days", "60", "--out", str(ds_path)], capsys)[0] == 0
    out = tmp_path / "k.gram"
    assert _run(["kernel", "--dataset", str(ds_path), "--map", "z", "--features", "2",
                 "--size", "20", "--out", str(out)], capsys)[0] == 0
    manifest_path = tmp_path / "k.gram.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["tool_version"] = "0.0.1"
    manifest_path.write_text(json.dumps(manifest))
    ds_path.write_text(ds_path.read_text() + "\n")  # the version is checked before the inputs
    code, _, err = _run(["replay", str(manifest_path)], capsys)
    assert code == 1
    assert f"written by qkslab 0.0.1, this is qkslab {__version__}" in err


@pytest.mark.parametrize("numpy_version, written", [("1.26.4", "1.26.4"), (None, "unknown")],
                         ids=["other-numpy", "no-numpy"])
def test_replay_rejects_a_manifest_from_another_numpy(tmp_path, capsys, numpy_version, written):
    ds_path = tmp_path / "ds.json"
    assert _run(["ingest", "--synthetic", "13", "--days", "60", "--out", str(ds_path)], capsys)[0] == 0
    out = tmp_path / "k.gram"
    assert _run(["kernel", "--dataset", str(ds_path), "--map", "z", "--features", "2",
                 "--size", "20", "--out", str(out)], capsys)[0] == 0
    manifest_path = tmp_path / "k.gram.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if numpy_version is None:
        del manifest["numpy"]
    else:
        manifest["numpy"] = numpy_version
    manifest_path.write_text(json.dumps(manifest))
    ds_path.write_text(ds_path.read_text() + "\n")  # numpy is checked before the inputs
    out.unlink()
    code, _, err = _run(["replay", str(manifest_path)], capsys)
    assert code == 1
    assert err == (f"error: {manifest_path}: written under numpy {written}, "
                   f"this is numpy {np.__version__}\n")
    assert not out.exists()  # nothing was rerun


@pytest.mark.parametrize("kernel", [["yyy"], ["zz", "--mode", "shots", "--shots", "64"], ["rbf"]],
                         ids=["exact-yyy", "shots-zz", "rbf"])
def test_kernel_writes_the_grams_of_sweep_trial_0(dataset, tmp_path, capsys, monkeypatch, kernel):
    from qkslab import experiment

    pairs = []
    gram_pair = experiment.gram_pair

    def recorded_gram_pair(*args, **kwargs):
        pairs.append(gram_pair(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(experiment, "gram_pair", recorded_gram_pair)
    name, *flags = kernel
    sweep_path = tmp_path / "sweep.json"
    code, _, err = _run(["sweep", "--dataset", str(dataset), "--sizes", "24", "--features", "3",
                         "--kernels", name, *flags, "--trials", "1", "--seed", "5",
                         "--out", str(sweep_path)], capsys)
    assert code == 0, err
    (train, cross), = pairs
    grams = {}
    for rows in ("train", "test"):
        out = tmp_path / f"{rows}.gram"
        code, _, err = _run(["kernel", "--dataset", str(dataset), "--map", name, *flags,
                             "--features", "3", "--size", "24", "--seed", "5", "--rows", rows,
                             "--out", str(out)], capsys)
        assert code == 0, err
        grams[rows] = _gram_doc(out)
    for written, scored in ((grams["train"], train), (grams["test"], cross)):
        assert (written["row_ids"], written["col_ids"]) == (list(scored.row_ids), list(scored.col_ids))
        assert np.array_equal(np.array(written["values"]), scored.values)
        assert written["kernel"] == config_to_doc(scored.config)
    ids = " ".join(grams["train"]["row_ids"]) + "|" + " ".join(grams["test"]["row_ids"])
    record, = json.loads(sweep_path.read_text())["cells"][0]["records"]
    assert hashlib.sha256(ids.encode()).hexdigest()[:16] == record["fingerprint"]


_SMALL = ["--features", "3", "--trials", "2"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--map", "rbf", "--features", "3", "--size", "24", "--mode", "shots"],
    ["kernel", "--map", "yyy", "--features", "3", "--size", "24", "--gamma", "3"],
    ["variability", "--kernel", "rbf", "--size", "24", *_SMALL, "--mode", "shots",
     "--shots", "64"],
    ["sweep", "--kernels", "rbf", "--sizes", "24", *_SMALL, "--mode", "shots"],
    ["kernel", "--map", "yyy", "--features", "3", "--size", "24", "--shots", "64"],
    ["sweep", "--kernels", "yyy", "--sizes", "24", *_SMALL, "--allow-overshoot"],
    ["variability", "--kernel", "rbf", "--size", "24", *_SMALL, "--reps", "3"],
    ["kernel", "--map", "yyy", "--features", "3", "--size", "24", "--no-psd-clip"],
    ["kernel", "--map", "yyy", "--features", "3", "--size", "24", "--mode", "shots",
     "--rows", "test", "--no-psd-clip"],
    ["ingest", "--synthetic", "3", "--columns", ""],
], ids=["kernel-rbf-shots", "kernel-quantum-gamma", "variability-rbf-shots",
        "sweep-rbf-shots", "shots-in-exact-mode", "overshoot-in-exact-mode", "rbf-reps",
        "psd-clip-in-exact-mode", "psd-clip-on-cross-gram", "empty-columns"])
def test_flags_that_change_nothing_are_errors(dataset, tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    inputs = [] if argv[0] == "ingest" else ["--dataset", str(dataset)]
    code, _, err = _run([*argv, *inputs, "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


def test_sweep_shots_and_gamma_apply_to_one_kernel_each(dataset, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, _, err = _run(["sweep", "--dataset", str(dataset), "--sizes", "24", "--features", "3",
                         "--kernels", "yyy,rbf", "--mode", "shots", "--shots", "64",
                         "--gamma", "0.5", "--trials", "1", "--out", str(out)], capsys)
    assert code == 0, err
    kernels = {k["name"]: k for k in json.loads(out.read_text())["kernels"]}
    assert (kernels["yyy"]["mode"], kernels["yyy"]["shots"]) == ("shots", 64)
    assert (kernels["rbf"]["mode"], kernels["rbf"]["gamma"]) == ("exact", 0.5)


def test_no_psd_clip_keeps_the_sampled_train_gram(dataset, tmp_path, capsys):
    argv = ["kernel", "--dataset", str(dataset), "--map", "zz", "--features", "3",
            "--size", "24", "--mode", "shots", "--shots", "64", "--seed", "2"]
    for name, extra in (("raw", ["--no-psd-clip"]), ("clipped", [])):
        code, _, err = _run([*argv, *extra, "--out", str(tmp_path / name)], capsys)
        assert code == 0, err
    raw_doc = _gram_doc(tmp_path / "raw")
    raw, clipped = np.array(raw_doc["values"]), np.array(_gram_doc(tmp_path / "clipped")["values"])
    counts = raw * 64
    assert np.array_equal(counts, np.round(counts))
    assert not np.array_equal(raw, clipped)
    ids = tuple(raw_doc["row_ids"])
    raw_gram = GramMatrix(raw, ids, ids, quantum_config("zz", 3, shots=64), True)
    assert np.array_equal(clipped, psd_clip(raw_gram).values)


@pytest.mark.parametrize("files", [
    "sweep --dataset {ds} --out {d}/x --table {d}/x",
    "sweep --dataset {ds} --out {d}/x --table {d}/x.manifest.json",
    "sweep --dataset {ds} --out {ds}",
    "kernel --dataset {ds} --map z --features 2 --size 20 --out {ds}",
    "kernel --dataset {ds} --map z --features 2 --size 20 --out {d}/../{d.name}/ds.json",
    "ptri --sweep {d}/x --out {d}/p.json --table {d}/x",
], ids=["sweep-out-is-table", "sweep-table-is-manifest", "sweep-out-is-dataset",
        "kernel-out-is-dataset", "kernel-out-is-dataset-by-another-path", "ptri-table-is-sweep"])
def test_command_lines_whose_files_collide_are_errors(dataset, tmp_path, capsys, files):
    (tmp_path / "x").write_text("{}")
    before = _snapshot(tmp_path)
    argv = files.format(ds=dataset, d=tmp_path).split()
    if argv[0] == "sweep":
        argv += ["--sizes", "20", "--features", "2", "--kernels", "rbf", "--trials", "1"]
    code, _, err = _run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ") and "names another input or output" in err
    assert _snapshot(tmp_path) == before


def _subcommands() -> dict:
    subparsers, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


def test_every_command_has_a_replayed_command_line():
    covered = {line.split()[0] for line in COMMAND_LINES.values()}
    assert set(_subcommands()) - {"replay"} == covered


@pytest.mark.parametrize("command", list(_subcommands()))
def test_every_command_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("flags", [["--gamma", "nan"], ["--c", "nan"], ["--c", "inf"],
                                   ["--tol", "nan"]], ids=["gamma-nan", "c-nan", "c-inf", "tol-nan"])
def test_non_finite_svm_and_kernel_settings_are_errors(dataset, tmp_path, capsys, flags):
    out = tmp_path / "sweep.json"
    start = time.perf_counter()
    code, _, err = _run(["sweep", "--dataset", str(dataset), "--sizes", "24", "--features", "3",
                         "--kernels", "rbf", "--trials", "1", *flags, "--out", str(out)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error: ") and "must be a number in (0, inf), got " in err
    assert not out.exists()


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_variability_without_histogram_bins_is_an_error_before_any_trial(
        dataset, tmp_path, capsys, monkeypatch, bins):
    def no_trials(*args, **kwargs):
        raise AssertionError("variability ran its trials before refusing --bins")

    monkeypatch.setattr(experiment, "run_sweep", no_trials)
    out = tmp_path / "var.json"
    code, _, err = _run(["variability", "--dataset", str(dataset), "--size", "30", "--features", "2",
                         "--trials", "3", "--bins", bins, "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: bins must be an integer >= 1, got {bins}\n"
    assert not out.exists()


def _parser_defaults(command) -> dict:
    return {a.dest: a.default for a in _subcommands()[command]._actions}


def _signature_defaults(function) -> dict:
    return {name: p.default for name, p in inspect.signature(function).parameters.items()}


def test_cli_and_library_defaults_are_the_protocol_constants():
    for command in ("kernel", "sweep", "variability"):
        defaults = _parser_defaults(command)
        assert (defaults["seed"], defaults["split_ratio"]) == (0, DEFAULT_SPLIT_RATIO), command
        assert defaults["reps"] == DEFAULT_REPETITIONS, command
    for command in ("sweep", "variability"):
        defaults = _parser_defaults(command)
        assert (defaults["c"], defaults["tol"]) == (DEFAULT_C, DEFAULT_TOL), command
    assert _parser_defaults("variability")["bins"] == DEFAULT_BINS
    for function in (run_sweep, variability_study):
        defaults = _signature_defaults(function)
        assert (defaults["split_ratio"], defaults["svm_c"], defaults["svm_tol"]) == (
            DEFAULT_SPLIT_RATIO, DEFAULT_C, DEFAULT_TOL)
    assert _signature_defaults(variability_study)["bins"] == DEFAULT_BINS
    assert (_signature_defaults(train)["C"], _signature_defaults(train)["tol"]) == (
        DEFAULT_C, DEFAULT_TOL)
    assert _signature_defaults(sample_subset)["split_ratio"] == DEFAULT_SPLIT_RATIO
    assert _signature_defaults(quantum_config)["repetitions"] == DEFAULT_REPETITIONS


def _walkthrough_commands() -> list[list[str]]:
    block = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = block.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qkslab ")]


def test_readme_walkthrough_parses_with_the_current_flags():
    commands = _walkthrough_commands()
    assert {argv[0] for argv in commands} == set(_subcommands())
    for argv in commands:
        build_parser().parse_args(argv)  # an unknown or removed flag exits with status 2
