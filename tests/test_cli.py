"""End-to-end tests of the command-line interface and its manifests."""
import argparse
import hashlib
import inspect
import json
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from qkslab import __version__
from qkslab.cli import build_parser, main
from qkslab.data import DEFAULT_SPLIT_RATIO, SubsetSpec
from qkslab.experiment import DEFAULT_BINS, run_sweep, variability_study
from qkslab.feature_maps import DEFAULT_REPETITIONS
from qkslab.kernels import quantum_config
from qkslab.svm import DEFAULT_C, DEFAULT_TOL, train

README = Path(__file__).resolve().parent.parent / "README.md"


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    from qkslab.data import write_synthetic_csvs

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
    from qkslab.data import write_synthetic_csvs

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
    from qkslab.kernels import read_gram

    gram = read_gram(out)
    assert gram.symmetric
    assert all(v == 1.0 for v in gram.values.diagonal())


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
    from qkslab.kernels import read_gram

    gram = read_gram(out)
    assert not gram.symmetric
    assert gram.values.shape[0] < gram.values.shape[1]


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

    ptri_path = tmp_path / "ptri.json"
    code, out, err = _run(["ptri", "--sweep", str(sweep_path), "--methods", "z,rbf",
                           "--out", str(ptri_path)], capsys)
    assert code == 0, err
    pdoc = json.loads(ptri_path.read_text())
    assert set(pdoc["surfaces"]) == {"z", "rbf"}

    report_path = tmp_path / "flat.csv"
    code, out, err = _run(["report", "--input", str(ptri_path), "--out", str(report_path)], capsys)
    assert code == 0
    assert report_path.read_text().startswith("method,features,size")


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


def test_variability_command(dataset, tmp_path, capsys):
    out = tmp_path / "var.json"
    code, text, err = _run(["variability", "--dataset", str(dataset), "--size", "30",
                            "--features", "2", "--kernel", "rbf", "--trials", "5",
                            "--seed", "2", "--out", str(out)], capsys)
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 5
    assert "std=" in text


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
    for argv in (["ptri", "--sweep", str(bad), "--methods", "rbf"],
                 ["report", "--input", str(bad)]):
        code, _, err = _run(argv + ["--out", str(tmp_path / "p.json")], capsys)
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


def _dataset_doc(value) -> dict:
    return {"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0"],
            "rows": [{"id": "a", "date": "2018-01-02", "features": [0.5], "label": 1},
                     {"id": "b", "date": "2018-01-03", "features": [value], "label": -1}]}


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
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf", score=float("nan"))]}),
    ("report", {**_SWEEP_DOC, "cells": [_cell("rbf", score=float("nan"))]}),
    ("sweep", {"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0", "x1"]}),
    ("sweep", {"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0"],
               "rows": [{"id": "r1", "date": "2018-13-01", "features": [0.5], "label": 1}]}),
    ("sweep", _dataset_doc(float("nan"))),
    ("sweep", _dataset_doc(float("-inf"))),
    ("report", []),
    ("ptri", []),
    ("sweep", []),
    ("sweep", "not json"),
    ("ptri", "not json"),
    ("report", "not json"),
], ids=["sweep-without-kernels", "cell-without-records", "sweep-without-cells",
        "cell-of-unlisted-kernel", "kernel-listed-twice", "grid-point-listed-twice",
        "cell-off-the-grid", "cell-listed-twice", "trial-index-repeated", "trials-out-of-order",
        "ptri-nan-score", "report-nan-score",
        "dataset-without-rows", "dataset-bad-date", "dataset-nan-feature", "dataset-inf-feature",
        "report-list", "ptri-list", "sweep-list",
        "sweep-not-json", "ptri-not-json", "report-not-json"])
def test_malformed_input_files_are_errors(tmp_path, capsys, command, doc):
    path = tmp_path / "in.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = {"ptri": ["ptri", "--sweep", str(path), "--methods", "rbf"],
            "report": ["report", "--input", str(path)],
            "sweep": ["sweep", "--dataset", str(path), "--sizes", "30", "--features", "2",
                      "--kernels", "rbf", "--trials", "1"]}[command]
    code, _, err = _run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.startswith(f"error: {path}: ") or err.startswith(f"error: malformed {path}: ")


def test_ingest_csv_field_over_the_csv_limit_is_an_error(tmp_path, capsys):
    csv_path = tmp_path / "i.csv"
    csv_path.write_text('Date,Price,Open,High,Low,Vol.,Change %\n01/02/2018,"'
                        + "9" * 200_000 + '",1,1,1,1,1\n')
    code, _, err = _run(["ingest", "--index", str(csv_path), "--gold", str(csv_path),
                         "--out", str(tmp_path / "ds.json")], capsys)
    assert code == 1
    assert err.startswith("error: ")


# One command line per manifest-writing command; {d} is the directory of the inputs.
_COMMAND_LINES = {
    "ingest-synthetic": "ingest --synthetic 11 --days 70 --out {d}/out.json",
    "ingest-csv": "ingest --index {d}/i.csv --gold {d}/g.csv --out {d}/out.json",
    "kernel": "kernel --dataset {d}/ds.json --map zz --features 2 --size 20 --mode shots "
              "--shots 64 --seed 3 --out {d}/out.gram",
    "sweep": "sweep --dataset {d}/ds.json --sizes 30 --features 2 --kernels z,rbf --trials 2 "
             "--seed 8 --out {d}/out.json --table {d}/out.csv",
    "ptri": "ptri --sweep {d}/sweep.json --methods z,rbf --selection reference "
            "--out {d}/out.json --table {d}/out.csv",
    "variability": "variability --dataset {d}/ds.json --size 30 --features 2 --trials 3 "
                   "--out {d}/out.json --table {d}/out.csv",
    "resources": "resources --features 2,3 --reps 1 --out {d}/out.csv",
    "report": "report --input {d}/sweep.json --out {d}/out.csv",
}


@pytest.fixture()
def run_inputs(tmp_path, capsys):
    """A dataset, its source CSVs and a sweep file for the command lines above."""
    from qkslab.data import write_synthetic_csvs

    write_synthetic_csvs(tmp_path / "i.csv", tmp_path / "g.csv", 5, days=60)
    for argv in (f"ingest --synthetic 11 --days 70 --out {tmp_path}/ds.json",
                 f"sweep --dataset {tmp_path}/ds.json --sizes 30 --features 2 "
                 f"--kernels z,rbf --trials 2 --out {tmp_path}/sweep.json"):
        code, _, err = _run(argv.split(), capsys)
        assert code == 0, err
    return tmp_path


def _command_line(name, directory):
    return _COMMAND_LINES[name].format(d=directory).split()


@pytest.mark.parametrize("name", list(_COMMAND_LINES))
def test_replay_reproduces_byte_identical_outputs(run_inputs, capsys, name):
    argv = _command_line(name, run_inputs)
    code, _, err = _run(argv, capsys)
    assert code == 0, err
    manifest_path = argv[argv.index("--out") + 1] + ".manifest.json"
    outputs = json.loads(Path(manifest_path).read_text())["outputs"]
    before = {path: _digest(Path(path)) for path in outputs}
    for path in outputs:
        Path(path).unlink()
    code, out, err = _run(["replay", manifest_path], capsys)
    assert code == 0, err
    assert "byte-identical" in out
    assert {path: _digest(Path(path)) for path in outputs} == before


@pytest.mark.parametrize("name", list(_COMMAND_LINES))
def test_manifest_records_every_parsed_argument(run_inputs, capsys, name):
    argv = _command_line(name, run_inputs)
    code, _, err = _run(argv, capsys)
    assert code == 0, err
    manifest = json.loads(Path(argv[argv.index("--out") + 1] + ".manifest.json").read_text())
    parsed = vars(build_parser().parse_args(argv))
    assert set(manifest["arguments"]) == set(parsed) - {"command", "func"}
    assert manifest["arguments"] == {k: parsed[k] for k in manifest["arguments"]}
    assert manifest["command"] == parsed["command"]


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


_MANIFEST = {"format": "qkslab-manifest", "version": "1.0", "tool_version": __version__,
             "command": "resources", "arguments": {}, "inputs": {}, "outputs": {}}


@pytest.mark.parametrize("text", [
    "{",
    json.dumps(["not", "an", "object"]),
    *(json.dumps({k: v for k, v in _MANIFEST.items() if k != key})
      for key in ("command", "arguments", "inputs", "outputs")),
    json.dumps({**_MANIFEST, "inputs": ["ds.json"]}),
], ids=["not-json", "list", "no-command", "no-arguments", "no-inputs", "no-outputs",
        "inputs-list"])
def test_replay_rejects_a_malformed_manifest(tmp_path, capsys, text):
    manifest_path = tmp_path / "m.manifest.json"
    manifest_path.write_text(text)
    code, _, err = _run(["replay", str(manifest_path)], capsys)
    assert code == 1
    assert err.startswith(f"error: {manifest_path}: malformed manifest")


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


@pytest.mark.parametrize("kernel", [["yyy"], ["zz", "--mode", "shots", "--shots", "64"], ["rbf"]],
                         ids=["exact-yyy", "shots-zz", "rbf"])
def test_kernel_writes_the_grams_of_sweep_trial_0(dataset, tmp_path, capsys, monkeypatch, kernel):
    from qkslab import experiment
    from qkslab.kernels import read_gram

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
        grams[rows] = read_gram(out)
    for written, scored in ((grams["train"], train), (grams["test"], cross)):
        assert (written.row_ids, written.col_ids) == (scored.row_ids, scored.col_ids)
        assert np.array_equal(written.values, scored.values)
    ids = " ".join(grams["train"].row_ids) + "|" + " ".join(grams["test"].row_ids)
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
    from qkslab.kernels import psd_clip, read_gram

    argv = ["kernel", "--dataset", str(dataset), "--map", "zz", "--features", "3",
            "--size", "24", "--mode", "shots", "--shots", "64", "--seed", "2"]
    for name, extra in (("raw", ["--no-psd-clip"]), ("clipped", [])):
        code, _, err = _run([*argv, *extra, "--out", str(tmp_path / name)], capsys)
        assert code == 0, err
    raw, clipped = read_gram(tmp_path / "raw"), read_gram(tmp_path / "clipped")
    counts = raw.values * 64
    assert np.array_equal(counts, np.round(counts))
    assert not np.array_equal(raw.values, clipped.values)
    assert np.array_equal(clipped.values, psd_clip(raw).values)


@pytest.mark.parametrize("files", [
    "sweep --dataset {ds} --out {d}/x --table {d}/x",
    "sweep --dataset {ds} --out {d}/x --table {d}/x.manifest.json",
    "sweep --dataset {ds} --out {ds}",
    "kernel --dataset {ds} --map z --features 2 --size 20 --out {ds}",
    "kernel --dataset {ds} --map z --features 2 --size 20 --out {d}/../{d.name}/ds.json",
    "report --input {d}/x --out {d}/x",
], ids=["sweep-out-is-table", "sweep-table-is-manifest", "sweep-out-is-dataset",
        "kernel-out-is-dataset", "kernel-out-is-dataset-by-another-path", "report-out-is-input"])
def test_command_lines_whose_files_collide_are_errors(dataset, tmp_path, capsys, files):
    (tmp_path / "x").write_text("{}")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    argv = files.format(ds=dataset, d=tmp_path).split()
    if argv[0] == "sweep":
        argv += ["--sizes", "20", "--features", "2", "--kernels", "rbf", "--trials", "1"]
    code, _, err = _run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ") and "names another input or output" in err
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def _subcommands() -> dict:
    subparsers, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


def test_every_command_has_a_replayed_command_line():
    covered = {line.split()[0] for line in _COMMAND_LINES.values()}
    assert set(_subcommands()) - {"replay"} == covered


@pytest.mark.parametrize("flags", [["--gamma", "nan"], ["--c", "nan"], ["--c", "inf"],
                                   ["--tol", "nan"]], ids=["gamma-nan", "c-nan", "c-inf", "tol-nan"])
def test_non_finite_svm_and_kernel_settings_are_errors(dataset, tmp_path, capsys, flags):
    out = tmp_path / "sweep.json"
    start = time.perf_counter()
    code, _, err = _run(["sweep", "--dataset", str(dataset), "--sizes", "24", "--features", "3",
                         "--kernels", "rbf", "--trials", "1", *flags, "--out", str(out)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error: ") and "must be a finite positive number" in err
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
    assert _signature_defaults(SubsetSpec)["split_ratio"] == DEFAULT_SPLIT_RATIO
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
