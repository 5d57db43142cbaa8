"""End-to-end tests of the command-line interface and its manifests."""
import hashlib
import json
from pathlib import Path

import pytest

from qkslab import __version__
from qkslab.cli import build_parser, main


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


def _cell(kernel: str) -> dict:
    return {"features": 2, "size": 30, "kernel": kernel,
            "records": [{"trial": 0, "trial_seed": 1, "balanced_accuracy": 0.5, "f1": 0.5,
                         "fingerprint": "x"}]}


@pytest.mark.parametrize("command, doc", [
    ("ptri", {k: v for k, v in _SWEEP_DOC.items() if k != "kernels"}),
    ("ptri", _SWEEP_DOC),
    ("ptri", {**_SWEEP_DOC, "cells": []}),
    ("ptri", {**_SWEEP_DOC, "cells": [_cell("rbf"), _cell("yyy")]}),
    ("ptri", {**_SWEEP_DOC, "kernels": [{"name": "rbf"}] * 2, "cells": [_cell("rbf")]}),
    ("sweep", {"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0", "x1"]}),
    ("sweep", {"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0"],
               "rows": [{"id": "r1", "date": "2018-13-01", "features": [0.5], "label": 1}]}),
    ("report", []),
    ("ptri", []),
    ("sweep", []),
    ("sweep", "not json"),
    ("ptri", "not json"),
    ("report", "not json"),
], ids=["sweep-without-kernels", "cell-without-records", "sweep-without-cells",
        "cell-of-unlisted-kernel", "kernel-listed-twice",
        "dataset-without-rows", "dataset-bad-date",
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
