"""Golden outputs: the bytes a fixed set of command lines writes, pinned in ``golden.json``.

``COMMAND_LINES`` is the one list of pinned command lines; ``test_cli`` replays
the same list.  ``golden.json`` holds ``__version__`` and, per output file, its
SHA-256 and its content (JSON documents parsed, CSV tables as lines), so a
failure can say what moved: that only the layout moved when the parsed contents
are equal, else the largest |change| of a Gram's values, the BA/F1 records of a
sweep or variability file, the first differing line of a CSV.
Manifests are left out because they hold absolute paths.

The fixture changes only together with a ``__version__`` bump.  After a bump,
regenerate it and paste the printed diff into CHANGES.md:

    PYTHONPATH=src python tests/golden.py

Without a bump, a run whose output bytes moved prints the diff, leaves the
fixture as it is and exits non-zero.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from qkslab import __version__
from qkslab.cli import main

from synthetic_csvs import write_synthetic_csvs

FIXTURE = Path(__file__).with_name("golden.json")

# At least one command line per manifest-writing command; {d} is the directory of the inputs.
# The exact ``yyy`` Gram at F=3 and the six-kernel sweep cover the quantum state path.
COMMAND_LINES = {
    "ingest-synthetic": "ingest --synthetic 11 --days 70 --out {d}/out.json",
    "ingest-csv": "ingest --index {d}/i.csv --gold {d}/g.csv --out {d}/out.json",
    "kernel": "kernel --dataset {d}/ds.json --map zz --features 2 --size 20 --mode shots "
              "--shots 64 --seed 3 --out {d}/out.gram",
    "kernel-exact": "kernel --dataset {d}/ds.json --map yyy --features 3 --size 40 --seed 4 "
                    "--out {d}/out.gram",
    "sweep": "sweep --dataset {d}/ds.json --sizes 30 --features 2 --kernels z,rbf --trials 2 "
             "--seed 8 --out {d}/out.json --table {d}/out.csv",
    "sweep-six-kernels": "sweep --dataset {d}/ds.json --sizes 30,40 --features 3,4 "
                         "--kernels z,zz,yyy,yzz,zzz,rbf --trials 2 --seed 9 "
                         "--out {d}/out.json --table {d}/out.csv",
    "ptri": "ptri --sweep {d}/sweep.json --methods z,rbf --selection reference "
            "--out {d}/out.json --table {d}/out.csv",
    "variability": "variability --dataset {d}/ds.json --size 30 --features 2 --trials 3 "
                   "--out {d}/out.json --table {d}/out.csv",
    "resources": "resources --features 2,3 --reps 1 --out {d}/out.csv",
}


def _main(argv: list[str]) -> None:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"qkslab {' '.join(argv)} exited with {code}: {stderr.getvalue()}")


def make_inputs(directory) -> None:
    """The inputs the command lines read: two source CSVs, a dataset and a sweep file."""
    write_synthetic_csvs(Path(directory) / "i.csv", Path(directory) / "g.csv", 5, days=60)
    _main(f"ingest --synthetic 11 --days 70 --out {directory}/ds.json".split())
    _main(f"sweep --dataset {directory}/ds.json --sizes 30 --features 2 --kernels z,rbf "
          f"--trials 2 --out {directory}/sweep.json".split())


def command_line(name: str, directory) -> list[str]:
    return COMMAND_LINES[name].format(d=directory).split()


def outputs(directory) -> dict[str, bytes]:
    """Each command line's output files, run in ``directory`` on fresh inputs, keyed ``name/file``."""
    make_inputs(directory)
    files = {}
    for name in COMMAND_LINES:
        argv = command_line(name, directory)
        _main(argv)
        manifest = json.loads(Path(argv[argv.index("--out") + 1] + ".manifest.json").read_text())
        for path in manifest["outputs"]:
            files[f"{name}/{Path(path).name}"] = Path(path).read_bytes()
    return files


def fixture(files: dict[str, bytes]) -> dict:
    def content(key, data):
        text = data.decode("utf-8")
        return text.splitlines() if key.endswith(".csv") else json.loads(text)

    return {"version": __version__,
            "files": {key: {"sha256": hashlib.sha256(data).hexdigest(), "content": content(key, data)}
                      for key, data in files.items()}}


# --- semantic diff ------------------------------------------------------------------

def _records(doc: dict) -> dict[str, dict]:
    """A sweep or variability document's records by their coordinates."""
    if doc["format"] == "qkslab-variability":
        return {f"trial {r['trial']}": r for r in doc["records"]}
    return {f"F={c['features']} N={c['size']} {c['kernel']} trial {r['trial']}": r
            for c in doc["cells"] for r in c["records"]}


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for key in doc:
            yield from _leaves(doc[key], f"{path}/{key}")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, doc


def _file_diff(old, new) -> list[str]:
    """What moved between two contents of one output file."""
    if old == new:
        return ["bytes differ, parsed values equal"]
    if isinstance(old, list) or isinstance(new, list):  # CSV lines
        for i, (a, b) in enumerate(zip(old, new)):
            if a != b:
                return [f"first differing line {i + 1}: {a!r} -> {b!r}"]
        return [f"{len(old)} -> {len(new)} lines"]
    kind = old.get("format")
    if kind != new.get("format"):
        return [f"format {kind} -> {new.get('format')}"]
    if kind == "qkslab-gram":
        before, after = np.array(old["values"]), np.array(new["values"])
        if before.shape == after.shape:
            lines = [f"max |delta| of the Gram values: {np.abs(after - before).max():.3g}"]
            return lines + [f"{k} differ" for k in sorted(set(old) | set(new))
                            if k != "values" and old.get(k) != new.get(k)]
    if kind in ("qkslab-sweep", "qkslab-variability"):
        before, after = _records(old), _records(new)
        lines = []
        for key in {**before, **after}:
            a, b = before.get(key), after.get(key)
            if a is None or b is None:
                lines.append(f"{key}: only {'after' if a is None else 'before'}")
            elif (a["balanced_accuracy"], a["f1"]) != (b["balanced_accuracy"], b["f1"]):
                lines.append(f"{key}: BA {a['balanced_accuracy']!r} -> {b['balanced_accuracy']!r}, "
                             f"F1 {a['f1']!r} -> {b['f1']!r}")
        return lines or ["no BA/F1 record moved; other fields differ"]
    old_leaves, new_leaves = dict(_leaves(old)), dict(_leaves(new))
    moved = [p for p in {**old_leaves, **new_leaves}
             if old_leaves.get(p, "<absent>") != new_leaves.get(p, "<absent>")]
    if not moved:
        return ["empty containers differ"]
    return [f"{len(moved)} value(s) differ, first at {moved[0]}: "
            f"{old_leaves.get(moved[0], '<absent>')!r} -> {new_leaves.get(moved[0], '<absent>')!r}"]


def diff(expected: dict, actual: dict) -> list[str]:
    """One line per change between two fixtures; empty when every output byte is the same."""
    lines = []
    if expected["version"] != actual["version"]:
        lines.append(f"version {expected['version']} -> {actual['version']}")
    old, new = expected["files"], actual["files"]
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            lines.append(f"{key}: only in the {'fixture' if key in old else 'new outputs'}")
        elif old[key]["sha256"] != new[key]["sha256"]:
            lines += [f"{key}: {line}" for line in _file_diff(old[key]["content"],
                                                               new[key]["content"])]
    return lines


def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def regenerate() -> list[str]:
    """Rewrite the fixture from the current program; the diff from the old one, if any.

    Exits non-zero with the diff, the fixture untouched, if bytes moved under the same version."""
    with tempfile.TemporaryDirectory() as directory:
        new = fixture(outputs(directory))
    if not FIXTURE.exists():
        lines = [f"{FIXTURE.name}: new fixture"]
    else:
        old = load()
        lines = diff(old, new)
        if lines and old["version"] == new["version"]:
            sys.exit("\n".join([*lines, f"output bytes moved while __version__ stayed "
                                f"{__version__}: bump it first; {FIXTURE.name} is unchanged"]))
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return lines


if __name__ == "__main__":
    moved = regenerate()
    print("\n".join(moved) if moved else f"{FIXTURE.name}: no output byte moved")
