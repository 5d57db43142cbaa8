"""Every output byte of the pinned command lines matches ``golden.json`` (see ``golden``)."""
import copy
import shutil

import pytest

from qkslab import __version__

import golden


def test_every_output_byte_matches_the_golden_fixture(tmp_path):
    expected = golden.load()
    assert expected["version"] == __version__, (
        f"golden.json pins qkslab {expected['version']}, this is qkslab {__version__}: "
        "regenerate it with `PYTHONPATH=src python tests/golden.py` and paste the diff it "
        "prints into CHANGES.md")
    moved = golden.diff(expected, golden.fixture(golden.outputs(tmp_path)))
    assert not moved, "output bytes moved while __version__ did not:\n" + "\n".join(moved)


def test_the_diff_says_what_moved_in_each_kind_of_file():
    expected = golden.load()
    assert golden.diff(expected, expected) == []
    actual = copy.deepcopy(expected)
    edits = {
        "kernel-exact/out.gram": lambda c: c["values"][0].__setitem__(1, c["values"][0][1] + 2e-9),
        "sweep-six-kernels/out.json": lambda c: c["cells"][0]["records"][1].__setitem__("f1", 2.0),
        "variability/out.json": lambda c: c["records"][2].__setitem__("balanced_accuracy", -1.0),
        "sweep/out.csv": lambda c: c.__setitem__(3, "changed"),
        "ptri/out.json": lambda c: c.__setitem__("metric", "f1"),
    }
    for key, edit in edits.items():
        edit(actual["files"][key]["content"])
        actual["files"][key]["sha256"] = "0" * 64
    for key in ("kernel/out.gram", "resources/out.csv", "sweep/out.json"):  # layout-only changes
        actual["files"][key]["sha256"] = "1" * 64
    cell = expected["files"]["sweep-six-kernels/out.json"]["content"]["cells"][0]
    record = cell["records"][1]
    variability = expected["files"]["variability/out.json"]["content"]["records"][2]
    assert golden.diff(expected, actual) == [
        "kernel-exact/out.gram: max |delta| of the Gram values: 2e-09",
        "kernel/out.gram: bytes differ, parsed values equal",
        "ptri/out.json: 1 value(s) differ, first at /metric: 'balanced_accuracy' -> 'f1'",
        "resources/out.csv: bytes differ, parsed values equal",
        f"sweep-six-kernels/out.json: F={cell['features']} N={cell['size']} {cell['kernel']} "
        f"trial 1: BA {record['balanced_accuracy']!r} -> {record['balanced_accuracy']!r}, "
        f"F1 {record['f1']!r} -> 2.0",
        "sweep/out.csv: first differing line 4: "
        f"{expected['files']['sweep/out.csv']['content'][3]!r} -> 'changed'",
        "sweep/out.json: bytes differ, parsed values equal",
        "variability/out.json: trial 2: BA "
        f"{variability['balanced_accuracy']!r} -> -1.0, F1 {variability['f1']!r} -> "
        f"{variability['f1']!r}",
    ]


def test_regenerating_refuses_moved_bytes_until_the_version_is_bumped(tmp_path, monkeypatch):
    fixture = tmp_path / "golden.json"
    shutil.copyfile(golden.FIXTURE, fixture)
    monkeypatch.setattr(golden, "FIXTURE", fixture)
    files = {"sweep/out.csv": b"trial,balanced_accuracy\r\n0,0.5\r\n"}
    monkeypatch.setattr(golden, "outputs", lambda directory: files)

    def refused() -> str:
        pinned = fixture.read_bytes()
        with pytest.raises(SystemExit) as exit_:
            golden.regenerate()
        assert fixture.read_bytes() == pinned
        return exit_.value.code

    assert "sweep/out.json: only in the fixture" in refused()
    monkeypatch.setattr(golden, "__version__", "9.9.9")
    assert golden.regenerate()[0] == f"version {__version__} -> 9.9.9"
    assert golden.regenerate() == []
    files["sweep/out.csv"] = b"trial,balanced_accuracy\r\n0,0.75\r\n"
    message = refused()
    assert message.startswith("sweep/out.csv: first differing line 2: '0,0.5' -> '0,0.75'\n")
    assert message.endswith("bump it first; golden.json is unchanged")
