"""The files qkslab writes: CSV tables and tagged JSON documents, of which it reads back
datasets, sweeps and manifests only, each through ``read_json`` and ``fields``; a sweep,
PTRI or variability result is built as its document.

A dataset, Gram, sweep, PTRI, variability or manifest file is a JSON object
with a ``format`` tag and a ``version``, written as one line of compact JSON
with sorted keys so reruns are byte-identical, and as strict JSON: writing a
NaN or infinity is a ValueError, raised before the file is opened.
Each read names the one kind it reads: ``read_json`` refuses the ``NaN`` and
``Infinity`` tokens, another tag or major version, and names the file.  Every
numeric setting a document records is refused by one of two rules,
``check_int`` and ``check_between``.
"""
import csv
import json
from contextlib import contextmanager


def write_json(doc: dict, path) -> None:
    # A one-shot dumps without indent is the call json serves from its C encoder.
    text = json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def check_format(doc, kind: str, version: str, where) -> None:
    """Refuse ``doc`` unless it is a ``kind`` document of ``version``'s major version."""
    if not isinstance(doc, dict) or doc.get("format") != kind:
        raise ValueError(f"{where}: not a {kind} document")
    if str(doc.get("version", "")).split(".")[0] != version.split(".")[0]:
        raise ValueError(f"{where}: unsupported {kind} version {doc.get('version')}")


def check_int(name: str, value, least: int | None = None) -> int:
    """``value`` if it is an int (a bool is not one, though JSON reads true as one) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def check_between(name: str, value, low, high):
    """``value`` if it is a number (a bool is not one) with low < value < high."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not low < value < high:
        raise ValueError(f"{name} must be a number in ({low}, {high}), got {value!r}")
    return value


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path, kind: str, version: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_refuse_constant)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, NaN and Infinity tokens
            raise ValueError(f"{path}: not a JSON document ({exc})") from None
    check_format(doc, kind, version, path)
    return doc


@contextmanager
def fields(what):
    """Report a missing, mistyped or invalid field of ``what`` as one ValueError."""
    try:
        yield
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed {what}: missing or mistyped field ({exc!r})") from None
    except ValueError as exc:
        raise ValueError(f"malformed {what}: {exc}") from None
