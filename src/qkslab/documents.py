"""The files qkslab writes: tagged JSON documents, which it reads back, and CSV tables.

A dataset, Gram, sweep, PTRI, variability or manifest file is a JSON object
with a ``format`` tag and a ``version``, written with sorted keys so reruns are
byte-identical, and as strict JSON: writing a NaN or infinity is a ValueError.
``read_json`` refuses the ``NaN`` and ``Infinity`` tokens, another tag or major
version, and names the file.
"""
import csv
import json
from contextlib import contextmanager


def write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def check_format(doc, formats: dict[str, str], where) -> str:
    """The ``format`` of ``doc``: a key of ``formats`` whose value has the doc's major version."""
    kind = doc.get("format") if isinstance(doc, dict) else None
    if kind not in formats:
        raise ValueError(f"{where}: not a {' or '.join(formats)} document")
    if str(doc.get("version", "")).split(".")[0] != formats[kind].split(".")[0]:
        raise ValueError(f"{where}: unsupported {kind} version {doc.get('version')}")
    return kind


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path, formats: dict[str, str]) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_refuse_constant)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, NaN and Infinity tokens
            raise ValueError(f"{path}: not a JSON document ({exc})") from None
    check_format(doc, formats, path)
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
