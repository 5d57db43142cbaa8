"""Market-data ingestion, direction labels, feature scaling, and subsets.

Ingestion joins an index CSV (Date, Price, Open, High, Low, Vol., Change %)
with a gold-price CSV (Date, Price) on trading dates, forward-filling gold
onto every calendar date first.  Labels mark next-row close direction:
+1 when the close rose from the previous row, -1 otherwise, and row 0 is
dropped.  Close-derived feature columns are exposed lagged by one row so a
label never leaks into its own features.

Two deterministic generators ship with the package: a geometric random
walk with a correlated gold series (``synthetic_raw_series``), and a
labeling built from a quantum-kernel anchor machine on the first five
features (``quantum_separable_dataset``) whose classes look unstructured
to a Euclidean-distance kernel.

A dataset file is a ``qkslab-dataset`` document (see ``documents``): the
feature names and one id/date/features/label record per row; it never holds
scaling, which each subset fits on its own training split.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta
from math import pi

import numpy as np

from .documents import check_between, check_int, fields, read_json, write_json
from .feature_maps import FeatureMapSpec, build_feature_map
from .kernels import _fidelity
from .metrics import check_labels
from .seeding import mix64
from .simulator import simulate


class ParseError(ValueError):
    """Malformed input file; the message carries path and line number."""


# --- raw series and ingestion -------------------------------------------------

@dataclass(eq=False)
class RawSeries:
    dates: tuple[date, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        n = len(self.dates)
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValueError(f"column {name!r} has {len(col)} values for {n} dates")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column {name!r} holds a non-finite value")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing with no duplicates")

    def __len__(self) -> int:
        return len(self.dates)


_DATE_FORMATS = ("%m/%d/%Y", "%Y-%m-%d", "%b %d, %Y")


def _parse_date(token: str, where: str) -> date:
    token = token.strip().strip('"')
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(token, fmt).date()
        except ValueError:
            continue
    raise ParseError(f"{where}: unparseable date {token!r}")


def _parse_number(token: str, where: str) -> float:
    token = token.strip().strip('"').replace(",", "")
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{where}: unparseable number {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite number {token!r}")
    return value


def _parse_price(token: str, where: str) -> float:
    """A positive number: ``gold_change`` divides by the previous gold price."""
    value = _parse_number(token, where)
    if value <= 0:
        raise ParseError(f"{where}: non-positive price {token.strip()!r}")
    return value


def _parse_volume(token: str, where: str) -> float:
    token = token.strip().strip('"')
    scale = 1.0
    if token and token[-1] in "KMB":
        scale = {"K": 1e3, "M": 1e6, "B": 1e9}[token[-1]]
        token = token[:-1]
    return _parse_number(token, where) * scale


def _parse_pct(token: str, where: str) -> float:
    token = token.strip().strip('"')
    if token.endswith("%"):
        token = token[:-1]
    return _parse_number(token, where)


def _column_index(header: list[str], prefix: str, path) -> int:
    wanted = prefix.lower()
    for idx, name in enumerate(header):
        if name.lower().replace(" ", "").startswith(wanted):
            return idx
    raise ParseError(f"{path}:1: missing column starting with {prefix!r} in header {header}")


def _read_dated_rows(path, columns) -> list[tuple]:
    """Parsed CSV rows sorted by their first cell, a date that must not repeat.

    ``columns`` pairs each header prefix with the parser of that column's cells.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip().strip('"') for cell in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}:1: empty file") from None
        idx = [_column_index(header, prefix, path) for prefix, _ in columns]
        parsed = []
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) <= max(idx):
                raise ParseError(f"{where}: expected {len(header)} fields, got {len(row)}")
            parsed.append(tuple(parse(row[i], where) for i, (_, parse) in zip(idx, columns)))
    parsed.sort(key=lambda r: r[0])
    for a, b in zip(parsed, parsed[1:]):
        if a[0] == b[0]:
            raise ParseError(f"{path}: duplicate date {a[0].isoformat()}")
    return parsed


def ingest(index_csv, gold_csv) -> RawSeries:
    """Parse and inner-join the two CSVs on index trading dates.

    Gold prices are forward-filled onto every calendar date before the
    join, so an index date takes the latest gold price at or before it;
    index dates preceding the first gold date drop out.
    """
    parsed = _read_dated_rows(index_csv, (
        ("date", _parse_date), ("price", _parse_number), ("open", _parse_number),
        ("high", _parse_number), ("low", _parse_number), ("vol", _parse_volume),
        ("change", _parse_pct)))
    gold = _read_dated_rows(gold_csv, (("date", _parse_date), ("price", _parse_price)))
    if not gold:
        raise ParseError(f"{gold_csv}: no data rows")

    joined = []
    gi = -1
    for row in parsed:
        while gi + 1 < len(gold) and gold[gi + 1][0] <= row[0]:
            gi += 1
        if gi < 0:
            continue  # index date precedes all gold data
        joined.append(row + (gold[gi][1],))
    if not joined:
        raise ParseError(f"empty join between {index_csv} and {gold_csv}")

    names = ("price", "open", "high", "low", "volume", "change_pct", "gold_price")
    return RawSeries(
        tuple(r[0] for r in joined),
        {name: np.array([r[i + 1] for r in joined], dtype=np.float64) for i, name in enumerate(names)},
    )


# --- labeled dataset -----------------------------------------------------------

@dataclass(eq=False)
class Dataset:
    feature_names: tuple[str, ...]
    ids: tuple[str, ...]
    dates: tuple[date, ...]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.X.shape != (n, len(self.feature_names)) or self.y.shape != (n,) or len(self.dates) != n:
            raise ValueError("inconsistent dataset shapes")
        check_labels(self.y)
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features must be finite numbers")
        if n and (np.all(self.y == 1) or np.all(self.y == -1)):
            warnings.warn("dataset contains a single label class", RuntimeWarning, stacklevel=2)

    def __len__(self) -> int:
        return len(self.ids)


DEFAULT_FEATURES = ("open", "high", "low", "volume", "index_change_lag1",
                    "gold_price", "gold_change")
DEFAULT_DAYS = 460  # length of a synthetic series
DEFAULT_SPLIT_RATIO = 0.7  # share of a subset's rows that train
_SYNTHETIC_START = date(2018, 1, 2)  # first date of both generators' calendars

# Unlagged close-derived columns determine the label; selecting them leaks it.
_LEAKY_COLUMNS = ("price", "change_pct", "index_change")


def derived_columns(series: RawSeries) -> dict[str, np.ndarray]:
    """Feature catalog: the raw columns plus derived ones, NaN in rows where undefined."""
    cols = dict(series.columns)

    def lag(values: np.ndarray) -> np.ndarray:
        return np.concatenate(([np.nan], values[:-1]))

    if "change_pct" in cols:
        cols["index_change"] = cols["change_pct"]
        cols["index_change_lag1"] = lag(cols["change_pct"])
    if "gold_price" in cols:
        prev = lag(cols["gold_price"])
        cols["gold_change"] = (cols["gold_price"] - prev) / prev * 100.0
        cols["gold_change_lag1"] = lag(cols["gold_change"])
    if "price" in cols:
        cols["price_lag1"] = lag(cols["price"])
    return cols


def label_direction(series: RawSeries,
                    feature_columns: tuple[str, ...] = DEFAULT_FEATURES) -> Dataset:
    """Label each row with the close direction from its predecessor.

    Row t gets +1 when its close (``price``) exceeds row t-1's, else -1 (ties included); the
    first row has no predecessor and is dropped, as are the rows before the first
    finite value of a selected column (where a lag is not yet defined).
    """
    if "price" not in series.columns:
        raise ValueError("missing close column 'price'")
    if len(series) < 2:
        raise ValueError("need at least two rows to label direction")
    cols = derived_columns(series)
    missing = [c for c in feature_columns if c not in cols]
    if missing:
        raise ValueError(f"unknown feature columns {missing}; available: {sorted(cols)}")
    leaky = [c for c in feature_columns if c in _LEAKY_COLUMNS]
    if leaky:
        warnings.warn(f"columns {leaky} reveal the same-row close; labels become trivial",
                      RuntimeWarning, stacklevel=2)
    finite = [np.flatnonzero(np.isfinite(cols[c])) for c in feature_columns]
    start = max([1] + [int(f[0]) if f.size else len(series) for f in finite])
    closes = series.columns["price"]
    labels = np.where(closes[start:] > closes[start - 1:-1], 1, -1).astype(np.int64)
    X = np.column_stack([cols[c][start:] for c in feature_columns])
    ids = tuple(f"r{t:04d}" for t in range(start, len(series)))
    return Dataset(tuple(feature_columns), ids, series.dates[start:], X, labels)


# --- feature scaling -----------------------------------------------------------

def scale_split(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Min-max map both splits onto [0, pi] with the training split's per-feature range.

    A feature constant on the training split goes to pi/2; a test value outside the range clamps.
    """
    if len(train) == 0:
        raise ValueError("cannot fit scaling on an empty split")
    mins = train.X.min(axis=0)
    span = train.X.max(axis=0) - mins
    safe = np.where(span > 0, span, 1.0)

    def scale(ds: Dataset) -> Dataset:
        return replace(ds, X=np.clip(np.where(span > 0, (ds.X - mins) / safe * pi, pi / 2), 0.0, pi))

    return scale(train), scale(test)


# --- subset sampling -----------------------------------------------------------

def _take(ds: Dataset, idx: np.ndarray, num_features: int) -> Dataset:
    return Dataset(
        ds.feature_names[:num_features],
        tuple(ds.ids[i] for i in idx),
        tuple(ds.dates[i] for i in idx),
        ds.X[idx, :num_features],
        ds.y[idx],
    )


def sample_subset(ds: Dataset, size: int, num_features: int, trial_seed: int,
                  split_ratio: float = DEFAULT_SPLIT_RATIO) -> tuple[Dataset, Dataset]:
    """Draw a stratified subset of ``size`` rows and split it into train/test rows.

    Sampling is without replacement, preserves the label ratio within one
    sample on both the subset and the split, keeps the first
    ``num_features`` feature columns, and is a pure function of
    ``trial_seed``.  Every request it cannot draw is refused here: a ``size``,
    ``num_features`` or ``trial_seed`` that is not a whole count, a bad
    ``split_ratio``, more rows or features than ``ds`` holds, and a subset
    that cannot hold two rows of each class (so ``size`` >= 4).
    """
    check_int("size", size, 4)
    check_int("num_features", num_features, 1)
    check_int("trial_seed", trial_seed, 0)
    check_between("split_ratio", split_ratio, 0, 1)
    if size > len(ds):
        raise ValueError(f"subset size {size} exceeds dataset size {len(ds)}")
    if num_features > len(ds.feature_names):
        raise ValueError(f"{num_features} features requested, dataset has {len(ds.feature_names)}")
    rng = np.random.default_rng(trial_seed)
    pos = np.flatnonzero(ds.y == 1)
    neg = np.flatnonzero(ds.y == -1)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be present to stratify")
    n_pos = int(round(size * len(pos) / len(ds)))
    n_pos = min(max(n_pos, 2), len(pos), size - 2)
    n_neg = size - n_pos
    if n_pos < 2 or n_neg < 2 or n_neg > len(neg):
        raise ValueError("subset too small or too imbalanced to stratify")
    pos_pick = rng.permutation(pos)[:n_pos]
    neg_pick = rng.permutation(neg)[:n_neg]

    tr_pos = int(round(split_ratio * n_pos))
    tr_neg = int(round(split_ratio * n_neg))
    tr_pos = min(max(tr_pos, 1), n_pos - 1)
    tr_neg = min(max(tr_neg, 1), n_neg - 1)
    train_idx = np.concatenate([pos_pick[:tr_pos], neg_pick[:tr_neg]])
    test_idx = np.concatenate([pos_pick[tr_pos:], neg_pick[tr_neg:]])
    train_idx = train_idx[rng.permutation(len(train_idx))]
    test_idx = test_idx[rng.permutation(len(test_idx))]
    return _take(ds, train_idx, num_features), _take(ds, test_idx, num_features)


# --- synthetic generators -------------------------------------------------------

def _weekdays(start: date, count: int) -> list[date]:
    out: list[date] = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def synthetic_raw_series(seed: int, days: int = DEFAULT_DAYS) -> RawSeries:
    """Geometric random-walk index with a correlated gold series."""
    check_int("seed", seed)
    check_int("days", days, 2)
    rng = np.random.default_rng(mix64(seed, 0x53594E))
    z = rng.standard_normal(days + 1)
    w = rng.standard_normal(days + 1)
    idx_ret = 0.0002 + 0.012 * z
    gold_ret = 0.0001 + 0.009 * (0.35 * z + np.sqrt(1 - 0.35**2) * w)
    closes = 5000.0 * np.exp(np.cumsum(idx_ret))
    gold = 1500.0 * np.exp(np.cumsum(gold_ret))
    prev = np.concatenate([[5000.0], closes[:-1]])
    change = (closes / prev - 1.0) * 100.0
    o_noise = rng.standard_normal(days + 1) * 0.004
    spread = np.abs(rng.standard_normal(days + 1)) * 0.006
    opens = prev * np.exp(o_noise)
    highs = np.maximum(opens, closes) * np.exp(spread)
    lows = np.minimum(opens, closes) * np.exp(-spread)
    volume = 2e7 * np.exp(rng.standard_normal(days + 1) * 0.4)
    dates = _weekdays(_SYNTHETIC_START, days)
    keep = slice(1, days + 1)  # one warm-up day feeds the first change entry
    return RawSeries(tuple(dates), {
        "price": closes[keep], "open": opens[keep], "high": highs[keep], "low": lows[keep],
        "volume": volume[keep], "change_pct": change[keep], "gold_price": gold[keep],
    })


def synthetic_dataset(seed: int, days: int = DEFAULT_DAYS,
                      feature_columns: tuple[str, ...] = DEFAULT_FEATURES) -> Dataset:
    """Labeled dataset straight from the synthetic series."""
    return label_direction(synthetic_raw_series(seed, days), feature_columns=feature_columns)


_INFORMATIVE = 5  # features that carry quantum_separable_dataset's labels
_ANCHORS = 24  # fidelity-kernel bumps that define them


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array without NaNs, bit for bit: the mean of its middle one or two
    sorted values.  ``np.median`` itself imports ``numpy.ma`` on its first call (about 25 ms)."""
    n = len(values)
    return float(np.sort(values)[(n - 1) // 2 : n // 2 + 1].mean())


def quantum_separable_dataset(seed: int, rows: int = 460, num_features: int = 7) -> Dataset:
    """Binary dataset whose labels are realizable by a yyy kernel machine at default repetitions.

    Labels come from the sign of a signed sum of fidelity-kernel bumps
    around 24 random anchor points, thresholded at its median, over the first
    5 features; extra feature k is a jittered copy of feature k mod 5, so
    ``num_features`` is at least 5.  The classes are balanced, so an odd
    ``rows`` (at least 2) is rounded up: ``rows=21`` gives 22 rows.  The
    phase-periodic structure means Euclidean-distance kernels see little
    usable geometry.  Rows with the weakest margin are discarded to keep the
    classes crisp.
    """
    check_int("seed", seed)
    check_int("rows", rows, 2)
    check_int("num_features", num_features, _INFORMATIVE)
    if rows % 2:
        rows += 1
    rng = np.random.default_rng(mix64(seed, 0x515345))
    pool = max(int(rows * 2.5), rows + 16)
    base = rng.uniform(0.0, pi, size=(pool, _INFORMATIVE))
    anchor_x = rng.uniform(0.0, pi, size=(_ANCHORS, _INFORMATIVE))
    coeff = np.where(np.arange(_ANCHORS) % 2 == 0, 1.0, -1.0)
    # One batched simulation prepares every pool and anchor state.
    spec = FeatureMapSpec.from_preset("yyy", _INFORMATIVE)
    states = simulate(build_feature_map(spec, np.concatenate([base, anchor_x]))).amplitudes
    score = _fidelity(states[:pool], states[pool:]) @ coeff
    margin = score - _median(score)
    pos_idx = np.flatnonzero(margin > 0)
    neg_idx = np.flatnonzero(margin <= 0)
    pos_order = pos_idx[np.argsort(-margin[pos_idx], kind="stable")]
    neg_order = neg_idx[np.argsort(margin[neg_idx], kind="stable")]
    picked = np.concatenate([pos_order[: rows // 2], neg_order[: rows // 2]])
    picked = picked[rng.permutation(len(picked))]

    X = np.empty((rows, num_features))
    X[:, :_INFORMATIVE] = base[picked]
    for extra in range(_INFORMATIVE, num_features):
        jitter = rng.normal(0.0, 0.15, size=rows)
        X[:, extra] = np.clip(base[picked, extra % _INFORMATIVE] + jitter, 0.0, pi)
    labels = np.where(margin[picked] > 0, 1, -1).astype(np.int64)
    names = tuple(f"x{i}" for i in range(num_features))
    ids = tuple(f"r{i:04d}" for i in range(rows))
    dates = tuple(_weekdays(_SYNTHETIC_START, rows))
    return Dataset(names, ids, dates, X, labels)


# --- dataset file format ---------------------------------------------------------

DATASET_FORMAT = "qkslab-dataset"
DATASET_VERSION = "1.0"


def write_dataset(ds: Dataset, path) -> None:
    features, labels = ds.X.tolist(), ds.y.astype(np.int64).tolist()
    write_json({
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "feature_names": list(ds.feature_names),
        "rows": [
            {"id": ds.ids[i], "date": ds.dates[i].isoformat(), "features": features[i],
             "label": labels[i]}
            for i in range(len(ds))
        ],
    }, path)


def read_dataset(path) -> Dataset:
    """Read a dataset file; the ``scaling`` key of older files is ignored."""
    doc = read_json(path, DATASET_FORMAT, DATASET_VERSION)
    with fields(path):
        rows = doc["rows"]
        features, labels = [r["features"] for r in rows], [r["label"] for r in rows]
        # numpy reads true as 1 and truncates 1.5 to 1: check the JSON values themselves
        if {type(v) for v in labels} - {int} or not set(labels) <= {-1, 1}:
            raise ValueError("labels must be the integers -1 or +1")
        if {type(v) for row in features for v in row} - {int, float}:
            raise ValueError("features must be numbers")
        ids = tuple(r["id"] for r in rows)
        # ids label Gram rows and make up a trial's fingerprint
        if {type(v) for v in ids} - {str} or len(set(ids)) != len(ids):
            raise ValueError("row ids must be distinct strings")
        return Dataset(
            tuple(doc["feature_names"]),
            ids,
            tuple(date.fromisoformat(r["date"]) for r in rows),
            np.array(features, dtype=np.float64),
            np.array(labels, dtype=np.int64),
        )
