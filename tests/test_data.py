"""Tests for ingestion, labeling, scaling, subsets, and the generators."""
import hashlib
import os
import re
import subprocess
import sys
import warnings
from datetime import date
from math import pi
from pathlib import Path

import numpy as np
import pytest

import qkslab
from qkslab.data import (DEFAULT_FEATURES, Dataset, ParseError, RawSeries, _median, ingest,
                         label_direction, quantum_separable_dataset, read_dataset, sample_subset,
                         scale_split, synthetic_dataset, synthetic_raw_series, write_dataset)
from qkslab.documents import write_json

from synthetic_csvs import write_synthetic_csvs


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


INDEX_HEADER = '"Date","Price","Open","High","Low","Vol.","Change %"\n'


def _index_csv(tmp_path, rows, name="index.csv"):
    return _write(tmp_path / name, INDEX_HEADER + "".join(rows))


def _gold_csv(tmp_path, rows, name="gold.csv"):
    return _write(tmp_path / name, '"Date","Price"\n' + "".join(rows))


# --- ingestion ---

def test_join_forward_fills_gold(tmp_path):
    idx = _index_csv(tmp_path, [
        '"01/02/2018","5,100.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
        '"01/03/2018","5,050.00","5,100.00","5,110.00","5,040.00","854.30K","-0.98%"\n',
        '"01/04/2018","5,080.00","5,050.00","5,090.00","5,045.00","1.05M","0.59%"\n',
    ])
    gold = _gold_csv(tmp_path, [
        '"01/02/2018","1500.00"\n',
        '"01/04/2018","1510.00"\n',
    ])
    series = ingest(idx, gold)
    assert series.dates == (date(2018, 1, 2), date(2018, 1, 3), date(2018, 1, 4))
    np.testing.assert_allclose(series.columns["gold_price"], [1500.0, 1500.0, 1510.0])
    np.testing.assert_allclose(series.columns["price"], [5100.0, 5050.0, 5080.0])
    np.testing.assert_allclose(series.columns["volume"], [1.2e6, 854300.0, 1.05e6])
    np.testing.assert_allclose(series.columns["change_pct"], [0.45, -0.98, 0.59])


def test_rows_before_first_gold_date_drop_out(tmp_path):
    idx = _index_csv(tmp_path, [
        '"01/02/2018","5,100.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
        '"01/03/2018","5,050.00","5,100.00","5,110.00","5,040.00","1.00M","-0.98%"\n',
    ])
    gold = _gold_csv(tmp_path, ['"01/03/2018","1500.00"\n'])
    series = ingest(idx, gold)
    assert series.dates == (date(2018, 1, 3),)


def test_descending_input_is_sorted(tmp_path):
    idx = _index_csv(tmp_path, [
        '"01/03/2018","5,050.00","5,100.00","5,110.00","5,040.00","1.00M","-0.98%"\n',
        '"01/02/2018","5,100.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
    ])
    gold = _gold_csv(tmp_path, ['"01/01/2018","1500.00"\n'])
    series = ingest(idx, gold)
    assert series.dates[0] < series.dates[1]


def test_disjoint_ranges_error(tmp_path):
    idx = _index_csv(tmp_path, [
        '"01/02/2018","5,100.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
    ])
    gold = _gold_csv(tmp_path, ['"06/01/2019","1500.00"\n'])
    with pytest.raises(ParseError, match="empty join"):
        ingest(idx, gold)


def test_malformed_rows_carry_line_numbers(tmp_path):
    idx = _index_csv(tmp_path, [
        '"01/02/2018","5,100.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
        '"01/03/2018","oops","5,100.00","5,110.00","5,040.00","1.00M","-0.98%"\n',
    ])
    gold = _gold_csv(tmp_path, ['"01/01/2018","1500.00"\n'])
    with pytest.raises(ParseError, match=r"index\.csv:3"):
        ingest(idx, gold)
    bad_gold = _gold_csv(tmp_path, ['"01/01/2018","15,0u0.00"\n'], name="gold2.csv")
    with pytest.raises(ParseError, match=r"gold2\.csv:2"):
        ingest(idx.parent / "index.csv", bad_gold) if False else ingest(
            _index_csv(tmp_path, [
                '"01/02/2018","5,100.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
            ], name="index2.csv"), bad_gold)


def test_duplicate_dates_rejected(tmp_path):
    idx = _index_csv(tmp_path, [
        '"01/02/2018","5,100.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
        '"01/02/2018","5,101.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
    ])
    gold = _gold_csv(tmp_path, ['"01/01/2018","1500.00"\n'])
    with pytest.raises(ParseError, match="duplicate date"):
        ingest(idx, gold)


_INDEX_ROW = ["01/03/2018", "5,050.00", "5,100.00", "5,110.00", "5,040.00", "1.00M", "-0.98%"]


@pytest.mark.parametrize("csv, field, token", [
    ("index", 1, "nan"), ("index", 2, "inf"), ("index", 3, "-Infinity"), ("index", 5, "NaNM"),
    ("index", 6, "inf%"), ("gold", 1, "nan"),
], ids=["price-nan", "open-inf", "high-minus-infinity", "volume-nan", "change-inf", "gold-nan"])
def test_non_finite_csv_cells_are_refused_with_their_line(tmp_path, csv, field, token):
    row = list(_INDEX_ROW) if csv == "index" else ["01/03/2018", "1500.00"]
    row[field] = token
    bad = '"' + '","'.join(row) + '"\n'
    idx = _index_csv(tmp_path, [
        '"01/02/2018","5,100.00","5,090.00","5,120.00","5,080.00","1.20M","0.45%"\n',
        bad if csv == "index" else '"' + '","'.join(_INDEX_ROW) + '"\n',
    ])
    gold = _gold_csv(tmp_path, ['"01/01/2018","1500.00"\n', bad if csv == "gold" else ""])
    path = idx if csv == "index" else gold
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: non-finite number"):
        ingest(idx, gold)


@pytest.mark.parametrize("prices, line", [
    (("0", "1510.00", "1520.00"), 2), (("1500.00", "0.00", "1510.00", "1520.00"), 3),
    (("1500.00", "-1,510.00", "1520.00"), 3),
], ids=["zero-first-joined-price", "zero-mid-series", "negative"])
def test_a_non_positive_gold_price_is_refused_with_its_line(tmp_path, prices, line):
    # gold_change divides by the previous gold price: a zero there is an infinite feature, and a
    # zero first joined price would silently start the labels a row late
    idx = _index_csv(tmp_path, [f'"01/0{day}/2018","5,050.00","5,100.00","5,110.00","5,040.00",'
                                '"1.00M","-0.98%"\n' for day in range(2, 6)])
    gold = _gold_csv(tmp_path, [f'"01/0{day}/2018","{price}"\n'
                                for day, price in enumerate(prices, start=6 - len(prices))])
    with pytest.raises(ParseError, match=f"^{re.escape(str(gold))}:{line}: non-positive price"):
        ingest(idx, gold)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_features_are_refused(value):
    with pytest.raises(ValueError, match="non-finite"):
        _series([1.0, 2.0], open=[1.0, value])
    with pytest.raises(ValueError, match="features must be finite"):
        Dataset(("x0",), ("a", "b"), (date(2018, 1, 2), date(2018, 1, 3)),
                np.array([[0.5], [value]]), np.array([1, -1]))


@pytest.mark.parametrize("token, error", [
    ("NaN", "{path}: not a JSON document"), ("-Infinity", "{path}: not a JSON document"),
    ("1e999", "malformed {path}: features must be finite"),  # a float literal that overflows
])
def test_dataset_files_with_non_finite_features_are_refused(tmp_path, token, error):
    path = tmp_path / "ds.json"
    path.write_text('{"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0"], '
                    '"rows": [{"id": "a", "date": "2018-01-02", "features": [0.5], "label": 1}, '
                    f'{{"id": "b", "date": "2018-01-03", "features": [{token}], "label": -1}}]}}')
    with pytest.raises(ValueError, match="^" + re.escape(error.format(path=path))):
        read_dataset(path)


@pytest.mark.parametrize("second_id", ["5", '"a"'], ids=["integer-id", "repeated-id"])
def test_dataset_files_with_bad_row_ids_are_refused(tmp_path, second_id):
    path = tmp_path / "ds.json"
    path.write_text('{"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0"], '
                    '"rows": [{"id": "a", "date": "2018-01-02", "features": [0.5], "label": 1}, '
                    f'{{"id": {second_id}, "date": "2018-01-03", "features": [1.5], "label": -1}}]}}')
    error = f"malformed {path}: row ids must be distinct strings"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        read_dataset(path)


def test_files_are_strict_json(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"format": "x", "value": 1.5}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json({"a": 1, "format": "x", "value": float("nan")}, path)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json({"format": "x", "value": float("inf")}, tmp_path / "new.json")
    assert path.read_bytes() == before  # a refused document leaves the file as it was
    assert not (tmp_path / "new.json").exists()


# --- labeling ---

def _series(closes, **extra):
    from datetime import timedelta

    n = len(closes)
    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(n))
    cols = {"price": np.asarray(closes, dtype=np.float64)}
    cols.update({k: np.asarray(v, dtype=np.float64) for k, v in extra.items()})
    return RawSeries(dates, cols)


def test_direction_labels_with_tie_rule():
    series = _series([100.0, 101.0, 101.0, 99.0])
    ds = label_direction(series, feature_columns=("price_lag1",))
    assert list(ds.y) == [1, -1, -1]
    assert ds.ids == ("r0001", "r0002", "r0003")
    np.testing.assert_allclose(ds.X[:, 0], [100.0, 101.0, 101.0])


def test_monotone_rise_is_all_positive():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-class dataset warns
        ds = label_direction(_series([1.0, 2.0, 3.0, 4.0]), feature_columns=("price_lag1",))
    assert np.all(ds.y == 1)


def test_single_row_errors():
    with pytest.raises(ValueError):
        label_direction(_series([100.0]), feature_columns=("price_lag1",))


def test_label_count_property():
    series = _series(list(np.random.default_rng(3).uniform(90, 110, 50)))
    ds = label_direction(series, feature_columns=("price_lag1",))
    assert len(ds) == 49
    assert int(np.sum(ds.y == 1)) + int(np.sum(ds.y == -1)) == 49


def test_unlagged_close_columns_warn():
    series = _series([100.0, 101.0, 99.0], change_pct=[0.1, 1.0, -1.98])
    with pytest.warns(RuntimeWarning, match="reveal"):
        label_direction(series, feature_columns=("index_change",))


def test_raw_change_pct_leaks_the_label_and_warns():
    with pytest.warns(RuntimeWarning, match=r"\['change_pct'\] reveal"):
        ds = synthetic_dataset(11, days=200, feature_columns=("change_pct",))
    assert len(ds) == 199
    np.testing.assert_array_equal(np.where(ds.X[:, 0] > 0, 1, -1), ds.y)


def test_lagged_index_change_uses_previous_row():
    series = _series([100.0, 101.0, 99.0], change_pct=[0.1, 1.0, -1.98])
    ds = label_direction(series, feature_columns=("index_change_lag1",))
    np.testing.assert_allclose(ds.X[:, 0], [0.1, 1.0])


_RAW = {"open": [10.0, 11.0, 12.0], "high": [11.0, 12.0, 13.0], "low": [9.0, 10.0, 11.0],
        "volume": [1e6, 2e6, 3e6], "change_pct": [0.5, 1.0, -1.98],
        "gold_price": [1500.0, 1510.0, 1490.0]}
_FROM_ROW_1 = [("price",), ("open",), ("high",), ("low",), ("volume",), ("change_pct",),
               ("gold_price",), ("index_change",), ("index_change_lag1",), ("gold_change",),
               ("price_lag1",), DEFAULT_FEATURES]
_FROM_ROW_2 = [("gold_change_lag1",), (*DEFAULT_FEATURES, "gold_change_lag1")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # leaky columns and one-class results
@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("columns", _FROM_ROW_1 + _FROM_ROW_2, ids=lambda c: "+".join(c))
def test_labeling_starts_at_the_first_row_every_selected_column_defines(rows, columns):
    series = _series([100.0, 101.0, 99.0][:rows], **{k: v[:rows] for k, v in _RAW.items()})
    ds = label_direction(series, feature_columns=columns)
    expected = {(2, True): ("r0001",), (3, True): ("r0001", "r0002"),
                (2, False): (), (3, False): ("r0002",)}[(rows, columns in _FROM_ROW_1)]
    assert ds.ids == expected
    assert list(ds.y) == [{"r0001": 1, "r0002": -1}[i] for i in expected]
    assert ds.X.shape == (len(expected), len(columns))


def test_unknown_feature_column_errors():
    with pytest.raises(ValueError, match="unknown feature columns"):
        label_direction(_series([1.0, 2.0]), feature_columns=("nope",))


# --- scaling ---

def _column(*values) -> Dataset:
    """A one-feature split holding ``values``, labelled +1, -1, +1, ..."""
    n = len(values)
    return Dataset(("x0",), tuple(f"r{i}" for i in range(n)), (date(2018, 1, 2),) * n,
                   np.array(values, dtype=np.float64).reshape(n, 1), np.resize([1, -1], n))


def test_min_max_scaling_examples():
    train, test = scale_split(_column(2.0, 4.0, 6.0), _column(0.0, 99.0))
    np.testing.assert_allclose(train.X.ravel(), [0.0, pi / 2, pi])
    np.testing.assert_allclose(test.X.ravel(), [0.0, pi])  # out-of-range test values clamp
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a one-row split holds one label class
        const, probe = scale_split(_column(5.0, 5.0, 5.0), _column(5.0))
    np.testing.assert_allclose(const.X.ravel(), [pi / 2] * 3)  # a constant feature maps to pi/2
    np.testing.assert_allclose(probe.X.ravel(), [pi / 2])


def test_scale_split_refuses_an_empty_training_split():
    with pytest.raises(ValueError, match="empty split"):
        scale_split(_column(), _column(1.0, 2.0))


def test_scaling_never_sees_the_test_split():
    ds = synthetic_dataset(1, days=80)
    train, test = sample_subset(ds, 60, 4, 99)
    strain, stest = scale_split(train, test)
    lo, hi = train.X.min(axis=0), train.X.max(axis=0)
    np.testing.assert_array_equal(stest.X, np.clip((test.X - lo) / (hi - lo) * pi, 0.0, pi))
    other, _ = scale_split(train, sample_subset(ds, 60, 4, 5)[1])
    np.testing.assert_array_equal(strain.X, other.X)  # the training split alone sets the range
    assert strain.X.min() >= 0.0 and strain.X.max() <= pi
    assert stest.X.min() >= 0.0 and stest.X.max() <= pi  # clamped
    assert strain.X.max() == pytest.approx(pi)


# --- subsets ---

def test_full_size_subset_is_a_permutation():
    ds = synthetic_dataset(2, days=60)
    train, test = sample_subset(ds, len(ds), len(ds.feature_names), 7)
    assert sorted(train.ids + test.ids) == sorted(ds.ids)


def test_subset_determinism():
    ds = synthetic_dataset(3, days=100)
    a = sample_subset(ds, 50, 5, 1234)
    b = sample_subset(ds, 50, 5, 1234)
    assert a[0].ids == b[0].ids and a[1].ids == b[1].ids
    assert np.array_equal(a[0].X, b[0].X)


def test_subset_takes_first_features():
    ds = synthetic_dataset(4, days=80)
    train, _ = sample_subset(ds, 40, 3, 5)
    assert train.feature_names == ds.feature_names[:3]
    assert train.X.shape[1] == 3


def test_stratification_preserves_label_ratio():
    rng = np.random.default_rng(8)
    n = 460
    labels = np.array([1] * 253 + [-1] * 207)  # 55/45
    ds = Dataset(("a", "b"), tuple(f"r{i}" for i in range(n)),
                 tuple(date(2019, 1, 1) for _ in range(n)),
                 rng.uniform(0, 1, (n, 2)), labels)
    for trial in range(100):
        train, test = sample_subset(ds, 200, 2, trial)
        frac = float(np.mean(train.y == 1))
        assert abs(frac - 0.55) <= 0.02
        assert set(np.unique(train.y)) == {-1, 1}
        assert set(np.unique(test.y)) == {-1, 1}


def test_subset_validation():
    ds = synthetic_dataset(5, days=40)
    with pytest.raises(ValueError):
        sample_subset(ds, 10_000, 2, 1)
    with pytest.raises(ValueError):
        sample_subset(ds, 20, 99, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-class dataset warns at construction
        single = Dataset(("a",), ("r0", "r1", "r2", "r3"),
                         tuple(date(2019, 1, 1) for _ in range(4)),
                         np.zeros((4, 1)), np.array([1, 1, 1, 1]))
        with pytest.raises(ValueError):
            sample_subset(single, 4, 1, 1)


# --- generators and files ---

def test_synthetic_series_is_deterministic():
    a = synthetic_raw_series(11, days=50)
    b = synthetic_raw_series(11, days=50)
    assert a.dates == b.dates
    for name in a.columns:
        np.testing.assert_array_equal(a.columns[name], b.columns[name])
    c = synthetic_raw_series(12, days=50)
    assert not np.array_equal(a.columns["price"], c.columns["price"])


def test_synthetic_dataset_shape_and_default_columns():
    ds = synthetic_dataset(13, days=120)
    assert len(ds) == 119  # labeling consumes the first row
    assert ds.feature_names == DEFAULT_FEATURES
    assert set(np.unique(ds.y)) == {-1, 1}


def test_synthetic_csvs_ingest_cleanly(tmp_path):
    write_synthetic_csvs(tmp_path / "idx.csv", tmp_path / "gold.csv", 17, days=90)
    series = ingest(tmp_path / "idx.csv", tmp_path / "gold.csv")
    assert len(series) == 90  # gold starts earlier, so no index rows drop
    ds = label_direction(series)
    assert len(ds) == 89
    assert ds.X.shape == (89, 7)


def test_quantum_separable_dataset_properties():
    ds = quantum_separable_dataset(19, rows=60, num_features=7)
    assert len(ds) == 60
    assert int(np.sum(ds.y == 1)) == 30
    assert ds.X.min() >= 0.0 and ds.X.max() <= pi
    again = quantum_separable_dataset(19, rows=60, num_features=7)
    np.testing.assert_array_equal(ds.X, again.X)
    np.testing.assert_array_equal(ds.y, again.y)
    assert len(quantum_separable_dataset(19, rows=21, num_features=5)) == 22  # balanced classes


def test_quantum_separable_dataset_cycles_its_informative_features():
    narrow = quantum_separable_dataset(19, rows=40, num_features=7)
    wide = quantum_separable_dataset(19, rows=40, num_features=18)  # extra feature k copies k mod 5
    np.testing.assert_array_equal(wide.X[:, :7], narrow.X)
    np.testing.assert_array_equal(wide.y, narrow.y)


@pytest.mark.parametrize("seed, sha256", [
    (1, "422d5946be27d8ce2da723d808ba7a5f9101f2cce45ee5ad861a7764e7d47e31"),
    (2, "8bae23662ee4b6e8f19a09cb5d41d8586a984a73fb4e3e5923581415ca799bd1"),
    (3, "1d533d2f448c62b7e7057af100d711f70dd048f48b09bf9cd56b6d5d0ae8663a"),
])
def test_quantum_separable_dataset_file_bytes_are_pinned(tmp_path, seed, sha256):
    # The bench's set-up inputs, as the per-row states scored them: the bytes depend only on
    # numpy's seeded draws and on the order of the margins, not on the host's SIMD level.
    path = tmp_path / "separable.json"
    write_dataset(quantum_separable_dataset(seed, rows=460, num_features=7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("n", [*range(1, 61), 1150, 1151])
def test_the_median_threshold_is_numpys_median(n):
    values = np.random.default_rng(n).standard_normal(n)
    assert _median(values) == np.median(values)
    ties = np.round(values, 1)
    assert _median(ties) == np.median(ties)


def test_a_separable_dataset_leaves_numpy_ma_unimported():
    # np.median imports numpy.ma on its first call, about 25 ms of every fresh bench set-up
    code = ("import sys; from qkslab.data import quantum_separable_dataset; "
            "quantum_separable_dataset(1, rows=40); print('numpy.ma' in sys.modules)")
    src = str(Path(qkslab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


def test_dataset_file_round_trip(tmp_path):
    ds = synthetic_dataset(23, days=40)
    train, test = sample_subset(ds, 30, 4, 3)
    strain, _ = scale_split(train, test)
    path = tmp_path / "ds.json"
    write_dataset(strain, path)
    back = read_dataset(path)
    assert back.ids == strain.ids
    assert back.dates == strain.dates
    assert back.feature_names == strain.feature_names
    np.testing.assert_array_equal(back.X, strain.X)  # value-exact
    np.testing.assert_array_equal(back.y, strain.y)


def test_dataset_file_with_a_scaling_key_still_reads(tmp_path):
    # Files written before the scaling field was dropped carry "scaling": null.
    path = tmp_path / "old.json"
    path.write_text('{"format": "qkslab-dataset", "version": "1.0", "feature_names": ["x0"], '
                    '"scaling": null, "rows": [{"id": "r0001", "date": "2018-01-03", '
                    '"features": [0.5], "label": 1}, {"id": "r0002", "date": "2018-01-04", '
                    '"features": [1.5], "label": -1}]}')
    ds = read_dataset(path)
    assert ds.ids == ("r0001", "r0002")
    np.testing.assert_array_equal(ds.X, [[0.5], [1.5]])
    np.testing.assert_array_equal(ds.y, [1, -1])


def test_dataset_file_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": "1.0"}')
    with pytest.raises(ValueError):
        read_dataset(path)
