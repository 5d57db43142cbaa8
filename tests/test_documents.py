"""Tests for the two rules every numeric setting passes: ``check_int`` and ``check_between``."""
import math
import re

import numpy as np
import pytest

from qkslab.data import quantum_separable_dataset, sample_subset, synthetic_dataset, synthetic_raw_series
from qkslab.documents import check_between, check_int
from qkslab.experiment import ConfigPoint, run_sweep, variability_study
from qkslab.kernels import quantum_config, rbf_config


@pytest.mark.parametrize("value, least", [(0, None), (-3, None), (1, 1), (7, 2)])
def test_check_int_returns_an_int_at_its_bound(value, least):
    assert check_int("n", value, least) is value


@pytest.mark.parametrize("value, least, refused", [
    (True, None, "n must be an integer, got True"),
    (1.0, None, "n must be an integer, got 1.0"),
    (np.int64(3), 1, "n must be an integer >= 1, got np.int64(3)"),
    ("3", 1, "n must be an integer >= 1, got '3'"),
    (1, 2, "n must be an integer >= 2, got 1"),
])
def test_check_int_refuses_what_is_not_a_whole_count(value, least, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        check_int("n", value, least)


@pytest.mark.parametrize("value", [0.5, 1e-300, 2, np.float64(0.25)])
def test_check_between_returns_a_number_inside(value):
    assert check_between("x", value, 0, 3) is value


@pytest.mark.parametrize("value, high, refused", [
    (0, 1, "x must be a number in (0, 1), got 0"),
    (1.0, 1, "x must be a number in (0, 1), got 1.0"),
    (True, 1, "x must be a number in (0, 1), got True"),
    (math.nan, math.inf, "x must be a number in (0, inf), got nan"),
    (math.inf, math.inf, "x must be a number in (0, inf), got inf"),
    ("0.5", math.inf, "x must be a number in (0, inf), got '0.5'"),
])
def test_check_between_refuses_what_lies_outside(value, high, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        check_between("x", value, 0, high)


def _sweep(kernel):
    return lambda ds: run_sweep(ds, [(2, 30)], [kernel()], 1, 5)


# Each setting, if let through, fails late (after trials ran) or writes a wrong value.
@pytest.mark.parametrize("run, setting", [
    (_sweep(lambda: quantum_config("z", 2, shots=2.5)), "shots"),  # entries above 1
    (_sweep(lambda: quantum_config("z", 2, shots=True)), "shots"),  # written as JSON true
    (_sweep(lambda: quantum_config("z", 2, shots="8")), "shots"),  # a TypeError at the cap
    (_sweep(lambda: quantum_config("z", 2, repetitions=True)), "repetitions"),
    (_sweep(lambda: rbf_config(master_seed=True)), "master_seed"),
    (_sweep(lambda: quantum_config("z", 2, shots=8, master_seed=1.5)), "master_seed"),  # TypeError in mix64
    (_sweep(lambda: quantum_config("z", 2, repetitions=np.int64(1))), "repetitions"),  # JSON cannot hold it
    (_sweep(lambda: quantum_config("z", 2, repetitions=2.0)), "repetitions"),
    (lambda ds: variability_study(ds, ConfigPoint(2, 30), rbf_config(), 3, 5, bins=2.5), "bins"),
    (lambda ds: synthetic_raw_series(1, days=100.5), "days"),
    (lambda ds: synthetic_raw_series(1.5, days=50), "seed"),  # TypeError in mix64
    (lambda ds: synthetic_raw_series(True, days=50), "seed"),
    (lambda ds: quantum_separable_dataset(1, rows=2.5, num_features=5), "rows"),  # TypeError
    (lambda ds: quantum_separable_dataset(1, rows=-4, num_features=5), "rows"),  # numpy's error
    (lambda ds: quantum_separable_dataset(1, rows=0, num_features=5), "rows"),
    (lambda ds: quantum_separable_dataset(1, rows=True, num_features=5), "rows"),
    (lambda ds: quantum_separable_dataset(1.5, rows=20, num_features=5), "seed"),
    (lambda ds: sample_subset(ds, 30.5, 2, 1), "size"),  # TypeError from slicing
    (lambda ds: sample_subset(ds, True, 2, 1), "size"),  # the stratification message
    (lambda ds: sample_subset(ds, 30, 2.0, 1), "num_features"),
    (lambda ds: sample_subset(ds, 30, 2, 1.5), "trial_seed"),  # TypeError in SeedSequence
], ids=["shots-float", "shots-true", "shots-string", "repetitions-true", "kernel-seed-true",
        "kernel-seed-float", "repetitions-numpy", "repetitions-float", "bins-float", "days-float",
        "series-seed-float", "series-seed-true", "separable-rows-float", "separable-rows-negative",
        "separable-rows-zero", "separable-rows-true", "separable-seed-float", "subset-size-float",
        "subset-size-true", "subset-features-float", "subset-trial-seed-float"])
def test_a_malformed_setting_is_refused_before_any_work(monkeypatch, run, setting):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the setting was checked")

    monkeypatch.setattr("qkslab.experiment.cell", no_work)
    monkeypatch.setattr("qkslab.kernels._gram", no_work)
    ds = synthetic_dataset(1, days=80)
    with pytest.raises(ValueError, match=f"^{setting} must be an integer"):
        run(ds)
