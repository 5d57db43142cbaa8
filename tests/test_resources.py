"""Tests for the closed-form resource model and its circuit verification."""
from dataclasses import replace

import pytest

from qkslab import feature_maps, resources
from qkslab.circuits import GateKind, h
from qkslab.resources import TABLE_HEADER, estimate, measure, verification_table


def test_closed_forms_at_f4_r1():
    est = estimate(4, 1)
    assert (est.h, est.rx, est.p, est.cx) == (4, 20, 7, 6)
    assert est.total == 37
    assert est.depth == 19
    assert est.qubits == 4


def test_closed_forms_at_f7_r1():
    est = estimate(7, 1)
    assert (est.h, est.rx, est.p, est.cx) == (7, 38, 13, 12)
    assert est.total == 70
    assert est.depth == 34
    assert est.qubits == 7


def test_repetitions_scale_counts_but_not_qubits():
    one = estimate(4, 1)
    two = estimate(4, 2)
    for field in ("h", "rx", "p", "cx", "total", "depth"):
        assert getattr(two, field) == 2 * getattr(one, field)
    assert two.qubits == one.qubits == 4


def test_argument_validation():
    with pytest.raises(ValueError):
        estimate(1, 1)
    with pytest.raises(ValueError):
        estimate(4, 0)


def test_verification_matches_at_f2_r1():
    measured = measure(2, 1)[0]
    assert estimate(2, 1) == measured
    assert measured.total == 15
    assert measured.depth == 9


@pytest.mark.parametrize("features", range(2, 11))
@pytest.mark.parametrize("reps", range(1, 4))
def test_verification_sweep(features, reps):
    assert estimate(features, reps) == measure(features, reps)[0]


def test_estimate_follows_the_builder(monkeypatch):
    blocks = feature_maps._blocks

    def with_extra_hadamard(spec, x):
        for block in blocks(spec, x):
            yield block
            if block[0].kind is GateKind.H:  # after each Hadamard wall
                yield [h(0)]

    monkeypatch.setattr(feature_maps, "_blocks", with_extra_hadamard)
    for features, reps in ((2, 1), (4, 2), (7, 3)):
        est = estimate(features, reps)
        assert est == measure(features, reps)[0]
        assert est.h == (features + 1) * reps


def test_linearity_in_repetitions_of_measured_circuits():
    base, _ = measure(6, 1)
    tripled, _ = measure(6, 3)
    for field in ("h", "rx", "p", "cx", "total", "depth"):
        assert getattr(tripled, field) == 3 * getattr(base, field)


def test_table_rows():
    rows = verification_table([2, 4], [1, 2])
    assert len(rows) == 4
    assert len(rows[0]) == len(TABLE_HEADER)
    assert all(row[-1] for row in rows)  # every point verifies
    est, graph_depth = estimate(4, 2), measure(4, 2)[1]
    assert rows[-1] == (4, 2, est.qubits, est.h, est.rx, est.p, est.cx, est.total, est.depth,
                        graph_depth, True)


def test_table_reports_a_mismatch(monkeypatch):
    monkeypatch.setattr(resources, "estimate", lambda f, r: replace(estimate(f, r), depth=0))
    assert [row[-1] for row in resources.verification_table([3], [1, 2])] == [False, False]
