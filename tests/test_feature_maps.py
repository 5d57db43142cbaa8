"""Tests for feature-map construction: angles, structure, counts, presets."""
from collections import Counter
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkslab.circuits import Circuit, GateKind, dag_depth
from qkslab.feature_maps import PRESETS, FeatureMapSpec, build_feature_map, sequential_depth
from qkslab.simulator import simulate

from oracles import inverse


def _counts(circuit) -> Counter:
    return Counter(g.kind for g in circuit.gates)


# --- phase angles ---

def _phases(preset: str, x, reps: int = 1) -> list[tuple[float, int]]:
    """(angle, qubit) of each P gate of the built map, in circuit order."""
    c = build_feature_map(FeatureMapSpec.from_preset(preset, len(x), reps), np.array(x))
    return [(g.angle, g.qubits[0]) for g in c.gates if g.kind is GateKind.P]


def test_single_angle_examples():
    assert _phases("z", [0.7, 0.1]) == [(pytest.approx(1.4), 0), (pytest.approx(0.2), 1)]
    assert _phases("z", [0.0, 2.0]) == [(0.0, 0), (4.0, 1)]
    assert _phases("z", [pi, 0.3]) == [(pytest.approx(2 * pi), 0), (pytest.approx(0.6), 1)]


def test_pair_angle_examples():
    # the pair phase sits on the pair's second qubit
    assert _phases("zz", [0.0, 0.0]) == [(pytest.approx(2 * pi**2), 1)]
    assert _phases("zz", [pi, 1.0]) == [(pytest.approx(0.0), 1)]
    # independent one-line evaluation of 2*(pi-1)*(pi-2)
    assert _phases("zz", [1.0, 2.0]) == [(pytest.approx(2 * (pi - 1) * (pi - 2)), 1)]


@settings(max_examples=60, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), reps=st.integers(1, 3), data=st.data())
def test_phase_angles_follow_the_map_formulas_in_circuit_order(preset, reps, data):
    lo = 1 if all(len(layer) == 1 for layer in PRESETS[preset]) else 2
    f = data.draw(st.integers(lo, 8))
    x = data.draw(st.lists(st.floats(-2 * pi, 2 * pi), min_size=f, max_size=f))
    expected = []
    for _ in range(reps):
        for layer in PRESETS[preset]:
            if len(layer) == 1:
                expected += [(2 * x[j], j) for j in range(f)]
            else:
                expected += [(2 * (pi - x[j]) * (pi - x[j + 1]), j + 1) for j in range(f - 1)]
    assert _phases(preset, x, reps) == expected  # bit for bit, as Python scalars


# --- construction ---

def test_yyy_f2_r1_gate_census():
    spec = FeatureMapSpec(("Y", "YY"), 2, 1)
    c = build_feature_map(spec, np.array([0.7, 0.3]))
    counts = _counts(c)
    assert counts[GateKind.H] == 2
    assert counts[GateKind.RX] == 8
    assert counts[GateKind.P] == 3
    assert counts[GateKind.CX] == 2
    assert len(c.gates) == 15
    assert sequential_depth(spec) == 9


def test_z_preset_single_qubit_structure():
    c = build_feature_map(FeatureMapSpec(("Z",), 1, 1), np.array([0.8]))
    assert [(g.kind, g.qubits) for g in c.gates] == [(GateKind.H, (0,)), (GateKind.P, (0,))]
    assert c.gates[1].angle == pytest.approx(1.6)


def test_yyy_f4_r1_block_depth():
    assert sequential_depth(FeatureMapSpec(("Y", "YY"), 4, 1)) == 19


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("reps", range(1, 4))
def test_layer_table_depth_is_dag_depth_at_two_features(preset, reps):
    # one adjacent pair: no two pair blocks can overlap in the dependency graph
    spec = FeatureMapSpec.from_preset(preset, 2, reps)
    assert dag_depth(build_feature_map(spec, np.array([0.4, 1.9]))) == sequential_depth(spec)


# Sequential depth of each layer: once per repetition for the H wall and
# single-qubit layers, once per adjacent pair for pair layers.
_LAYER_DEPTH = {"H": 1, "Z": 1, "Y": 3, "ZZ": 3, "YY": 5}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("features", range(2, 9))
@pytest.mark.parametrize("reps", range(1, 4))
def test_sequential_depth_per_layer_formula(preset, features, reps):
    spec = FeatureMapSpec.from_preset(preset, features, reps)
    per_rep = _LAYER_DEPTH["H"] + sum(
        _LAYER_DEPTH[layer] * (1 if len(layer) == 1 else features - 1) for layer in PRESETS[preset])
    assert sequential_depth(spec) == reps * per_rep


@pytest.mark.parametrize("features", range(2, 11))
@pytest.mark.parametrize("reps", range(1, 4))
def test_yyy_count_formulas(features, reps):
    spec = FeatureMapSpec(("Y", "YY"), features, reps)
    c = build_feature_map(spec, np.zeros(features))
    counts = _counts(c)
    assert counts[GateKind.H] == features * reps
    assert counts[GateKind.RX] == (6 * features - 4) * reps
    assert counts[GateKind.P] == (2 * features - 1) * reps
    assert counts[GateKind.CX] == (2 * features - 2) * reps
    assert len(c.gates) == (11 * features - 7) * reps
    assert sequential_depth(spec) == (5 * features - 1) * reps
    assert c.num_qubits == features  # independent of reps


# Per repetition, as functions of F: (H, RX, P, CX, total, sequential depth).
_PRESET_FORMS = {
    "z": lambda f: (f, 0, f, 0, 2 * f, 2),
    "zz": lambda f: (f, 0, f - 1, 2 * f - 2, 4 * f - 3, 3 * f - 2),
    "yyy": lambda f: (f, 6 * f - 4, 2 * f - 1, 2 * f - 2, 11 * f - 7, 5 * f - 1),
    "yzz": lambda f: (f, 2 * f, 2 * f - 1, 2 * f - 2, 7 * f - 3, 3 * f + 1),
    "zzz": lambda f: (f, 0, 2 * f - 1, 2 * f - 2, 5 * f - 3, 3 * f - 1),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("reps", range(1, 4))
def test_preset_count_forms(preset, reps):
    lo = 1 if preset == "z" else 2
    for features in range(lo, 11):
        spec = FeatureMapSpec.from_preset(preset, features, reps)
        c = build_feature_map(spec, np.zeros(features))
        counts = _counts(c)
        tally = (counts[GateKind.H], counts[GateKind.RX], counts[GateKind.P], counts[GateKind.CX],
                 len(c.gates), sequential_depth(spec))
        assert tally == tuple(reps * v for v in _PRESET_FORMS[preset](features)), features


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_gate_sequence_does_not_depend_on_data(preset):
    spec = FeatureMapSpec.from_preset(preset, 5, 2)
    a, b = (build_feature_map(spec, x) for x in (np.linspace(0, 3, 5), np.linspace(-1, 1, 5)))
    assert a.gates != b.gates  # the angles do follow the data
    assert [(g.kind, g.qubits) for g in a.gates] == [(g.kind, g.qubits) for g in b.gates]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_build_and_z_has_no_basis_changes(preset):
    f = 1 if preset == "z" else 3
    c = build_feature_map(FeatureMapSpec.from_preset(preset, f, 2), np.linspace(0.1, 2.0, f))
    counts = _counts(c)
    if preset in ("z", "zz", "zzz"):
        assert counts[GateKind.RX] == 0
    if preset == "z":
        assert counts[GateKind.CX] == 0


def test_preset_table_is_distinct():
    assert PRESETS["zz"] != PRESETS["zzz"]
    assert len({layers for layers in PRESETS.values()}) == 5


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec(("X",), 2, 1)
    with pytest.raises(ValueError):
        FeatureMapSpec(("Y", "YY"), 1, 1)  # pair layer needs >= 2 features
    with pytest.raises(ValueError):
        FeatureMapSpec(("Z",), 2, 0)
    with pytest.raises(ValueError):
        FeatureMapSpec.from_preset("nope", 2)
    with pytest.raises(ValueError):
        build_feature_map(FeatureMapSpec(("Z",), 2, 1), np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    reps=st.integers(1, 3),
    data=st.data(),
)
def test_built_states_are_normalized(preset, reps, data):
    f = data.draw(st.integers(2, 4))
    x = np.array(data.draw(st.lists(st.floats(0, pi), min_size=f, max_size=f)))
    state = simulate(build_feature_map(FeatureMapSpec.from_preset(preset, f, reps), x))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    reps=st.integers(1, 2),
    data=st.data(),
)
def test_adjoint_round_trip_restores_zero_state(reps, data):
    f = data.draw(st.integers(2, 4))
    x = np.array(data.draw(st.lists(st.floats(0, pi), min_size=f, max_size=f)))
    c = build_feature_map(FeatureMapSpec(("Y", "YY"), f, reps), x)
    state = simulate(Circuit(f, c.gates + inverse(c).gates))
    assert abs(state.amplitudes[0] - 1.0) < 1e-10
    assert np.all(np.abs(state.amplitudes[1:]) < 1e-10)
