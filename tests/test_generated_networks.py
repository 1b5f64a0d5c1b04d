"""Properties of the two-pulse simulation and the design sweep on
generated RC networks: random ladders with random bridges, conductances
and capacities, not just the two bundled buildings."""
from __future__ import annotations

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qubdoe as q
from conftest import assert_matches_reference
from oracles import reference_sweep, stamped_steady_state

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)


@st.composite
def documents(draw):
    """A connected network: a ladder from the boundary through n capacitive
    nodes, optional bridges between non-adjacent rungs and to the
    boundary, one or two heaters (possibly on one node); returned as a
    building document with one or two distinct sensor nodes.  The
    document may carry a name, explicit ``"temperature_source": null``
    and zones given by air mass or by volume."""
    n = draw(st.integers(1, 5))
    conductance = st.floats(1.0, 500.0)
    # a small capacity palette makes repeated time constants likely
    capacity = st.one_of(st.sampled_from([1.0e5, 1.0e6]), st.floats(1.0e4, 1.0e7))
    nodes = [{"id": f"n{k}", "capacity": draw(capacity)} for k in range(n)]
    branches = [{"id": "g0", "from": "REF", "to": "n0",
                 "conductance": draw(conductance), "temperature_source": "T_o"}]
    branches += [{"id": f"r{k}", "from": f"n{k - 1}", "to": f"n{k}",
                  "conductance": draw(conductance)} for k in range(1, n)]
    for k in draw(st.lists(st.integers(1, n - 1), max_size=2, unique=True)) if n > 1 else ():
        branches.append({"id": f"g{k}", "from": "REF", "to": f"n{k}",
                         "conductance": draw(conductance), "temperature_source": "T_o"})
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)):
            branches.append({"id": f"b{i}_{j}", "from": f"n{i}", "to": f"n{j}",
                             "conductance": draw(conductance)})
    heated = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    sensors = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    doc = {"nodes": nodes, "branches": branches,
           "flow_sources": [{"node": f"n{k}", "source_name": f"P{i}"}
                            for i, k in enumerate(heated)]}
    name = draw(st.text(max_size=8))
    if name:
        doc["name"] = name
    for branch in branches[1:]:
        if "temperature_source" not in branch and draw(st.booleans()):
            branch["temperature_source"] = None
    zoned = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    doc["zones"] = [{"id": f"z{k}", "air_node": f"n{k}",
                     "floor_area": draw(st.floats(1.0, 200.0)),
                     draw(st.sampled_from(["air_mass", "volume"])): draw(st.floats(1.0, 500.0))}
                    for k in zoned]
    return doc, [f"n{k}" for k in sensors]


def circuits():
    """The parsed networks of :func:`documents`, with their sensor nodes."""
    return documents().map(lambda drawn: (q.parse_building(json.dumps(drawn[0])), drawn[1]))


def shuffled(value, random):
    """``value`` with the keys of every object in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        random.shuffle(items)
        return {key: shuffled(item, random) for key, item in items}
    if isinstance(value, list):
        return [shuffled(item, random) for item in value]
    return value


@PROPERTY_SETTINGS
@given(drawn=documents(), random=st.randoms(use_true_random=False),
       indent=st.sampled_from([None, 0, 1, 4, "\t"]))
def test_document_layout_does_not_change_the_circuit(drawn, random, indent):
    # key order and whitespace are free; the canonical form is a fixed point
    doc, _ = drawn
    circuit = q.parse_building(json.dumps(doc))
    assert q.parse_building(json.dumps(shuffled(doc, random), indent=indent)) == circuit
    text = q.circuit_to_json(circuit)
    assert q.circuit_to_json(q.parse_building(text)) == text


@st.composite
def feedthrough_networks(draw):
    """A :func:`documents` network with a heated massless sensor node
    "air" added, linked to n0 and to a second boundary temperature T_b:
    its temperature follows its heater at once (D ≠ 0).  The state-space
    model at "air" and possibly one more node."""
    doc, sensors = draw(documents())
    conductance = st.floats(1.0, 500.0)
    doc["nodes"].append({"id": "air", "capacity": 0.0})
    doc["branches"] += [{"id": "air_b", "from": "REF", "to": "air",
                         "conductance": draw(conductance), "temperature_source": "T_b"},
                        {"id": "air_n0", "from": "air", "to": "n0",
                         "conductance": draw(conductance)}]
    doc["flow_sources"].append({"node": "air", "source_name": "P_air"})
    return q.to_state_space(q.parse_building(json.dumps(doc)), ["air", *sensors[:1]])


def networks():
    """State-space models of :func:`circuits` at their sensor nodes."""
    return circuits().map(lambda drawn: q.to_state_space(*drawn))


protocols = st.builds(
    dict,
    T_o=st.floats(-10.0, 10.0),
    P0=st.sampled_from([0.0, 150.0]),
    P_c=st.sampled_from([0.0, 80.0]),
    t_qub=st.floats(1800.0, 43200.0),
)


POLICIES = [q.ErrorPolicy(), q.ErrorPolicy(eps_alpha=1.0e-6),
               q.ErrorPolicy(eps_dT=0.2, eps_P_rel=0.005, eps_alpha=1.0e-6)]


def usable(model):
    """The model's eigenbasis, skipping networks it rejects (repeated
    eigenvalues can leave the basis ill-conditioned)."""
    try:
        return q.eigendecompose(model)
    except q.NumericalError:
        assume(False)


@PROPERTY_SETTINGS
@given(model=networks(), fields=protocols, power=st.floats(100.0, 2000.0),
       step=st.floats(10.0, 1000.0))
def test_trace_is_affine_in_heating_power(model, fields, power, step):
    basis = usable(model)
    traces = []
    for P_h in (power, power + step, power + 2.0 * step):
        protocol = q.QubProtocol(P_h=P_h + fields["P_c"], **fields)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sub-maintenance powers warn
            traces.append(q.simulate_qub(model, protocol, basis=basis).delta_T)
    second = traces[0] - 2.0 * traces[1] + traces[2]
    scale = max(float(np.abs(trace).max()) for trace in traces)
    assert float(np.abs(second).max()) <= 1e-9 * scale


@PROPERTY_SETTINGS
@given(model=networks(), fields=protocols,
       policy=st.sampled_from(POLICIES))
def test_sweep_matches_per_cell_reference(model, fields, policy):
    usable(model)
    template = q.QubProtocol(P_h=fields["P_c"] + 1000.0, **fields)
    args = (model, template, [50.0, 400.0, 1500.0], [3600.0, 14400.0], policy)
    assert_matches_reference(q.sweep(*args), reference_sweep(*args))


@PROPERTY_SETTINGS
@given(model=feedthrough_networks(), T_o=st.floats(1.0, 20.0),
       offset=st.one_of(st.floats(-0.9, -0.1), st.floats(0.1, 5.0)),
       P0=st.floats(50.0, 500.0), P_c=st.floats(20.0, 200.0))
def test_sweep_peak_is_the_record_peak(model, T_o, offset, P0, P_c):
    # off rest, with a feedthrough: the peak's a(t), the switch state's m0
    # and the wᵀDu offsets are all non-zero
    basis = usable(model)
    assert model.D.any()
    template = q.QubProtocol(T_o=T_o, P0=P0, P_h=P_c + 1000.0, P_c=P_c, t_qub=3600.0,
                             boundary_temperatures={"T_b": T_o + offset})
    grid = q.sweep(model, template, [P_c + 50.0, P_c + 400.0, P_c + 1500.0],
                   [3600.0, 14400.0], q.ErrorPolicy())
    for row in grid.cells:
        for cell in row:
            protocol = replace(template, P_h=cell.ph, t_qub=cell.t_qub)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sub-maintenance powers warn
                trace = q.simulate_qub(model, protocol, basis=basis)
            assert cell.theta_max == pytest.approx(T_o + float(trace.delta_T.max()),
                                                   rel=1e-12, abs=0.0)


@PROPERTY_SETTINGS
@given(drawn=circuits(), weights=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
       T_o=st.floats(-10.0, 10.0))
def test_reference_H_is_power_over_weighted_mean_rise(drawn, weights, T_o):
    circuit, sensors = drawn
    model = q.to_state_space(circuit, sensors)
    temp_weights = np.array(weights[:len(sensors)])
    power_weights = np.array(weights[2:2 + len(model.flow_inputs)])
    total = 1000.0
    values = {name: T_o for name in model.temperature_inputs}
    values.update(zip(model.flow_inputs, total * power_weights / power_weights.sum()))
    theta = stamped_steady_state(circuit, values)
    rises = np.array([theta[name] - T_o for name in sensors])
    H = total / (temp_weights @ rises / temp_weights.sum())
    weighted = replace(model, output_weights=temp_weights, flow_weights=power_weights)
    assert q.reference_H(weighted) == pytest.approx(H, rel=1e-10)


# Superposition: from rest (P0 = 0, every boundary at T_o) the record is
# P_h times a unit response, plus P_c times the same unit step in the
# cooling phase.  So P_h, P_c and T_o cancel from H_qub, a row's eps_Hm²
# is K + L/P_h², and the peak rise scales with P_h.  Off rest the record
# is affine in P_h, and so is every fit.  Each check below returns its
# largest relative deviation from that structure at one duration, per
# unit of the record's own rounding (see _rounding).

def _rest_cells(model, t_qub, powers, T_o=0.0, P_c=0.0, policy=q.ErrorPolicy()):
    """The cells of a one-duration sweep from rest at ``T_o``."""
    template = q.QubProtocol(T_o=T_o, P0=0.0, P_h=max(powers), P_c=P_c, t_qub=t_qub)
    return q.sweep(model, template, powers, [t_qub], policy).cells[0]


def _rounding(model, cell, T_o):
    """How much larger than the cell's peak rise are the values its
    record is computed from, which set its rounding: T_o (a record is an
    indoor temperature less T_o) and the steady rise P_h/H_ref (the modal
    terms are of its size, and nearly cancel where the sensor has barely
    begun to rise)."""
    rise = cell.theta_max - T_o
    return max(1.0, (abs(T_o) + cell.ph / q.reference_H(model)) / rise)


def quotient_spread(model, t_qub):
    """H_qub over P_h, P_c and T_o."""
    cells = [(T_o, cell)
             for T_o, P_c in ((0.0, 0.0), (0.0, 300.0), (-7.0, 80.0), (12.0, 300.0))
             for cell in _rest_cells(model, t_qub, [400.0, 1500.0, 6000.0], T_o, P_c)
             if cell.valid]
    H0 = cells[0][1].H_qub if cells else 0.0
    return max((abs(cell.H_qub - H0) / abs(H0) / _rounding(model, cell, T_o)
                for T_o, cell in cells), default=0.0)


def budget_curvature(model, t_qub):
    """How far a third power's eps_Hm² lies from the line in 1/P_h²
    through two others.  Only where both phases still move by a millionth
    of the rise: once a record has settled its slopes are rounding noise,
    and so is the budget."""
    trace = q.simulate_qub(model, q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                                                t_qub=t_qub))
    rise = float(np.abs(trace.delta_T).max())
    if any(abs(q.fit_slope(trace, phase).alpha) * t_qub < 1e-6 * rise
           for phase in ("heating", "cooling")):
        return 0.0
    worst = 0.0
    for policy in POLICIES:
        cells = _rest_cells(model, t_qub, [200.0, 5000.0, 900.0], policy=policy)
        if not all(cell.valid for cell in cells):
            continue
        x, y = zip(*((cell.ph ** -2, cell.eps_Hm ** 2) for cell in cells))
        # the third power lies between the two that fix the line
        predicted = y[0] + (y[1] - y[0]) * (x[2] - x[0]) / (x[1] - x[0])
        rounding = max(_rounding(model, cell, 0.0) for cell in cells)
        worst = max(worst, abs(predicted - y[2]) / y[2] / rounding)
    return worst


def peak_spread(model, t_qub):
    """theta_max − T_o over P_h, each divided by its P_h (at T_o = 0)."""
    cells = _rest_cells(model, t_qub, [100.0, 900.0, 6000.0])
    gain = [cell.theta_max / cell.ph for cell in cells]
    return max(abs(g - gain[0]) / abs(gain[0]) / _rounding(model, cell, 0.0)
               for g, cell in zip(gain, cells))


def fit_curvature(model, t_qub):
    """Second differences over P_h of each fit's slope (times t_qub) and
    intercept off rest, relative to the largest rise in the records.  Off
    rest is P0 > 0, or the last boundary held away from T_o (T_o itself
    on generated networks, T_g in the house)."""
    basis = q.eigendecompose(model)
    held = model.temperature_inputs[-1]
    worst = 0.0
    for P0, offset, P_c in ((150.0, 0.0, 0.0), (0.0, 4.0, 80.0), (150.0, -3.0, 80.0)):
        fits, rise = [], 0.0
        for P_h in (300.0, 800.0, 1300.0):
            protocol = q.QubProtocol(T_o=2.0, P0=P0, P_h=P_h, P_c=P_c, t_qub=t_qub,
                                     boundary_temperatures={held: 2.0 + offset})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sub-maintenance powers warn
                trace = q.simulate_qub(model, protocol, basis=basis)
            rise = max(rise, float(np.abs(trace.delta_T).max()))
            fits.append([value for phase in ("heating", "cooling")
                         for fit in [q.fit_slope(trace, phase)]
                         for value in (fit.alpha * t_qub, fit.dT0)])
        fits = np.array(fits)
        worst = max(worst, float(np.abs(fits[0] - 2.0 * fits[1] + fits[2]).max()) / rise)
    return worst


#: each check with its bound on generated networks, about 50 times the
#: worst of 3,000 drawn networks: there the quotient and the r²-based
#: slope error amplify rounding more than on the bundled buildings
SUPERPOSITION = {quotient_spread: 1e-9, budget_curvature: 1e-8, peak_spread: 1e-13,
                 fit_curvature: 1e-9}


@pytest.mark.parametrize("check", SUPERPOSITION, ids=lambda check: check.__name__)
@pytest.mark.parametrize("name", ["bungalow", "house"])
def test_superposition_on_bundled_buildings(check, name, bundled_models):
    for t_qub in (3600.0, 43200.0):
        assert check(bundled_models[name], t_qub) <= 1e-12


@pytest.mark.parametrize("check", SUPERPOSITION, ids=lambda check: check.__name__)
@PROPERTY_SETTINGS
@given(model=networks(), t_qub=st.floats(3600.0, 43200.0))
def test_superposition_on_generated_networks(check, model, t_qub):
    usable(model)
    assert check(model, t_qub) <= SUPERPOSITION[check]
