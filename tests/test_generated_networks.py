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
def circuits(draw):
    """A connected network: a ladder from the boundary through n capacitive
    nodes, optional bridges between non-adjacent rungs and to the
    boundary, one or two heaters (possibly on one node); returned with
    one or two distinct sensor nodes."""
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
    return q.parse_building(json.dumps(doc)), [f"n{k}" for k in sensors]


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
       policy=st.sampled_from([q.ErrorPolicy(), q.ErrorPolicy(eps_alpha=1.0e-6),
                               q.ErrorPolicy(eps_dT=0.2, eps_P_abs=5.0,
                                             eps_alpha=1.0e-6)]))
def test_sweep_matches_per_cell_reference(model, fields, policy):
    usable(model)
    template = q.QubProtocol(P_h=fields["P_c"] + 1000.0, **fields)
    args = (model, template, [50.0, 400.0, 1500.0], [3600.0, 14400.0], policy)
    assert_matches_reference(q.sweep(*args), reference_sweep(*args))


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
