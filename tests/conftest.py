"""Shared fixtures: small hand-checkable circuits and the bundled models."""
from __future__ import annotations

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import qubdoe as q


def make_first_order(G=100.0, C=1.0e6):
    """One capacity, one loss conductance, one heater."""
    doc = {
        "nodes": [{"id": "air", "capacity": C}],
        "branches": [
            {"id": "loss", "from": "REF", "to": "air", "conductance": G,
             "temperature_source": "T_o"},
        ],
        "flow_sources": [{"node": "air", "source_name": "P"}],
    }
    return q.parse_building(json.dumps(doc))


def make_divider(G1=2.0, G2=3.0, C=5.0e5):
    """One capacity between two boundary temperatures."""
    doc = {
        "nodes": [{"id": "mid", "capacity": C}],
        "branches": [
            {"id": "left", "from": "REF", "to": "mid", "conductance": G1,
             "temperature_source": "T_a"},
            {"id": "right", "from": "REF", "to": "mid", "conductance": G2,
             "temperature_source": "T_b"},
        ],
    }
    return q.parse_building(json.dumps(doc))


def make_ladder(n=5, G=50.0, C=2.0e5, heated=True):
    """Chain of n capacities from the boundary to an end node."""
    nodes = [{"id": f"n{k}", "capacity": C * (1.0 + 0.2 * k)} for k in range(n)]
    branches = [{"id": "b0", "from": "REF", "to": "n0", "conductance": G,
                 "temperature_source": "T_o"}]
    branches += [{"id": f"b{k}", "from": f"n{k-1}", "to": f"n{k}",
                  "conductance": G * (1.0 + 0.1 * k)} for k in range(1, n)]
    doc = {"nodes": nodes, "branches": branches}
    if heated:
        doc["flow_sources"] = [{"node": f"n{n-1}", "source_name": "P"}]
    return q.parse_building(json.dumps(doc))


def make_bridged(elim_mid=True):
    """Two capacities joined through a zero-capacity star node.

    The star has no storage, so the reduced model has two states; with
    ``elim_mid=False`` the star gets a small capacity instead and the
    model keeps three.
    """
    doc = {
        "nodes": [
            {"id": "a", "capacity": 4.0e5},
            {"id": "star", "capacity": 0.0 if elim_mid else 1.0e2},
            {"id": "b", "capacity": 7.0e5},
        ],
        "branches": [
            {"id": "oa", "from": "REF", "to": "a", "conductance": 30.0,
             "temperature_source": "T_o"},
            {"id": "as", "from": "a", "to": "star", "conductance": 55.0},
            {"id": "sb", "from": "star", "to": "b", "conductance": 45.0},
            {"id": "ob", "from": "REF", "to": "b", "conductance": 12.0,
             "temperature_source": "T_o"},
        ],
        "flow_sources": [{"node": "a", "source_name": "P"}],
    }
    return q.parse_building(json.dumps(doc))


def assert_matches_reference(grid, reference):
    """H_qub and eps_qub_pct exactly, the other fields to 1e-12 relative,
    with the same valid flags and nan positions."""
    assert np.array_equal(grid.ph_values, reference.ph_values)
    assert np.array_equal(grid.t_values, reference.t_values)
    for row, ref_row in zip(grid.cells, reference.cells, strict=True):
        for cell, ref in zip(row, ref_row, strict=True):
            where = (cell.ph, cell.t_qub)
            assert (cell.ph, cell.t_qub, cell.valid) == (ref.ph, ref.t_qub, ref.valid)
            for name in ("H_qub", "eps_qub_pct", "eps_Hm", "eps_H_pct", "theta_max"):
                got, want = getattr(cell, name), getattr(ref, name)
                assert math.isnan(got) == math.isnan(want), (name, where)
                if math.isnan(want):
                    continue
                if name in ("H_qub", "eps_qub_pct"):
                    assert got == want, (name, where)
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (name, where)


@pytest.fixture(scope="session")
def first_order_circuit():
    return make_first_order()


@pytest.fixture(scope="session")
def bungalow():
    return q.load_bungalow()


@pytest.fixture(scope="session")
def house():
    return q.load_house()


@pytest.fixture(scope="session")
def bungalow_model(bungalow):
    return q.to_state_space(bungalow, [z.air_node for z in bungalow.zones])


@pytest.fixture(scope="session")
def house_model(house):
    return q.to_state_space(house, [z.air_node for z in house.zones])


@pytest.fixture(scope="session")
def mixed_output_model(bungalow):
    """The bungalow read at its air node made massless, zones dropped: the
    one output row mixes the eight states the node touches (and D ≠ 0)."""
    nodes = tuple(replace(node, capacity=0.0) if node.id == "air" else node
                  for node in bungalow.nodes)
    return q.to_state_space(replace(bungalow, nodes=nodes, zones=()), ["air"])


@pytest.fixture(scope="session")
def bundled_models(bungalow_model, house_model):
    return {"bungalow": bungalow_model, "house": house_model}


def input_vector(model, values):
    """A name -> value mapping stacked in the model's input order."""
    return np.array([float(values[name]) for name in model.input_names])


class Unseekable(io.StringIO):
    """A text stream that cannot seek back, like a pipe."""

    def seekable(self):
        return False


def rng(seed=0):
    return np.random.default_rng(seed)
