"""Parsing, validation, steady state, and state-space reduction."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import qubdoe as q
from conftest import (input_vector, make_bridged, make_divider, make_first_order,
                      make_ladder)
from oracles import (implicit_euler, implicit_euler_dae, nodal_conductance_matrix,
                     stamped_matrices, stamped_steady_state)


def doc(**overrides):
    base = {
        "nodes": [{"id": "a", "capacity": 1.0e5}],
        "branches": [{"id": "loss", "from": "REF", "to": "a",
                      "conductance": 10.0, "temperature_source": "T_o"}],
    }
    base.update(overrides)
    return json.dumps(base)


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

class TestParsing:
    def test_not_json(self):
        with pytest.raises(q.SchemaError, match="not valid JSON"):
            q.parse_building("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(q.SchemaError):
            q.parse_building("[1, 2]")

    def test_unknown_top_level_key(self):
        with pytest.raises(q.SchemaError, match="unexpected field"):
            q.parse_building(doc(extra=1))

    def test_unknown_node_key(self):
        with pytest.raises(q.SchemaError, match="nodes\\[0\\]"):
            q.parse_building(doc(nodes=[{"id": "a", "capacity": 1.0, "x": 2}]))

    def test_missing_capacity(self):
        with pytest.raises(q.SchemaError, match="capacity"):
            q.parse_building(doc(nodes=[{"id": "a"}]))

    def test_capacity_must_be_number(self):
        with pytest.raises(q.SchemaError, match="capacity"):
            q.parse_building(doc(nodes=[{"id": "a", "capacity": "big"}]))

    def test_empty_nodes_rejected(self):
        with pytest.raises(q.SchemaError, match="at least one node"):
            q.parse_building(json.dumps({"nodes": [], "branches": []}))

    def test_empty_branches_rejected(self):
        with pytest.raises(q.SchemaError, match="at least one branch"):
            q.parse_building(doc(branches=[]))

    def test_missing_lists_parse_as_empty(self):
        # no flow_sources / zones keys at all
        circuit = q.parse_building(doc())
        assert circuit.flow_sources == ()
        assert circuit.zones == ()

    def test_duplicate_node_id(self):
        with pytest.raises(q.SchemaError, match="duplicate"):
            q.parse_building(doc(nodes=[{"id": "a", "capacity": 1.0},
                                        {"id": "a", "capacity": 2.0}]))

    def test_ref_reserved(self):
        with pytest.raises(q.SchemaError, match="reserved"):
            q.parse_building(doc(nodes=[{"id": "REF", "capacity": 1.0}]))

    def test_negative_capacity(self):
        with pytest.raises(q.SchemaError, match="capacity"):
            q.parse_building(doc(nodes=[{"id": "a", "capacity": -1.0}]))

    def test_zero_conductance(self):
        with pytest.raises(q.SchemaError, match="conductance"):
            q.parse_building(doc(branches=[{"id": "b", "from": "REF", "to": "a",
                                            "conductance": 0.0,
                                            "temperature_source": "T_o"}]))

    def test_branch_to_ref_needs_reorientation(self):
        with pytest.raises(q.SchemaError, match="orient"):
            q.parse_building(doc(branches=[{"id": "b", "from": "a", "to": "REF",
                                            "conductance": 1.0,
                                            "temperature_source": "T_o"}]))

    def test_unknown_branch_endpoint(self):
        with pytest.raises(q.SchemaError, match="unknown node"):
            q.parse_building(doc(branches=[{"id": "b", "from": "REF", "to": "zz",
                                            "conductance": 1.0,
                                            "temperature_source": "T_o"}]))

    def test_self_loop(self):
        bad = [{"id": "ok", "from": "REF", "to": "a", "conductance": 1.0,
                "temperature_source": "T_o"},
               {"id": "loop", "from": "a", "to": "a", "conductance": 1.0}]
        with pytest.raises(q.SchemaError, match="itself"):
            q.parse_building(doc(branches=bad))

    def test_duplicate_branch_id(self):
        bad = [{"id": "b", "from": "REF", "to": "a", "conductance": 1.0,
                "temperature_source": "T_o"},
               {"id": "b", "from": "REF", "to": "a", "conductance": 2.0,
                "temperature_source": "T_o"}]
        with pytest.raises(q.SchemaError, match="duplicate"):
            q.parse_building(doc(branches=bad))

    def test_flow_source_unknown_node(self):
        with pytest.raises(q.SchemaError, match="unknown node"):
            q.parse_building(doc(flow_sources=[{"node": "zz", "source_name": "P"}]))

    def test_duplicate_flow_source_name(self):
        with pytest.raises(q.SchemaError, match="duplicate"):
            q.parse_building(doc(flow_sources=[{"node": "a", "source_name": "P"},
                                               {"node": "a", "source_name": "P"}]))

    def test_flow_name_clashes_with_temperature_source(self):
        with pytest.raises(q.SchemaError):
            q.parse_building(doc(flow_sources=[{"node": "a", "source_name": "T_o"}]))

    def test_zone_unknown_air_node(self):
        with pytest.raises(q.SchemaError):
            q.parse_building(doc(zones=[{"id": "z", "air_node": "zz",
                                         "floor_area": 10.0, "air_mass": 40.0}]))

    def test_zone_needs_mass_or_volume(self):
        with pytest.raises(q.SchemaError, match="air_mass.*volume|volume.*air_mass"):
            q.parse_building(doc(zones=[{"id": "z", "air_node": "a",
                                         "floor_area": 10.0}]))

    def test_null_temperature_source_is_no_source(self):
        circuit = q.parse_building(branches_doc({"id": "b", "from": "REF", "to": "a",
                                                 "conductance": 1.0,
                                                 "temperature_source": None}))
        assert circuit.branches[1].temperature_source is None
        assert circuit.temperature_sources == ("T_o",)

    def test_zone_volume_converts_to_mass(self):
        circuit = q.parse_building(doc(zones=[{"id": "z", "air_node": "a",
                                               "floor_area": 10.0, "volume": 50.0}]))
        assert circuit.zones[0].air_mass == pytest.approx(60.0)  # 1.2 kg/m³

    def test_disconnected_node_named(self):
        nodes = [{"id": "a", "capacity": 1.0e5}, {"id": "island", "capacity": 2.0e5}]
        with pytest.raises(q.SchemaError, match="island"):
            q.parse_building(doc(nodes=nodes))

    def test_document_name_round_trip(self):
        circuit = q.parse_building(doc(name="demo box"))
        assert circuit.name == "demo box"
        again = q.parse_building(q.circuit_to_json(circuit))
        assert again == circuit

    def test_round_trip_bundled(self):
        for text in (q.bungalow_json(), q.house_json()):
            circuit = q.parse_building(text)
            assert q.parse_building(q.circuit_to_json(circuit)) == circuit

    def test_round_trip_preserves_floats_exactly(self):
        circuit = make_ladder()
        again = q.parse_building(q.circuit_to_json(circuit))
        for n1, n2 in zip(circuit.nodes, again.nodes):
            assert n1.capacity == n2.capacity


def nodes_doc(*nodes):
    return doc(nodes=[{"id": "a", "capacity": 1.0e5}, *nodes])


def branches_doc(*branches):
    return doc(branches=[{"id": "loss", "from": "REF", "to": "a", "conductance": 10.0,
                          "temperature_source": "T_o"}, *branches])


def zone(**fields):
    return {"id": "z", "air_node": "a", "floor_area": 10.0, "air_mass": 40.0, **fields}


#: one document with a single fault for each check of parse_building,
#: and the whole message it gives
SINGLE_FAULTS = [
    ("{nope", "document: not valid JSON (Expecting property name enclosed in double "
              "quotes: line 1 column 2 (char 1))"),
    ("[1, 2]", "document: expected an object, got list"),
    (doc(extra=1), "document: unexpected field 'extra'"),
    (doc(name=3), "document.name: expected a string"),
    (doc(nodes={}), "nodes: expected a list, got dict"),
    (doc(zones="z"), "zones: expected a list, got str"),
    (doc(nodes=[1]), "nodes[0]: expected an object, got int"),
    (doc(flow_sources=[None]), "flow_sources[0]: expected an object, got NoneType"),
    (doc(nodes=[{"id": "a", "capacity": 1.0, "x": 2}]), "nodes[0]: unexpected field 'x'"),
    (doc(zones=[zone(area=1.0)]), "zones[0]: unexpected field 'area'"),
    (doc(nodes=[{"capacity": 1.0}]), "nodes[0].id: required field is missing"),
    (doc(nodes=[{"id": "a"}]), "nodes[0].capacity: required field is missing"),
    (doc(nodes=[{"id": "", "capacity": 1.0}]), "nodes[0].id: expected a non-empty string"),
    (doc(nodes=[{"id": None, "capacity": 1.0}]), "nodes[0].id: expected a non-empty string"),
    (doc(nodes=[{"id": "a", "capacity": "big"}]),
     "nodes[0].capacity: expected a number, got str"),
    (doc(nodes=[{"id": "a", "capacity": True}]),
     "nodes[0].capacity: expected a number, got bool"),
    (doc(nodes=[{"id": "a", "capacity": 1.0e5}], branches=[
        {"id": "loss", "from": "REF", "to": "a", "conductance": 10.0,
         "temperature_source": ""}]),
     "branches[0].temperature_source: expected a non-empty string"),
    (branches_doc({"id": "b", "from": "REF", "to": "a", "conductance": 1.0,
                   "temperature_source": 7}),
     "branches[1].temperature_source: expected a non-empty string"),
    (branches_doc({"id": "b", "from": "REF", "conductance": 1.0}),
     "branches[1].to: required field is missing"),
    (doc(flow_sources=[{"node": "a"}]), "flow_sources[0].source_name: required field is missing"),
    (doc(zones=[{"id": "z", "air_node": "a", "floor_area": 10.0}]),
     "zones[0]: one of 'air_mass' or 'volume' is required"),
    (doc(zones=[zone(volume=50.0)]),
     "zones[0]: give one of 'air_mass' or 'volume', not both"),
    (doc(zones=[zone(volume="big")]),
     "zones[0]: give one of 'air_mass' or 'volume', not both"),
    (doc(zones=[{"id": "z", "air_node": "a", "floor_area": 10.0, "volume": "big"}]),
     "zones[0].volume: expected a number, got str"),
    (doc(zones=[zone(floor_area=[])]), "zones[0].floor_area: expected a number, got list"),
    (json.dumps({"nodes": [], "branches": []}), "nodes: at least one node is required"),
    (doc(branches=[]), "branches: at least one branch is required"),
    (doc(nodes=[{"id": "REF", "capacity": 1.0}]), "nodes[0].id: 'REF' is reserved for the datum"),
    (nodes_doc({"id": "a", "capacity": 2.0}), "nodes[1].id: duplicate node 'a'"),
    (doc(nodes=[{"id": "a", "capacity": -1.0}]),
     "nodes[0].capacity: must be finite and >= 0, got -1.0"),
    (doc(nodes=[{"id": "a", "capacity": 1e400}]),
     "nodes[0].capacity: must be finite and >= 0, got inf"),
    (doc(nodes=[{"id": "a", "capacity": 10**400}]),
     "nodes[0].capacity: must be finite, got an integer too large for a float"),
    (branches_doc({"id": "loss", "from": "REF", "to": "a", "conductance": 1.0}),
     "branches[1].id: duplicate branch 'loss'"),
    (branches_doc({"id": "b", "from": "zz", "to": "a", "conductance": 1.0}),
     "branches[1].from: unknown node 'zz'"),
    (branches_doc({"id": "b", "from": "a", "to": "REF", "conductance": 1.0}),
     "branches[1].to: must be a node id, not 'REF' (orient the branch the other way)"),
    (branches_doc({"id": "b", "from": "REF", "to": "zz", "conductance": 1.0}),
     "branches[1].to: unknown node 'zz'"),
    (branches_doc({"id": "b", "from": "a", "to": "a", "conductance": 1.0}),
     "branches[1]: connects node 'a' to itself"),
    (branches_doc({"id": "b", "from": "REF", "to": "a", "conductance": 0.0}),
     "branches[1].conductance: must be finite and > 0, got 0.0"),
    (doc(flow_sources=[{"node": "zz", "source_name": "P"}]),
     "flow_sources[0].node: unknown node 'zz'"),
    (doc(flow_sources=[{"node": "a", "source_name": "P"}, {"node": "a", "source_name": "P"}]),
     "flow_sources[1].source_name: duplicate source 'P'"),
    (doc(flow_sources=[{"node": "a", "source_name": "T_o"}]),
     "flow_sources: source names also used by temperature sources: T_o"),
    (doc(zones=[zone(), zone(air_node="b")]), "zones[1].id: duplicate zone 'z'"),
    (doc(zones=[zone(air_node="zz")]), "zones[0].air_node: unknown node 'zz'"),
    (doc(nodes=[{"id": "a", "capacity": 1.0e5}, {"id": "m", "capacity": 0.0}],
         branches=[{"id": "loss", "from": "REF", "to": "a", "conductance": 10.0},
                   {"id": "am", "from": "a", "to": "m", "conductance": 10.0}],
         zones=[zone(air_node="m")]),
     "zones[0].air_node: node 'm' must carry a positive capacity"),
    (doc(zones=[zone(), zone(id="y")]),
     "zones[1].air_node: node 'a' already belongs to another zone"),
    (doc(zones=[zone(floor_area=0.0)]), "zones[0].floor_area: must be > 0"),
    (doc(zones=[zone(air_mass=-1.0)]), "zones[0].air_mass: must be > 0"),
    (doc(zones=[{"id": "z", "air_node": "a", "floor_area": 10.0, "volume": 0.0}]),
     "zones[0].air_mass: must be > 0"),
    (nodes_doc({"id": "island", "capacity": 2.0e5}),
     "branches: no conductance path from the datum to node(s) island"),
]


@pytest.mark.parametrize("text, message", SINGLE_FAULTS,
                         ids=[message for _, message in SINGLE_FAULTS])
def test_single_fault_message(text, message):
    with pytest.raises(q.SchemaError) as exc:
        q.parse_building(text)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# source bookkeeping
# ---------------------------------------------------------------------------

class TestSources:
    def test_temperature_sources_in_first_appearance_order(self):
        circuit = make_divider()
        assert circuit.temperature_sources == ("T_a", "T_b")

    def test_input_order_temperatures_then_flows(self):
        model = q.to_state_space(make_first_order(), ["air"])
        assert model.input_names == ("T_o", "P")
        assert model.input_kinds == ("temperature", "flow")


# ---------------------------------------------------------------------------
# steady state against the stamping oracle
# ---------------------------------------------------------------------------

def steady_state(circuit, values):
    """Steady temperature of every node, massless ones included, through
    the static gains of the model observing every node."""
    model = q.to_state_space(circuit, [n.id for n in circuit.nodes])
    theta = q.static_gains(model) @ input_vector(model, values)
    return dict(zip(model.output_names, theta))


class TestSteadyState:
    def test_divider_hand_value(self):
        circuit = make_divider(G1=2.0, G2=3.0)
        theta = steady_state(circuit, {"T_a": 10.0, "T_b": 0.0})
        # conductance-weighted average of the two boundaries
        assert theta["mid"] == pytest.approx(4.0, abs=1e-12)

    def test_first_order_with_power(self):
        circuit = make_first_order(G=100.0)
        theta = steady_state(circuit, {"T_o": 5.0, "P": 1000.0})
        assert theta["air"] == pytest.approx(15.0, abs=1e-12)

    @pytest.mark.parametrize("make", [make_divider, make_ladder, make_bridged])
    def test_matches_stamping_oracle(self, make):
        circuit = make()
        names = set(circuit.temperature_sources) | set(circuit.flow_source_names)
        values = {name: 7.5 if name.startswith("T") else 850.0 for name in names}
        got = steady_state(circuit, values)
        want = stamped_steady_state(circuit, values)
        for node_id, temp in want.items():
            assert got[node_id] == pytest.approx(temp, rel=1e-12)

    def test_bundled_models_against_oracle(self, bungalow, house):
        for circuit in (bungalow, house):
            values = {name: 4.0 for name in circuit.temperature_sources}
            values.update({name: 600.0 for name in circuit.flow_source_names})
            got = steady_state(circuit, values)
            want = stamped_steady_state(circuit, values)
            for node_id, temp in want.items():
                assert got[node_id] == pytest.approx(temp, rel=1e-10)


# ---------------------------------------------------------------------------
# the nodal conductance oracle on hand values
# ---------------------------------------------------------------------------

class TestNodalConductance:
    def test_series_collapse(self):
        # two conductances in series through the star reduce to one
        circuit = make_bridged()
        K = nodal_conductance_matrix(circuit, ["a", "b"])
        g_series = 1.0 / (1.0 / 55.0 + 1.0 / 45.0)
        assert K[0, 1] == pytest.approx(-g_series, rel=1e-12)
        assert K[0, 0] == pytest.approx(30.0 + g_series, rel=1e-12)
        assert K[1, 1] == pytest.approx(12.0 + g_series, rel=1e-12)

    def test_symmetric(self, house):
        zones = [z.air_node for z in house.zones]
        K = nodal_conductance_matrix(house, zones)
        assert K.shape == (2, 2)
        assert K[0, 1] == pytest.approx(K[1, 0], rel=1e-12)
        # diagonally dominant with positive diagonal
        assert K[0, 0] > 0 and K[1, 1] > 0
        assert K[0, 0] >= -K[0, 1] and K[1, 1] >= -K[1, 0]


# ---------------------------------------------------------------------------
# state-space construction and the zero-capacity reduction
# ---------------------------------------------------------------------------

class TestStateSpace:
    def test_first_order_matrices(self):
        model = q.to_state_space(make_first_order(G=100.0, C=1.0e6), ["air"])
        assert model.A == pytest.approx(np.array([[-1.0e-4]]))
        assert model.B == pytest.approx(np.array([[1.0e-4, 1.0e-6]]))
        assert model.C == pytest.approx(np.array([[1.0]]))
        assert model.D == pytest.approx(np.array([[0.0, 0.0]]))

    def test_unknown_output(self):
        with pytest.raises(q.ModelError, match="zz"):
            q.to_state_space(make_first_order(), ["zz"])

    def test_all_zero_capacity_rejected(self):
        bad = json.dumps({
            "nodes": [{"id": "a", "capacity": 0.0}],
            "branches": [{"id": "b", "from": "REF", "to": "a",
                          "conductance": 1.0, "temperature_source": "T_o"}],
        })
        with pytest.raises(q.ModelError, match="capaci"):
            q.to_state_space(q.parse_building(bad), ["a"])

    def test_star_node_dropped_from_states(self):
        model = q.to_state_space(make_bridged(), ["a", "b"])
        assert model.n_states == 2
        assert model.state_names == ("a", "b")

    def test_reduction_matches_series_conductance(self):
        # eliminating the star must produce the exact series conductance
        model = q.to_state_space(make_bridged(), ["a", "b"])
        g_series = 1.0 / (1.0 / 55.0 + 1.0 / 45.0)
        K_expected = np.array([[30.0 + g_series, -g_series],
                               [-g_series, 12.0 + g_series]])
        C_diag = np.array([4.0e5, 7.0e5])
        assert model.A == pytest.approx(-K_expected / C_diag[:, None], rel=1e-12)

    def test_eliminated_node_still_observable(self):
        # asking for the star as an output reconstructs it algebraically
        circuit = make_bridged()
        model = q.to_state_space(circuit, ["a", "star", "b"])
        values = {"T_o": 3.0, "P": 400.0}
        theta = stamped_steady_state(circuit, values)
        u = input_vector(model, values)
        x_inf = np.linalg.solve(model.A, -model.B @ u)
        y_inf = model.C @ x_inf + model.D @ u
        for k, name in enumerate(model.output_names):
            assert y_inf[k] == pytest.approx(theta[name], rel=1e-12)

    def test_reduced_dynamics_equal_full_dae(self):
        """Backward Euler on the reduced model must track backward Euler
        on the unreduced balance equations to round-off: the star-node
        elimination is exact, not an approximation."""
        circuit = make_bridged()
        model = q.to_state_space(circuit, ["a", "star", "b"])
        K, W, C_diag, node_ids, input_names = stamped_matrices(circuit)
        assert list(input_names) == list(model.input_names)

        u = np.array([2.0, 750.0])  # T_o, P
        dt, n_steps = 30.0, 400
        x_red = implicit_euler(model.A, model.B, u,
                               np.zeros(model.n_states), dt, n_steps)
        theta_full = implicit_euler_dae(K, W, C_diag, u,
                                        np.zeros(len(node_ids)), dt, n_steps)
        y_red = x_red @ model.C.T + model.D @ u
        cols = [node_ids.index(name) for name in model.output_names]
        scale = np.abs(theta_full[:, cols]).max()
        assert np.abs(y_red - theta_full[:, cols]).max() <= 1e-12 * max(scale, 1.0)

    def test_bundled_reduction_equals_full_dae(self, bungalow):
        model = q.to_state_space(bungalow, ["air", "star", "floor_screed"])
        K, W, C_diag, node_ids, input_names = stamped_matrices(bungalow)
        u = input_vector(model, {"T_o": 0.0, "P_heat": 1000.0})
        dt, n_steps = 60.0, 300
        x_red = implicit_euler(model.A, model.B, u,
                               np.zeros(model.n_states), dt, n_steps)
        theta_full = implicit_euler_dae(K, W, C_diag, u,
                                        np.zeros(len(node_ids)), dt, n_steps)
        y_red = x_red @ model.C.T + model.D @ u
        cols = [node_ids.index(name) for name in model.output_names]
        scale = np.abs(theta_full[:, cols]).max()
        assert np.abs(y_red - theta_full[:, cols]).max() <= 1e-9 * max(scale, 1.0)

    def test_state_capacities_exposed(self, bungalow_model):
        caps = bungalow_model.state_capacities
        assert caps is not None and np.all(np.asarray(caps) > 0)

    def test_matrices_are_frozen(self, bungalow_model):
        with pytest.raises(ValueError):
            bungalow_model.A[0, 0] = 0.0

    def test_singular_A_rejected(self):
        with pytest.raises(q.NumericalError):
            q.StateSpaceModel(
                A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                B=np.zeros((2, 1)), C=np.eye(2), D=np.zeros((2, 1)),
                state_names=("x", "y"), input_names=("P",),
                input_kinds=("flow",), output_names=("x", "y"),
            )

    def test_no_output_rejected(self, bungalow, bungalow_model):
        # without outputs there is no indoor temperature to average
        with pytest.raises(q.ModelError, match="model has no output"):
            q.reference_H(q.to_state_space(bungalow, []))
        n, m = bungalow_model.n_states, len(bungalow_model.input_names)
        with pytest.raises(q.ModelError, match="model has no output"):
            replace(bungalow_model, C=np.zeros((0, n)), D=np.zeros((0, m)),
                    output_names=())


def two_heater_circuit(zones):
    """Air over a heavy floor, heated at both; ``zones`` lists the
    (air node, air mass) of each declared zone."""
    return q.parse_building(json.dumps({
        "nodes": [{"id": "air", "capacity": 2.0e5},
                  {"id": "floor", "capacity": 4.0e6},
                  {"id": "loft", "capacity": 1.0e5}],
        "branches": [
            {"id": "vent", "from": "REF", "to": "air", "conductance": 30.0,
             "temperature_source": "T_o"},
            {"id": "skin", "from": "air", "to": "floor", "conductance": 200.0},
            {"id": "ceiling", "from": "air", "to": "loft", "conductance": 50.0},
            {"id": "roof", "from": "REF", "to": "loft", "conductance": 10.0,
             "temperature_source": "T_o"},
        ],
        "flow_sources": [{"node": "floor", "source_name": "P_floor"},
                         {"node": "air", "source_name": "P_air"},
                         {"node": "air", "source_name": "P_air2"}],
        "zones": [{"id": f"z{k}", "air_node": node, "floor_area": 20.0,
                   "air_mass": mass} for k, (node, mass) in enumerate(zones)],
    }))


class TestIndoorModel:
    """``to_state_space(circuit)`` picks the indoor outputs and the
    weights every experiment on the building uses."""

    def test_zone_air_nodes_weighted_by_air_mass(self):
        model = q.to_state_space(two_heater_circuit([("air", 150.0), ("loft", 50.0)]))
        assert model.output_names == ("air", "loft")
        assert model.output_weights.tolist() == [150.0, 50.0]
        # the air zone's share splits between its two heaters; the loft
        # zone has no heater and gets no power, nor does the floor heater
        assert model.flow_weights.tolist() == [0.0, 75.0, 75.0]

    def test_even_split_when_no_heater_sits_at_a_zone(self):
        model = q.to_state_space(two_heater_circuit([("loft", 50.0)]))
        assert model.output_names == ("loft",)
        assert model.flow_weights.tolist() == [1.0, 1.0, 1.0]

    def test_without_zones_the_heated_nodes(self):
        model = q.to_state_space(two_heater_circuit([]))
        assert model.output_names == ("floor", "air")
        assert model.output_weights.tolist() == [1.0, 1.0]
        assert model.flow_weights.tolist() == [1.0, 1.0, 1.0]

    def test_without_zones_or_heaters_the_first_capacitive_node(self):
        model = q.to_state_space(make_ladder(heated=False))
        assert model.output_names == ("n0",)
        assert model.flow_weights.size == 0

    def test_explicit_outputs_weigh_uniformly(self, house):
        model = q.to_state_space(house, ["air_z2", "roof"])
        assert model.output_weights.tolist() == [1.0, 1.0]
        assert model.flow_weights.tolist() == [1.0, 1.0]


class TestModelWeights:
    @pytest.mark.parametrize("weights, match", [
        ({"output_weights": [1.0, 1.0]}, "output_weights: expected 1 weights"),
        ({"output_weights": [-1.0]}, "output_weights: weights must be non-negative"),
        ({"flow_weights": [0.0]}, "flow_weights: weights must be non-negative"),
        ({"flow_weights": np.ones((1, 1))}, "flow_weights: expected 1 weights"),
    ])
    def test_malformed_weights_rejected(self, bungalow_model, weights, match):
        with pytest.raises(q.ModelError, match=match):
            replace(bungalow_model, **weights)

    def test_weights_are_frozen_copies(self, house_model):
        given = np.array([2.0, 1.0])
        model = replace(house_model, output_weights=given)
        given[0] = 5.0
        assert model.output_weights.tolist() == [2.0, 1.0]
        with pytest.raises(ValueError):
            model.output_weights[0] = 0.0

    def test_replace_keeps_the_weights_bit_for_bit(self, house_model):
        # scaled to sum to one, 0.1 and 0.3 give 0.25 and 0.7499999999999999,
        # which scale again to 0.25000000000000006 and 0.75
        weighted = replace(house_model, output_weights=[0.1, 0.3],
                           flow_weights=[0.1, 0.3])
        again = replace(weighted, state_names=weighted.state_names)
        assert np.array_equal(again.output_weights, weighted.output_weights)
        assert np.array_equal(again.flow_weights, weighted.flow_weights)
        assert q.reference_H(again) == q.reference_H(weighted)
