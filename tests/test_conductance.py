"""Static gains, the reference heat-loss coefficient, and the routes
that cross-check it."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import qubdoe as q
from conftest import input_vector, make_divider, make_first_order, make_ladder
from oracles import (H_from_K, degree_day_H, first_order_degree_day_integrals,
                     stamped_steady_state)


class TestStaticGains:
    def test_divider_gains(self):
        model = q.to_state_space(make_divider(G1=2.0, G2=3.0), ["mid"])
        K = q.static_gains(model)
        assert model.input_names == ("T_a", "T_b")
        assert K == pytest.approx(np.array([[0.4, 0.6]]), abs=1e-14)

    def test_first_order_gains(self):
        model = q.to_state_space(make_first_order(G=100.0), ["air"])
        K = q.static_gains(model)
        assert K == pytest.approx(np.array([[1.0, 0.01]]), rel=1e-12)

    def test_gains_match_steady_solve(self, house):
        model = q.to_state_space(house, [z.air_node for z in house.zones])
        K = q.static_gains(model)
        # superpose one source at a time and compare with a full solve
        for j, name in enumerate(model.input_names):
            values = {n: 0.0 for n in model.input_names}
            values[name] = 9.0
            theta = stamped_steady_state(house, values)
            for i, out in enumerate(model.output_names):
                assert K[i, j] * 9.0 == pytest.approx(theta[out], abs=1e-10)

    def test_temperature_gains_sum_to_one(self, bundled_models):
        for model in bundled_models.values():
            K = q.static_gains(model)
            cols = [j for j, kind in enumerate(model.input_kinds)
                    if kind == "temperature"]
            sums = K[:, cols].sum(axis=1)
            assert sums == pytest.approx(np.ones(len(sums)), abs=1e-10)


def mean_rise_H(circuit, model, temp_weights, power_weights, T_o=0.0):
    """Total power over the weighted mean steady rise, from the stamping
    oracle: 1000 W split by ``power_weights``, boundaries at ``T_o``."""
    shares = 1000.0 * np.asarray(power_weights) / np.sum(power_weights)
    values = {name: T_o for name in model.temperature_inputs}
    values.update(zip(model.flow_inputs, shares))
    theta = stamped_steady_state(circuit, values)
    rises = np.array([theta[name] - T_o for name in model.output_names])
    return 1000.0 / (np.dot(temp_weights, rises) / np.sum(temp_weights))


class TestReferenceH:
    def test_first_order(self):
        model = q.to_state_space(make_first_order(G=100.0), ["air"])
        assert q.reference_H(model) == pytest.approx(100.0)

    def test_ladder_equals_boundary_conductance(self):
        # all heat injected at the chain end leaves through the first link
        model = q.to_state_space(make_ladder(G=50.0), ["n4"])
        H = q.reference_H(model)
        # series chain: losses go through every link, so H is the series
        # combination of the five conductances
        gs = [50.0 * (1.0 + 0.1 * k) for k in range(5)]
        gs[0] = 50.0
        H_expected = 1.0 / sum(1.0 / g for g in gs)
        assert H == pytest.approx(H_expected, rel=1e-12)

    def test_bungalow_value(self, bungalow_model):
        H = q.reference_H(bungalow_model)
        assert 45.0 < H < 58.0

    def test_no_rise_rejected(self):
        # the sensor sits on a branch of its own that the heater never reaches
        circuit = q.parse_building(json.dumps({
            "nodes": [{"id": "air", "capacity": 1.0e6},
                      {"id": "shed", "capacity": 5.0e5}],
            "branches": [
                {"id": "loss", "from": "REF", "to": "air", "conductance": 100.0,
                 "temperature_source": "T_o"},
                {"id": "shed_loss", "from": "REF", "to": "shed",
                 "conductance": 40.0, "temperature_source": "T_o"},
            ],
            "flow_sources": [{"node": "shed", "source_name": "P"}],
        }))
        model = q.to_state_space(circuit, ["air", "shed"])
        shed = replace(model, output_weights=[0.0, 1.0])
        assert q.reference_H(shed) == pytest.approx(40.0)
        with pytest.raises(q.NumericalError, match="rise"):
            q.reference_H(replace(model, output_weights=[1.0, 0.0]))

    def test_no_heat_input_rejected(self):
        model = q.to_state_space(make_divider(), ["mid"])
        with pytest.raises(q.ModelError, match="heat-flow"):
            q.reference_H(model)


def mass_weighted(circuit, model):
    """The model with both weights set to the zone air masses."""
    masses = [z.air_mass for z in circuit.zones]
    return replace(model, output_weights=masses, flow_weights=masses), masses


class TestZoneAggregation:
    def test_mean_zone_temperature_mass_weighted(self, house, house_model):
        model, masses = mass_weighted(house, house_model)
        H = q.reference_H(model)
        assert H == pytest.approx(mean_rise_H(house, house_model, masses, masses),
                                  rel=1e-10)

    def test_overall_H_multizone_house(self, house, house_model):
        model, _ = mass_weighted(house, house_model)
        assert 90.0 < q.reference_H(model) < 140.0

    def test_overall_H_independent_of_outdoor_level(self, house, house_model):
        model, masses = mass_weighted(house, house_model)
        H9 = mean_rise_H(house, house_model, masses, masses, T_o=9.0)
        assert q.reference_H(model) == pytest.approx(H9, rel=1e-10)

    def test_zero_power_rejected(self, house_model):
        with pytest.raises(q.ModelError, match="flow_weights"):
            q.reference_H(replace(house_model, flow_weights=[0.0, 0.0]))

    def test_H_from_K_requires_two_zones(self):
        with pytest.raises(q.ModelError, match="2x2"):
            H_from_K(np.array([[42.0]]), np.array([1.0]), np.array([5.0]))

    def test_H_from_K_hand_value(self):
        K = np.array([[30.0, -10.0], [-10.0, 25.0]])
        masses = np.array([2.0, 1.0])
        theta = np.array([6.0, 3.0])
        want = ((30.0 - 10.0) * 6.0 + (-10.0 + 25.0) * 3.0) \
            / ((2.0 * 6.0 + 1.0 * 3.0) / 3.0)
        assert H_from_K(K, masses, theta) == pytest.approx(want, rel=1e-12)

    def test_H_from_K_equal_temperatures(self):
        # equal zone temperatures: H is the sum of all exterior paths
        K = np.array([[30.0, -10.0], [-10.0, 25.0]])
        H = H_from_K(K, np.array([2.0, 1.0]), np.array([4.0, 4.0]))
        assert H == pytest.approx((30.0 - 10.0) + (25.0 - 10.0))


class TestDegreeDay:
    def test_constant_series(self):
        t = np.linspace(0.0, 3600.0, 100)
        H = degree_day_H(t, np.full_like(t, 500.0), np.full_like(t, 5.0))
        assert H == pytest.approx(100.0, rel=1e-12)

    def test_steady_start_recovers_conductance(self):
        # starting from the heated steady state the ratio is exact
        G, C, P = 100.0, 1.0e6, 1000.0
        model = q.to_state_space(make_first_order(G, C), ["air"])
        tau = C / G
        times = np.linspace(0.0, 20.0 * tau, 400)
        u = input_vector(model, {"T_o": 0.0, "P": P})
        x0 = q.initial_state(model, u)
        dT = q.step_response(model, u, x0, times)[:, 0]
        H = degree_day_H(times, np.full_like(times, P), dT)
        assert H == pytest.approx(G, rel=1e-3)

    def test_from_rest_bias_matches_closed_form(self):
        # starting cold, the ratio overshoots by 20/19 at twenty time
        # constants; check against the exact integrals
        G, C, P = 100.0, 1.0e6, 1000.0
        model = q.to_state_space(make_first_order(G, C), ["air"])
        tau = C / G
        horizon = 20.0 * tau
        times = np.linspace(0.0, horizon, 20001)
        u = input_vector(model, {"T_o": 0.0, "P": P})
        dT = q.step_response(model, u, np.zeros(1), times)[:, 0]
        H = degree_day_H(times, np.full_like(times, P), dT)
        int_P, int_dT = first_order_degree_day_integrals(G, C, P, horizon)
        assert H == pytest.approx(int_P / int_dT, rel=1e-6)
        assert H == pytest.approx(G * 20.0 / 19.0, rel=1e-4)


class TestReport:
    def test_bungalow_report(self, bungalow_model):
        # one heater and one sensor: H is the reciprocal of that static gain
        K = q.static_gains(bungalow_model)
        j = bungalow_model.input_names.index("P_heat")
        assert q.reference_H(bungalow_model) == 1.0 / K[0, j]
