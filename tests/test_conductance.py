"""Static gains, heat-loss coefficients, and their aggregation routes."""
from __future__ import annotations

import numpy as np
import pytest

import qubdoe as q
from conftest import make_divider, make_first_order, make_ladder
from oracles import (H_from_K, first_order_degree_day_integrals,
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


class TestReferenceH:
    def test_first_order(self):
        model = q.to_state_space(make_first_order(G=100.0), ["air"])
        assert q.reference_H_single(model, "P", "air") == pytest.approx(100.0)

    def test_ladder_equals_boundary_conductance(self):
        # all heat injected at the chain end leaves through the first link
        model = q.to_state_space(make_ladder(G=50.0), ["n4"])
        H = q.reference_H_single(model, "P", "n4")
        # series chain: losses go through every link, so H is the series
        # combination of the five conductances
        gs = [50.0 * (1.0 + 0.1 * k) for k in range(5)]
        gs[0] = 50.0
        H_expected = 1.0 / sum(1.0 / g for g in gs)
        assert H == pytest.approx(H_expected, rel=1e-12)

    def test_unknown_names(self, bungalow_model):
        with pytest.raises(q.ModelError):
            q.reference_H_single(bungalow_model, "nope", "air")
        with pytest.raises(q.ModelError):
            q.reference_H_single(bungalow_model, "P_heat", "nope")

    def test_bungalow_value(self, bungalow_model):
        H = q.reference_H_single(bungalow_model, "P_heat", "air")
        assert 45.0 < H < 58.0


class TestZoneAggregation:
    def test_mean_zone_temperature_mass_weighted(self, house):
        temps = {"z1": 20.0, "z2": 24.0}
        mean = q.mean_zone_temperature(temps, house.zones, weighting="mass")
        assert mean == pytest.approx(22.0)  # equal masses

    def test_mean_zone_temperature_area_weighted(self):
        zones = (q.Zone(id="a", air_node="x", floor_area=10.0, air_mass=1.0),
                 q.Zone(id="b", air_node="y", floor_area=30.0, air_mass=1.0))
        mean = q.mean_zone_temperature({"a": 20.0, "b": 24.0}, zones,
                                       weighting="area")
        assert mean == pytest.approx(23.0)

    def test_overall_H_multizone_house(self, house, house_model):
        powers = {z.id: 1000.0 for z in house.zones}
        H = q.overall_H_multizone(house_model, powers, 0.0, house.zones,
                                  zone_inputs=q.zone_heat_inputs(house))
        assert 90.0 < H < 140.0

    def test_overall_H_independent_of_outdoor_level(self, house, house_model):
        powers = {z.id: 800.0 for z in house.zones}
        kwargs = dict(zones=house.zones, zone_inputs=q.zone_heat_inputs(house))
        H0 = q.overall_H_multizone(house_model, powers, 0.0, **kwargs)
        H9 = q.overall_H_multizone(house_model, powers, 9.0, **kwargs)
        assert H9 == pytest.approx(H0, rel=1e-10)

    def test_zero_power_rejected(self, house, house_model):
        with pytest.raises(q.QubdoeError):
            q.overall_H_multizone(house_model, {"z1": 0.0, "z2": 0.0}, 0.0,
                                  house.zones,
                                  zone_inputs=q.zone_heat_inputs(house))

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
        H = q.degree_day_H(t, np.full_like(t, 500.0), np.full_like(t, 5.0))
        assert H == pytest.approx(100.0, rel=1e-12)

    def test_steady_start_recovers_conductance(self):
        # starting from the heated steady state the ratio is exact
        G, C, P = 100.0, 1.0e6, 1000.0
        model = q.to_state_space(make_first_order(G, C), ["air"])
        tau = C / G
        times = np.linspace(0.0, 20.0 * tau, 400)
        u = model.input_vector({"T_o": 0.0, "P": P})
        x0 = q.initial_state(model, u)
        dT = q.step_response(model, u, x0, times)[:, 0]
        H = q.degree_day_H(times, np.full_like(times, P), dT)
        assert H == pytest.approx(G, rel=1e-3)

    def test_from_rest_bias_matches_closed_form(self):
        # starting cold, the ratio overshoots by 20/19 at twenty time
        # constants; check against the exact integrals
        G, C, P = 100.0, 1.0e6, 1000.0
        model = q.to_state_space(make_first_order(G, C), ["air"])
        tau = C / G
        horizon = 20.0 * tau
        times = np.linspace(0.0, horizon, 20001)
        u = model.input_vector({"T_o": 0.0, "P": P})
        dT = q.step_response(model, u, np.zeros(1), times)[:, 0]
        H = q.degree_day_H(times, np.full_like(times, P), dT)
        int_P, int_dT = first_order_degree_day_integrals(G, C, P, horizon)
        assert H == pytest.approx(int_P / int_dT, rel=1e-6)
        assert H == pytest.approx(G * 20.0 / 19.0, rel=1e-4)

    def test_non_monotone_times_rejected(self):
        t = np.array([0.0, 10.0, 5.0])
        with pytest.raises(q.QubdoeError):
            q.degree_day_H(t, np.ones(3), np.ones(3))


class TestReport:
    def test_bungalow_report(self, bungalow_model):
        report = q.conductance_report(bungalow_model, "P_heat", "air")
        assert report.H == pytest.approx(
            q.reference_H_single(bungalow_model, "P_heat", "air"))
        assert report.R == pytest.approx(1.0 / report.H)
        assert report.temperature_gain_sums == pytest.approx(
            np.ones(len(report.output_names)), abs=1e-10)
