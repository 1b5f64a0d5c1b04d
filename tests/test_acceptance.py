"""End-to-end acceptance checks.

Each test is one independently stated requirement with its tolerance and
(where bounded) its runtime budget; ``pytest -v`` prints one pass/fail
line per requirement.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import qubdoe as q
from conftest import rng
from oracles import (H_from_K, analytic_slopes, degree_day_H,
                     implicit_euler_richardson, mc_measurement_sigma, modal_sum,
                     nodal_conductance_matrix, stamped_steady_state)


@pytest.fixture(scope="module")
def buildings(bungalow, house, bungalow_model, house_model):
    return {"bungalow": (bungalow, bungalow_model),
            "house": (house, house_model)}


def all_outputs_model(circuit):
    return q.to_state_space(circuit, [n.id for n in circuit.nodes])


def indoor_model(circuit):
    outputs = [z.air_node for z in circuit.zones]
    return q.to_state_space(circuit, outputs)


def heating_inputs(model, P_h):
    """Input vectors (pre-experiment, heating) with boundaries at 0 and
    P_h split evenly across the heaters."""
    share = P_h / len(model.flow_inputs)
    u0 = np.zeros(len(model.input_names))
    u_h = np.array([0.0] * len(model.temperature_inputs)
                   + [share] * len(model.flow_inputs))
    return u0, u_h


def test_acceptance_01_first_order_H_exact_to_1e9_within_1s():
    """1000 random one-node buildings and protocols: the two-phase
    quotient built from tangent slopes recovers G to < 1e-9 relative."""
    r = rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        G = r.uniform(10.0, 500.0)
        C = r.uniform(1.0e5, 1.0e7)
        P_h = r.uniform(500.0, 5000.0)
        P_c = r.uniform(0.0, 0.5) * P_h
        t_qub = r.uniform(1800.0, 43200.0)
        t0 = r.uniform(0.0, t_qub)
        dT0_h = (P_h / G) * (1.0 - math.exp(-t_qub * r.uniform(0.1, 3.0) * G / C))
        dT_sw = dT0_h + r.uniform(0.1, 2.0)
        dT0_c = P_c / G + (dT_sw - P_c / G) * math.exp(-r.uniform(0.0, 1.0))
        alpha_h, alpha_c = analytic_slopes(G, C, P_h, P_c, dT0_h, dT0_c, t0)
        H = q.estimate_H(alpha_h, alpha_c, dT0_h, dT0_c, P_h, P_c)
        worst = max(worst, abs(H - G) / G)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst relative error {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_02_capacity_round_trip_to_1e8_within_1s():
    """1000 random (C, H, t0): the damped quotient C* = C e^(-t0 H/C) is
    inverted back to C within 1e-8 relative."""
    r = rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        C = 10.0 ** r.uniform(4.0, 8.0)
        H = 10.0 ** r.uniform(0.0, 3.0)
        t0 = r.uniform(0.0, 3.0) * C / H
        C_star = C * math.exp(-t0 * H / C)
        C_back = q.recover_C(C_star, H, t0)
        worst = max(worst, abs(C_back - C) / C)
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"worst relative error {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_03_partials_match_finite_differences_to_1e6_within_1s():
    """Analytic sensitivities of the quotient agree with central finite
    differences to < 1e-6 relative at >= 100 random valid points."""
    def quotient(v):
        a1, a2, t1, t2, p1, p2 = v
        return (p1 * a2 - p2 * a1) / (t1 * a2 - t2 * a1)

    r = rng(303)
    start = time.perf_counter()
    checked, worst = 0, 0.0
    while checked < 150:
        P_h = r.uniform(500.0, 3000.0)
        P_c = r.uniform(0.0, 0.4) * P_h
        dT_h = r.uniform(3.0, 20.0)
        dT_c = r.uniform(1.0, 0.9 * dT_h)
        ah = r.uniform(1.0e-5, 8.0e-4)
        ac = -r.uniform(1.0e-5, 8.0e-4)
        if abs(dT_h * ac - dT_c * ah) < 3.0e-4:
            continue  # keep clearly away from the degenerate manifold
        p = q.partials(ah, ac, P_h, P_c, dT_h, dT_c)
        got = np.array([p.dH_dalpha_h, p.dH_dalpha_c, p.dH_ddT_h,
                        p.dH_ddT_c, p.dH_dP_h, p.dH_dP_c])
        x0 = np.array([ah, ac, dT_h, dT_c, P_h, P_c])
        steps = np.abs(x0) * 1e-6 + np.array([1e-12, 1e-12, 1e-9, 1e-9, 1e-6, 1e-6])
        fd = np.empty(6)
        for k in range(6):
            hi = x0.copy(); hi[k] += steps[k]
            lo = x0.copy(); lo[k] -= steps[k]
            fd[k] = (quotient(hi) - quotient(lo)) / (2.0 * steps[k])
        worst = max(worst, float(np.max(np.abs(got - fd) / np.abs(fd))))
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst relative error {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_04_propagated_error_within_5pct_of_monte_carlo_1e6_within_60s():
    """First-order error propagation agrees with a 1e6-sample Monte
    Carlo to within 5% when every input is perturbed by <= 1% of its value."""
    start = time.perf_counter()
    P_h, P_c, dT_h, dT_c = 2000.0, 200.0, 12.0, 7.0
    ah, ac = 3.0e-4, -2.0e-4
    eps = {"alpha": 0.01 * min(abs(ah), abs(ac)),
           "P": 0.01 * min(P_h, P_c),
           "dT": 0.01 * min(dT_h, dT_c)}
    sens = q.partials(ah, ac, P_h, P_c, dT_h, dT_c)
    errors = q.MeasurementErrors(eps_alpha=eps["alpha"], eps_P=eps["P"],
                                 eps_dT=eps["dT"])
    eps_Hm = q.measurement_error(sens, errors)
    sigma_mc = mc_measurement_sigma(P_h, P_c, dT_h, dT_c, ah, ac, eps,
                                    1_000_000, seed=404)
    elapsed = time.perf_counter() - start
    assert eps_Hm == pytest.approx(sigma_mc, rel=0.05), (
        f"propagated {eps_Hm:.6g} vs sampled {sigma_mc:.6g}")
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_acceptance_05_exact_response_matches_implicit_euler_1e4_within_30s(buildings):
    """On both bundled buildings, the matrix-exponential step response
    deviates from an implicit-Euler reference at dt = tau_min/100 by
    < 1e-4 of the response scale."""
    start = time.perf_counter()
    for name, (circuit, model) in buildings.items():
        basis = q.eigendecompose(model)
        taus = -1.0 / basis.eigenvalues
        dt = float(taus.min()) / 100.0
        horizon = 2.0 * float(taus.max())
        n_steps = int(round(horizon / dt))
        u0, u_h = heating_inputs(model, 1000.0)
        x0 = q.initial_state(model, u0)
        path = implicit_euler_richardson(model.A, model.B, u_h, x0, dt, n_steps)
        stride = max(1, n_steps // 200)
        idx = np.arange(0, n_steps + 1, stride)
        times = idx * dt
        y_ref = path[idx] @ model.C.T + (model.D @ u_h)[None, :]
        y = q.step_response(model, u_h, x0, times, basis=basis)
        scale = float(np.abs(y_ref).max())
        dev = float(np.abs(y - y_ref).max()) / scale
        assert dev < 1e-4, f"{name}: relative deviation {dev:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_acceptance_06_temperature_gains_sum_to_one_1e10(buildings):
    """For every bundled building and every node taken as an output, the
    static gains from all temperature sources sum to exactly one."""
    for name, (circuit, model) in buildings.items():
        full = all_outputs_model(circuit)
        gains = q.static_gains(full)
        n_temp = len(full.temperature_inputs)
        sums = gains[:, :n_temp].sum(axis=1)
        err = float(np.abs(sums - 1.0).max())
        assert err < 1e-10, f"{name}: worst deviation {err:.3e}"


def test_acceptance_07_eigenvalues_real_and_strictly_negative(buildings):
    """Both bundled buildings have purely real, strictly negative state
    eigenvalues (|Im| < 1e-9 |Re|)."""
    for name, (circuit, model) in buildings.items():
        raw = np.linalg.eigvals(model.A)
        assert np.all(np.abs(raw.imag) < 1e-9 * np.abs(raw.real)), name
        assert np.all(raw.real < 0.0), name
        basis = q.eigendecompose(model)
        assert np.all(basis.eigenvalues < 0.0), name


def test_acceptance_08_modal_sum_reconstructs_response_1e8(buildings):
    """The per-mode decomposition re-sums to the matrix-exponential
    response at 10 random times per building, to 1e-8 of its scale."""
    r = rng(808)
    for name, (circuit, model) in buildings.items():
        basis = q.eigendecompose(model)
        taus = -1.0 / basis.eigenvalues
        u0, u_h = heating_inputs(model, 1500.0)
        x0 = q.initial_state(model, u0)
        decomp = q.modal_decomposition(model, u_h, x0, basis=basis)
        times = r.uniform(0.0, 3.0 * float(taus.max()), size=10)
        y_exact = q.step_response(model, u_h, x0, times, basis=basis)
        y_modal = modal_sum(decomp, times)
        scale = float(np.abs(y_exact).max())
        dev = float(np.abs(y_modal - y_exact).max()) / scale
        assert dev < 1e-8, f"{name}: relative deviation {dev:.3e}"


def test_acceptance_09_design_map_structure_on_bungalow_within_60s(bungalow):
    """Default 40x40 design sweep of the bungalow: the protocol bias
    |eps_qub| stays below 2% for every duration >= 4 h at every power,
    and a 3 h pulse exhibits all five mode classes a-e."""
    start = time.perf_counter()
    model = indoor_model(bungalow)
    H_ref = q.reference_H(model)
    ph_values, t_values = q.default_axes(H_ref, maintenance_power=0.0)
    template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                             t_qub=10800.0)
    grid = q.sweep(model, template, ph_values, t_values, q.ErrorPolicy())
    violations = [
        (cell.ph, cell.t_qub, cell.eps_qub_pct)
        for row in grid.cells for cell in row
        if cell.valid and cell.t_qub >= 4.0 * 3600.0
        and abs(cell.eps_qub_pct) >= 2.0
    ]
    n_long = sum(1 for row in grid.cells for cell in row
                 if cell.valid and cell.t_qub >= 4.0 * 3600.0)
    assert n_long > 0
    assert not violations, f"{len(violations)} cells >= 2%: {violations[:5]}"

    u0, u_h = heating_inputs(model, 1000.0)
    decomp = q.modal_decomposition(model, u_h, q.initial_state(model, u0))
    labels = {label for _, label in q.classify_modes(decomp, 10800.0)}
    assert labels == set("abcde"), f"classes at 3 h: {sorted(labels)}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_acceptance_10_conductance_cross_checks(bungalow, house):
    """Three independent aggregate-H routes agree to 1e-10 on the
    two-zone building, and the degree-day quotient lands within 0.1% of
    the static reference on the bungalow at a 20 tau_max horizon."""
    model = indoor_model(house)
    masses = np.array([z.air_mass for z in house.zones])
    total_P = 1000.0
    shares = total_P * masses / masses.sum()
    powers = {z.id: float(p) for z, p in zip(house.zones, shares)}

    H_house = q.reference_H(replace(model, output_weights=masses, flow_weights=masses))

    heater_at = {fs.node: fs.source_name for fs in house.flow_sources}
    sources = {name: 0.0 for name in house.temperature_sources}
    sources.update({heater_at[z.air_node]: powers[z.id] for z in house.zones})
    theta = stamped_steady_state(house, sources)
    rises = np.array([theta[z.air_node] for z in house.zones])
    mean_rise = float(masses @ rises) / float(masses.sum())
    H_direct = total_P / mean_rise

    K = nodal_conductance_matrix(house, [z.air_node for z in house.zones])
    H_K = H_from_K(K, masses, rises)

    assert H_house == pytest.approx(H_direct, rel=1e-10)
    assert H_K == pytest.approx(H_direct, rel=1e-10)

    bmodel = indoor_model(bungalow)
    H_ref = q.reference_H(bmodel)
    basis = q.eigendecompose(bmodel)
    tau_max = float((-1.0 / basis.eigenvalues).max())
    P = 1200.0
    u0, u_h = heating_inputs(bmodel, P)
    x0 = q.initial_state(bmodel, u_h)  # start already settled under P
    times = np.linspace(0.0, 20.0 * tau_max, 2001)
    dT = q.step_response(bmodel, u_h, x0, times, basis=basis)[:, 0]
    H_dd = degree_day_H(times, np.full_like(times, P), dT)
    assert H_dd == pytest.approx(H_ref, rel=1e-3)


def test_acceptance_11_sweeps_byte_identical_across_runs(bungalow):
    """Identical sweep inputs give byte-identical CSV output on repeat
    runs within one process."""
    model = indoor_model(bungalow)
    H_ref = q.reference_H(model)
    template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                             t_qub=10800.0)
    ph_values = np.geomspace(H_ref, 4.0 * H_ref, 6)
    t_values = np.linspace(7200.0, 28800.0, 5)

    def render():
        grid = q.sweep(model, template, ph_values, t_values, q.ErrorPolicy())
        return q.grid_to_csv(grid).encode("utf-8")

    reference = render()
    assert render() == reference               # repeatable
    assert render() == reference
