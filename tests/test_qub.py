"""Two-pulse simulation, slope fitting, and the H/C estimators."""
from __future__ import annotations

import io
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qubdoe as q
from qubdoe import qub
from conftest import Unseekable, make_first_order, rng
from oracles import (analytic_slopes, first_order_delta_T, polyfit_slope,
                     row_trace_from_csv, row_trace_to_csv, window_mask)


def proto(**kw):
    base = dict(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=10_000.0)
    base.update(kw)
    return q.QubProtocol(**base)


def first_order_model(G=100.0, C=1.0e6):
    return q.to_state_space(make_first_order(G, C), ["air"])


@pytest.fixture(scope="module")
def long_trace(bungalow_model):
    """The 1 s, 12 h bungalow record: 86,401 rows, many render chunks and
    parse slices."""
    return q.simulate_qub(bungalow_model, proto(P_h=1500.0, t_qub=43200.0,
                                                sample_dt=1.0))


def schema_error(parse, text):
    with pytest.raises(q.SchemaError) as info:
        parse(text)
    return str(info.value)


class TestProtocolValidation:
    def test_defaults(self):
        p = proto()
        assert p.effective_sample_dt == pytest.approx(10_000.0 / 120.0)

    @pytest.mark.parametrize("kw", [
        dict(t_qub=0.0),
        dict(t_qub=-5.0),
        dict(P_h=0.0, P_c=0.0),      # heating must exceed the cooling power
        dict(P_h=500.0, P_c=600.0),
        dict(P_c=-1.0),
        dict(P0=-1.0),
        dict(sample_dt=0.0),
        dict(sample_dt=501.0),       # just above t_qub/20
        dict(sample_dt=-1.0),
        dict(sample_dt=600.0),       # coarser than t_qub/20
        dict(t_qub=1e308),           # the experiment's end, 2*t_qub, overflows
    ])
    def test_rejects(self, kw):
        with pytest.raises(q.SchemaError):
            proto(**kw)

    def test_rejects_2_52_samples_per_phase(self):
        # float64 instants of a phase stop being distinct at 2**52 samples
        proto(t_qub=2.0 ** 52 - 1.0, sample_dt=1.0)
        for t_qub, sample_dt in ((2.0 ** 52, 1.0), (3600.0, 1e-16), (3600.0, 5e-324)):
            with pytest.raises(q.SchemaError, match=r"fewer than 2\*\*52 samples"):
                proto(t_qub=t_qub, sample_dt=sample_dt)

    @pytest.mark.parametrize("field", ["T_o", "P0", "P_h", "P_c", "t_qub"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(q.SchemaError, match=f"{field} must be finite"):
            proto(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_boundary_temperature(self, value):
        with pytest.raises(q.SchemaError,
                           match=r"boundary_temperatures\['T_g'\] must be finite"):
            proto(boundary_temperatures={"T_g": value})


class TestSimulate:
    def test_first_order_closed_form(self):
        G, C, P = 100.0, 1.0e6, 1000.0
        trace = q.simulate_qub(first_order_model(G, C), proto(P_h=P))
        tau, t_qub = C / G, 10_000.0
        # heating end and cooling end against the closed form
        dT_end_heat = (P / G) * (1.0 - np.exp(-t_qub / tau))
        dT_end_cool = dT_end_heat * np.exp(-t_qub / tau)
        heat = trace.delta_T[trace.heating]
        cool = trace.delta_T[trace.cooling]
        assert heat[-1] == pytest.approx(dT_end_heat, rel=1e-12)
        assert cool[-1] == pytest.approx(dT_end_cool, rel=1e-12)
        # every heating sample
        t_heat = trace.times[trace.heating]
        assert heat == pytest.approx(first_order_delta_T(G, C, P, t_heat),
                                     rel=1e-12)

    def test_trace_structure(self):
        trace = q.simulate_qub(first_order_model(), proto())
        assert trace.t_qub == pytest.approx(10_000.0)
        assert np.all(np.diff(trace.times) > 0.0)
        # the heating phase owns the switch sample; both phases have 120 steps
        assert trace.n_heating == 121 and trace.times.size == 241
        assert trace.times[trace.n_heating - 1] == trace.t_qub
        assert np.all(trace.power[trace.heating] == 1000.0)
        assert np.all(trace.power[trace.cooling] == 0.0)

    def test_nonzero_outdoor_and_preheat(self):
        # starting from the steady state held by P0, relative to T_o
        G, C = 100.0, 1.0e6
        trace = q.simulate_qub(first_order_model(G, C),
                               proto(T_o=5.0, P0=500.0, P_h=1500.0))
        assert trace.delta_T[0] == pytest.approx(5.0, rel=1e-9)  # 500/100

    def test_sample_dt_snaps_to_grid(self):
        trace = q.simulate_qub(first_order_model(),
                               proto(sample_dt=301.0))
        dt = np.diff(trace.times[trace.heating])
        assert np.allclose(dt, dt[0])
        assert trace.t_qub / dt[0] == pytest.approx(round(10_000.0 / 301.0))

    def test_below_maintenance_warns(self):
        # pre-heating stronger than the test pulse: the "heating" phase
        # actually cools the building
        with pytest.warns(UserWarning):
            q.simulate_qub(first_order_model(),
                           proto(P0=2000.0, P_h=1000.0, P_c=100.0))

    def test_boundary_temperatures_validated(self):
        with pytest.raises(q.ModelError):
            q.simulate_qub(first_order_model(),
                           proto(boundary_temperatures={"T_ground": 10.0}))

    def test_house_two_zone_weighting(self, house, house_model):
        masses = np.array([z.air_mass for z in house.zones])
        model = replace(house_model, output_weights=masses, flow_weights=masses)
        trace = q.simulate_qub(model, proto(P_h=3000.0, t_qub=14400.0))
        assert np.all(np.isfinite(trace.delta_T))
        heat = trace.delta_T[trace.heating]
        assert heat[-1] > heat[0]


class TestFitSlope:
    def test_exact_line(self):
        t = np.linspace(0.0, 9000.0, 61)
        y = 3.0 + 4.0e-4 * t
        power = np.full_like(t, 100.0)
        trace = q.QubTrace(times=t, delta_T=y.copy(), power=power, n_heating=31)
        fit = q.fit_slope(trace, "heating", window_fraction=0.5)
        assert fit.alpha == pytest.approx(4.0e-4, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0)
        # the reported value is taken at the window start
        assert fit.dT0 == pytest.approx(3.0 + 4.0e-4 * fit.t0, rel=1e-12)

    def test_matches_polyfit(self):
        # phases are rebased at their own origin: 0 for heating, the
        # switch time for cooling — giving both windows the same geometry
        trace = q.simulate_qub(first_order_model(), proto())
        for phase, origin in (("heating", 0.0), ("cooling", trace.t_qub)):
            fit = q.fit_slope(trace, phase, window_fraction=1.0 / 3.0)
            mask = trace.heating if phase == "heating" else trace.cooling
            t_rel = trace.times[mask] - origin
            span = t_rel[-1]
            sel = t_rel >= (2.0 / 3.0) * span - 1e-9 * span
            slope, value = polyfit_slope(t_rel[sel], trace.delta_T[mask][sel])
            assert fit.alpha == pytest.approx(slope, rel=1e-9)
            assert fit.dT0 == pytest.approx(value, rel=1e-9)
            assert fit.n_samples == int(sel.sum())

    def test_slope_at_window_centre_of_exponential(self):
        """With a window much shorter than the time constant, the fitted
        slope approaches the true derivative at the window centre."""
        G, C, P = 100.0, 1.0e6, 1000.0
        tau = C / G
        t_qub = 9000.0
        window = (tau / 10.0) / t_qub
        trace = q.simulate_qub(first_order_model(G, C),
                               proto(P_h=P, t_qub=t_qub, sample_dt=30.0))
        fit = q.fit_slope(trace, "heating", window_fraction=window)
        t_heat = trace.times[trace.heating]
        span = t_heat[-1]
        t_centre = span - 0.5 * window * span
        true_slope = (P / C) * np.exp(-t_centre / tau)
        assert fit.alpha == pytest.approx(true_slope, rel=5e-3)

    def test_needs_enough_samples(self):
        trace = q.simulate_qub(first_order_model(), proto())
        with pytest.raises(q.ModelError):
            q.fit_slope(trace, "heating", window_fraction=1e-6)

    @pytest.mark.parametrize("phase", ["heating", "cooling"])
    @pytest.mark.parametrize("window", [0.0, 1.1])
    def test_window_fraction_out_of_range(self, phase, window):
        trace = q.simulate_qub(first_order_model(), proto())
        with pytest.raises(q.ModelError, match=r"window_fraction must lie in \(0, 1\]"):
            q.fit_slope(trace, phase, window_fraction=window)

    def test_unknown_phase(self):
        trace = q.simulate_qub(first_order_model(), proto())
        with pytest.raises(q.ModelError):
            q.fit_slope(trace, "resting")

    def test_long_dots_add_their_slices_in_order(self):
        # whatever the BLAS thread count: no slice is long enough to be split
        a, b = np.random.default_rng(3).standard_normal((2, 3, 20_000))
        expected = [(x[:8192] @ y[:8192] + x[8192:16_384] @ y[8192:16_384])
                    + x[16_384:] @ y[16_384:] for x, y in zip(a, b)]
        assert qub._rowdot(a, b).tolist() == expected
        assert qub._rowdot(a[0, :8192], b[0, :8192]) == a[0, :8192] @ b[0, :8192]


@st.composite
def phase_clocks(draw):
    """Sample instants that never decrease, and the origin their clock
    counts from.  Past a large origin (a long t_qub) the steps fall below
    the spacing of floats there, so distinct offsets give equal instants,
    and the bound of the window can land on a run of them."""
    origin = draw(st.sampled_from([0.0, 3600.0, 43200.0, 2.0 ** 40, 1e15]))
    steps = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 60.0])
                          | st.floats(0.0, 1e4), min_size=1, max_size=60))
    return origin + np.cumsum([0.0, *steps]), origin


class TestWindowMatchesMask:
    """The fit window's slice selects exactly the samples of the oracle's
    mask over every sample, and the same inputs raise the same ModelError."""

    @staticmethod
    def outcome(select, *args):
        try:
            return select(*args).tolist()
        except q.ModelError as exc:
            return str(exc)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(clock=phase_clocks(),
           fraction=st.floats(0.0, 1.0, exclude_min=True)
           | st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.25, 1e-9, 0.0, -0.5, 1.5, np.nan]),
           phase=st.sampled_from(["heating", "cooling"]))
    def test_slice_selects_the_mask(self, clock, fraction, phase):
        times, origin = clock
        expected = self.outcome(lambda *a: np.flatnonzero(window_mask(*a)),
                                times, fraction, phase, origin)
        got = self.outcome(lambda *a: np.arange(times.size)[qub._window(*a)],
                           times, fraction, phase, origin)
        assert got == expected


class TestEstimators:
    def test_estimate_H_exact_on_first_order_quantities(self):
        """Tangent slopes and values taken at the same instants make the
        two-phase quotient exact, whatever the instants."""
        G, C = 120.0, 8.0e5
        P_h, P_c = 1500.0, 200.0
        t_qub = 7200.0
        r = rng(42)
        for _ in range(200):
            t0 = r.uniform(0.0, t_qub)
            dT0_h = first_order_delta_T(G, C, P_h, t0)
            dT_switch = first_order_delta_T(G, C, P_h, t_qub)
            dT0_c = first_order_delta_T(G, C, P_c, t0, dT_start=dT_switch)
            alpha_h = (P_h - G * dT0_h) / C
            alpha_c = (P_c - G * dT0_c) / C
            H = q.estimate_H(alpha_h, alpha_c, dT0_h, dT0_c, P_h, P_c)
            assert H == pytest.approx(G, rel=1e-9)

    def test_estimate_H_worked_value(self):
        # hand numbers: N = P_h α_c − P_c α_h, σ = ΔT_h α_c − ΔT_c α_h
        H = q.estimate_H(4.0e-4, -2.5e-4, 8.0, 5.0, 1000.0, 0.0)
        want = (1000.0 * -2.5e-4) / (8.0 * -2.5e-4 - 5.0 * 4.0e-4)
        assert H == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(62.5)

    def test_estimate_H_degenerate(self):
        # ΔT_h·α_c == ΔT_c·α_h: the two phases are proportional
        with pytest.raises(q.NumericalError):
            q.estimate_H(2.0e-4, 1.0e-4, 6.0, 3.0, 1000.0, 500.0)

    def test_estimate_C_exact_with_matched_instants(self):
        """Values and tangent slopes referenced to the same instant give
        the capacity with no exponential distortion."""
        G, C = 100.0, 1.0e6
        P_h, P_c, t_qub = 1200.0, 100.0, 8000.0
        for t0 in (0.0, 1500.0, 5000.0):
            dT0_h = first_order_delta_T(G, C, P_h, t0)
            dT_sw = first_order_delta_T(G, C, P_h, t_qub)
            dT0_c = first_order_delta_T(G, C, P_c, t0, dT_start=dT_sw)
            alpha_h = (P_h - G * dT0_h) / C
            alpha_c = (P_c - G * dT0_c) / C
            C_star = q.estimate_C(alpha_h, alpha_c, dT0_h, dT0_c, P_h, P_c)
            assert C_star == pytest.approx(C, rel=1e-9)

    def test_estimate_C_start_slope_late_value(self):
        """Slopes taken at the phase start paired with values taken at t0
        compress the apparent capacity by e^(−t0/τ) — the distortion the
        offset recovery undoes."""
        G, C = 100.0, 1.0e6
        P_h, P_c, t_qub = 1200.0, 100.0, 8000.0
        tau = C / G
        t0 = 5000.0
        dT0_h = first_order_delta_T(G, C, P_h, t0)
        dT_sw = first_order_delta_T(G, C, P_h, t_qub)
        dT0_c = first_order_delta_T(G, C, P_c, t0, dT_start=dT_sw)
        alpha_h = (P_h - G * first_order_delta_T(G, C, P_h, 0.0)) / C
        alpha_c = (P_c - G * dT_sw) / C
        C_star = q.estimate_C(alpha_h, alpha_c, dT0_h, dT0_c, P_h, P_c)
        assert C_star == pytest.approx(C * np.exp(-t0 / tau), rel=1e-9)
        recovered = q.recover_C(C_star, G, t0)
        assert recovered == pytest.approx(C, rel=1e-8)

    def test_analytic_slopes_helper(self):
        """The oracle's tangents equal the derivative of the closed-form
        response at t0 of each phase."""
        G, C = 100.0, 1.0e6
        P_h, P_c, t_qub, t0 = 1000.0, 100.0, 8000.0, 2500.0
        tau = C / G
        dT_sw = first_order_delta_T(G, C, P_h, t_qub)
        alpha_h, alpha_c = analytic_slopes(G, C, P_h, P_c, 0.0, dT_sw, t0)
        # derivative of ΔT(t) = P/G + (ΔT0 − P/G)e^(−t/τ) at t0
        want_h = -(0.0 - P_h / G) / tau * np.exp(-t0 / tau)
        want_c = -(dT_sw - P_c / G) / tau * np.exp(-t0 / tau)
        assert alpha_h == pytest.approx(want_h, rel=1e-12)
        assert alpha_c == pytest.approx(want_c, rel=1e-12)

    def test_first_order_response_helper(self):
        """The one-node response from a warm start, through the general
        step response, is the closed form."""
        G, C, P = 100.0, 1.0e6, 1000.0
        model = first_order_model(G, C)
        t = np.linspace(0.0, 3.0e4, 7)
        got = q.step_response(model, np.array([0.0, P]), np.array([2.0]), t)[:, 0]
        assert got == pytest.approx(first_order_delta_T(G, C, P, t, 2.0),
                                    rel=1e-12)


class TestRecoverC:
    def test_round_trip(self):
        r = rng(7)
        for _ in range(300):
            C = 10.0 ** r.uniform(4.5, 7.0)
            H = 10.0 ** r.uniform(1.0, 2.5)
            t0 = r.uniform(0.0, 4.0) * C / H
            C_star = C * np.exp(-t0 * H / C)
            assert q.recover_C(C_star, H, t0) == pytest.approx(C, rel=1e-8)

    def test_worked_example(self):
        C_star = 1.0e6 * np.exp(-1.0)
        assert q.recover_C(C_star, 100.0, 10_000.0) == pytest.approx(1.0e6,
                                                                     rel=1e-8)

    def test_zero_offset_is_identity(self):
        assert q.recover_C(3.3e5, 80.0, 0.0) == 3.3e5

    def test_invalid_inputs(self):
        with pytest.raises(q.QubdoeError):
            q.recover_C(-1.0, 100.0, 10.0)
        with pytest.raises(q.QubdoeError):
            q.recover_C(1.0e6, -5.0, 10.0)


class TestEstimateFromTrace:
    def test_first_order_H_is_exact(self):
        for window in (0.25, 1.0 / 3.0, 0.5, 0.9):
            trace = q.simulate_qub(first_order_model(), proto())
            est = q.estimate_from_trace(trace, window_fraction=window)
            assert est.H_qub == pytest.approx(100.0, rel=1e-9)

    def test_window_independence_on_first_order(self):
        trace = q.simulate_qub(first_order_model(), proto())
        values = [q.estimate_from_trace(trace, window_fraction=w).H_qub
                  for w in (0.2, 1.0 / 3.0, 0.5, 0.8)]
        assert np.ptp(values) <= 1e-6 * values[0]

    def test_capacity_chain(self):
        """C comes from the offset recovery applied to C*; both must obey
        the forward relation at the mean window-start offset."""
        trace = q.simulate_qub(first_order_model(), proto())
        est = q.estimate_from_trace(trace)
        t0 = 0.5 * (est.t0_h + est.t0_c)
        assert est.C * np.exp(-t0 * est.H_qub / est.C) == pytest.approx(
            est.C_star, rel=1e-8)
        assert est.tau == pytest.approx(est.C / est.H_qub)

    def test_powers_read_from_trace(self):
        trace = q.simulate_qub(first_order_model(),
                               proto(P_h=1400.0, P_c=300.0))
        est = q.estimate_from_trace(trace)
        assert est.H_qub == pytest.approx(100.0, rel=1e-9)

    def test_constant_trace_degenerate(self):
        t = np.linspace(0.0, 1000.0, 40)
        trace = q.QubTrace(times=t, delta_T=np.full_like(t, 5.0),
                           power=np.where(np.arange(40) < 20, 100.0, 0.0),
                           n_heating=20)
        with pytest.raises(q.NumericalError):
            q.estimate_from_trace(trace)

    def test_bungalow_long_pulse_near_reference(self, bungalow_model):
        H_ref = q.reference_H(bungalow_model)
        trace = q.simulate_qub(bungalow_model,
                               proto(P_h=1500.0, t_qub=8.0 * 3600.0))
        est = q.estimate_from_trace(trace)
        assert est.H_qub == pytest.approx(H_ref, rel=0.01)


class TestTraceCsv:
    def test_round_trip_bytes(self):
        trace = q.simulate_qub(first_order_model(), proto())
        text = q.trace_to_csv(trace)
        again = q.trace_from_csv(text)
        assert q.trace_to_csv(again) == text
        assert np.array_equal(again.times, trace.times)
        assert np.array_equal(again.delta_T, trace.delta_T)

    def test_header_enforced(self):
        with pytest.raises(q.SchemaError, match="first line"):
            q.trace_from_csv("a,b,c,d\n0,0,0,heating\n")

    def test_bad_line_number_reported(self):
        text = ("t_s,dT_K,power_W,phase\n"
                "0.0,0.0,100.0,heating\n"
                "10.0,0.5,100.0\n")
        with pytest.raises(q.SchemaError, match="line 3"):
            q.trace_from_csv(text)

    def test_trace_validation(self):
        t = np.linspace(0.0, 100.0, 10)
        with pytest.raises(q.SchemaError):
            q.QubTrace(times=t[::-1], delta_T=np.zeros(10),
                       power=np.zeros(10), n_heating=5)
        # both phases must be non-empty, and the count a whole number
        for n_heating in (0, 10, 5.0):
            with pytest.raises(q.SchemaError):
                q.QubTrace(times=t, delta_T=np.zeros(10), power=np.zeros(10),
                           n_heating=n_heating)

    @pytest.mark.parametrize("labels, match", [
        (["heating"] * 3 + ["warming"] + ["cooling"] * 3, "unknown phase label"),
        (["cooling"] * 4 + ["heating"] * 3, "start with heating"),
        (["heating"] * 4 + ["cooling"] * 2 + ["heating"], "end with cooling"),
        (["heating"] * 2 + ["cooling", "heating"] + ["cooling"] * 3, "exactly once"),
    ])
    def test_phase_labels_validated(self, labels, match):
        rows = "".join(f"{float(i)},0.0,0.0,{label}\n" for i, label in enumerate(labels))
        with pytest.raises(q.SchemaError, match=match):
            q.trace_from_csv("t_s,dT_K,power_W,phase\n" + rows)


#: floats whose bits a column render must keep apart: both zeros, nans
#: of two payloads and signs, both infinities, and values that round
NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001]).view(float)[0]
RENDER_FLOATS = [0.0, -0.0, np.nan, -np.nan, NAN_PAYLOAD, np.inf, -np.inf,
                 1500.0, 0.1, 5e-324, -1.7976931348623157e308]


@st.composite
def run_columns(draw, n):
    """A column of ``n`` floats as runs of one value, 1 to 16 rows long."""
    value = st.one_of(st.sampled_from(RENDER_FLOATS), st.floats())
    column = []
    while len(column) < n:
        column += [draw(value)] * draw(st.integers(1, 16))
    return np.array(column[:n])


def unchecked_trace(times, delta_T, power, n_heating):
    """A QubTrace built without its checks, so its columns may hold nan or
    ±inf and repeat a time: the render must write any float as the row
    oracle does."""
    trace = object.__new__(q.QubTrace)
    for name, value in (("times", times), ("delta_T", delta_T), ("power", power),
                        ("n_heating", n_heating)):
        object.__setattr__(trace, name, value)
    return trace


@st.composite
def render_traces(draw, chunk=7):
    """Traces of 4 to 40 rows whose columns are runs of one value (crossing
    chunk borders and the phase switch, or changing within a chunk, as a
    measured trace's power does), with the phase switch anywhere or on,
    just before or just after a chunk border."""
    n = draw(st.integers(4, 40))
    near_border = [b + d for b in range(chunk, n, chunk) for d in (-1, 0, 1)]
    n_heating = draw(st.one_of(st.integers(1, n - 1), st.sampled_from(near_border))
                     if near_border else st.integers(1, n - 1))
    return unchecked_trace(*(draw(run_columns(n)) for _ in range(3)),
                           n_heating=min(max(n_heating, 1), n - 1))


#: chunks of 0.0 beside -0.0, and of nans of three bit patterns beside ±inf
ZEROS_AND_NANS = (np.arange(14.0), np.array([0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0] * 2),
                  np.array([np.nan, NAN_PAYLOAD, -np.nan] * 4 + [np.inf, -np.inf]))


class TestTraceRenderMatchesRowOracle:
    """The render, a column of ``_RENDER_ROWS`` rows at a time, writes the
    row oracle's bytes."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(trace=render_traces())
    @example(trace=unchecked_trace(*ZEROS_AND_NANS, n_heating=6))
    @example(trace=unchecked_trace(*ZEROS_AND_NANS, n_heating=7))
    @example(trace=unchecked_trace(*ZEROS_AND_NANS, n_heating=8))
    def test_seven_rows_a_chunk(self, trace):
        with mock.patch.object(qub, "_RENDER_ROWS", 7):
            assert q.trace_to_csv(trace) == row_trace_to_csv(trace)


class TestTraceCsvChunks:
    """Parsing a trace given as a string, cut into ``_PARSE_CHARS`` slices."""

    def parse(self, text):
        return q.trace_from_csv(text)

    def test_long_trace_matches_row_oracle(self, long_trace):
        text = q.trace_to_csv(long_trace)
        assert text == row_trace_to_csv(long_trace)
        parsed, reference = self.parse(text), row_trace_from_csv(text)
        for got in (parsed, reference):
            assert got.n_heating == long_trace.n_heating == 43201
            assert np.array_equal(got.times, long_trace.times)
            assert np.array_equal(got.delta_T, long_trace.delta_T)
            assert np.array_equal(got.power, long_trace.power)

    def test_blank_lines_and_crlf(self, long_trace):
        lines = q.trace_to_csv(long_trace).splitlines()
        for k in range(0, len(lines), 997):
            lines[k] += "\n  \n"
        for text in ("\n".join(lines) + "\n", "\r\n".join(lines) + "\r\n",
                     "\n\n" + "\n".join(lines)):
            parsed, reference = self.parse(text), row_trace_from_csv(text)
            assert parsed.n_heating == reference.n_heating
            assert np.array_equal(parsed.times, reference.times)
            assert np.array_equal(parsed.delta_T, reference.delta_T)
            assert np.array_equal(parsed.power, reference.power)

    @pytest.mark.parametrize("bad", ["1.5,2.5,3.5", "1.5,2.5x,3.5,heating",
                                     "1.5,2.5,3.5,cooling,5"])
    def test_bad_line_past_first_slice(self, long_trace, bad):
        lines = q.trace_to_csv(long_trace).splitlines()
        lines[5] += "\n"  # a blank line, not counted in line numbers
        lines[60_000] = bad
        text = "\n".join(lines) + "\n"
        message = schema_error(self.parse, text)
        assert message == schema_error(row_trace_from_csv, text)
        assert message.startswith("trace line 60001: ")

    def test_unknown_labels_reported_sorted(self, long_trace):
        lines = q.trace_to_csv(long_trace).splitlines()
        for k, label in ((70_000, "warming"), (30_000, "idle"), (30_001, "idle")):
            lines[k] = lines[k].rsplit(",", 1)[0] + "," + label
        text = "\n".join(lines) + "\n"
        message = schema_error(self.parse, text)
        assert message == schema_error(row_trace_from_csv, text)
        assert message == "unknown phase label(s): ['idle', 'warming']"


class _ReadLog:
    """An open text file that notes the two characters around the cut
    between each read and the next."""

    def __init__(self, fh, cuts):
        self.fh, self.cuts, self.last = fh, cuts, ""

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def read(self, size):
        block = self.fh.read(size)
        if self.last and block:
            self.cuts.add(self.last[-1] + block[0])
        self.last = block
        return block

    def seek(self, *args):
        self.last = ""
        return self.fh.seek(*args)


class TestTraceCsvChunksFromFile(TestTraceCsvChunks):
    """The same cases read from an open file 4,099 characters at a time,
    a read size that is no multiple of the row lengths, so reads cut
    inside rows and, in CRLF text, inside ``\\r\\n`` pairs; each parse
    checks that they do.  The file is opened with ``newline=""``, so the
    parser sees exactly the string's characters, and must give the same
    traces, messages and line numbers."""

    @pytest.fixture(autouse=True)
    def odd_reads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qub, "_PARSE_CHARS", 4099)
        self.path = tmp_path / "trace.csv"

    def parse(self, text):
        self.path.write_text(text, encoding="utf-8", newline="")
        cuts = set()
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            try:
                return q.trace_from_csv(_ReadLog(fh, cuts))
            finally:
                assert any(not set(cut) & {"\r", "\n"} for cut in cuts)
                assert "\r\n" in cuts or "\r\n" not in text


class TestTraceCsvFastPath:
    """A canonical trace is read by numpy's reader alone: with the line loop
    made to raise, it still parses, from a string and from a file."""

    @pytest.fixture(autouse=True)
    def no_line_loop(self, monkeypatch):
        def refuse(rows, lines):
            raise AssertionError("a canonical piece went to the line loop")
        monkeypatch.setattr(qub, "_read_lines", refuse)

    def check(self, parsed, trace):
        assert parsed.n_heating == trace.n_heating
        for name in ("times", "delta_T", "power"):
            assert getattr(parsed, name).tobytes() == getattr(trace, name).tobytes()

    def test_string(self, long_trace):
        self.check(q.trace_from_csv(q.trace_to_csv(long_trace)), long_trace)

    def test_file(self, long_trace, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(q.trace_to_csv(long_trace), encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            self.check(q.trace_from_csv(fh), long_trace)

    def test_unseekable_stream(self, long_trace):
        # no read-ahead bound: the columns grow as the pieces arrive
        self.check(q.trace_from_csv(Unseekable(q.trace_to_csv(long_trace))), long_trace)


@pytest.mark.parametrize("text", ["", "abc", "a\nb", "a\n\nb\n", "x" * 100,
                                  "t_s\r\n" + "y" * 50 + "\n", "ab\rcd\rxyz" * 4,
                                  "abcdef\r\n" * 4, "a\u2028bcdefghi\x1cj\x85" * 3])
def test_file_slices_rejoin_to_the_text(text, monkeypatch):
    """One slicer reads a text and a file holding it into the same pieces:
    the data after the header line, each piece but the last ending at a
    line break of any kind ``str.splitlines`` knows."""
    head = " \n\t" + qub._TRACE_HEADER + " \r\n"
    monkeypatch.setattr(qub, "_PARSE_CHARS", 7)
    pieces = list(qub._slices(head + text))
    assert pieces == list(qub._slices(io.StringIO(head + text, newline="")))
    assert "".join(pieces) == text
    assert all((piece + "_").splitlines()[-1] == "_" for piece in pieces[:-1])
    assert all(pieces)


@pytest.mark.parametrize("head", [
    "t_s,dT_K,power_W,phase", "  \n\t\n t_s,dT_K,power_W,phase" + " " * 30,
    "t_s,dT_K,power_W,phase\u2028", "t_s,dT_K,power_W,phase" + " " * 20 + "x",
    "t_s,dT_K,power_W", "t_s,dT_K,power_W,phase,", "x" * 40, " " * 40])
def test_header_checked_as_it_is_read(head, tmp_path, monkeypatch):
    """A file read 7 characters at a time gives the row oracle's outcome
    whether the header is complete, padded, cut short or never there."""
    rows = [f"{t}.0,0.{t},1500.0,{'heating' if t < 2 else 'cooling'}" for t in range(4)]
    text = head + "\n" + "\n".join(rows) + "\n"
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8", newline="")
    monkeypatch.setattr(qub, "_PARSE_CHARS", 7)

    def parse(_):
        with open(path, encoding="utf-8", newline="") as fh:
            return q.trace_from_csv(fh)
    assert parse_outcome(parse, text) == parse_outcome(row_trace_from_csv, text)


# Field spellings that Python's float and numpy's reader may take
# differently, labels that are not exactly a known one (and the two known
# ones, to put a row in the wrong phase), and lines that are blank to one
# reader and not the other.
ODD_NUMBERS = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-Infinity",
               "+inf", "1e500", "-0.0", "1_0", " 1.5 ", "\t2", "\u0661\u0662",
               "\uff13", "\u30001", "\x1f1", "1\x1f", "\x001", "", " ", "0x10",
               "1d5", "1.5.", "--1", "1" * 400, "0." + "0" * 330 + "1"]
ODD_LABELS = ["heating", "cooling", "warming", "", " heating", "cooling ", "\theating", "heating\x1f",
              "heating\x00", "cooling\x00\x00", "heatingX", "heatingXY",
              "coolingcooling", "Heating", "heat", "cooling#", "cooli\u00f1g"]
BLANK_LINES = ["", "", "  ", "\t", "\x1f", "\u3000", "\x0c"]
HEADERS = ["t_s,dT_K,power_W,phase"] * 8 + [" t_s,dT_K,power_W,phase\t",
                                            "t_s,dT_K,power_W", "T_S,dT_K,power_W,phase"]


@st.composite
def trace_texts(draw):
    """Trace CSV text: canonical rows with up to two odd fields, labels,
    field counts or blank lines mixed in, and one kind of line end."""
    n = draw(st.integers(0, 30))
    n_heating = draw(st.integers(1, n - 1)) if n > 1 else n
    value = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[repr(float(i)), repr(draw(value)), repr(draw(value)),
             "heating" if i < n_heating else "cooling"] for i in range(n)]
    blank_after = {}
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i, kind = draw(st.integers(0, n - 1)), draw(st.sampled_from("nlcb"))
        if kind == "n":
            rows[i][draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_NUMBERS))
        elif kind == "l":
            rows[i][3:4] = [draw(st.sampled_from(ODD_LABELS))]
        elif kind == "c":
            rows[i] = rows[i][:3] if draw(st.booleans()) else rows[i] + ["5"]
        else:
            blank_after[i] = draw(st.sampled_from(BLANK_LINES))
    lines = [""] * draw(st.integers(0, 2)) + [draw(st.sampled_from(HEADERS))]
    for i, row in enumerate(rows):
        lines.append(",".join(row))
        if i in blank_after:
            lines.append(blank_after[i])
    end = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def parse_outcome(parse, text):
    """The parsed trace's bytes and n_heating, or the SchemaError message."""
    try:
        trace = parse(text)
    except q.SchemaError as exc:
        return str(exc)
    return (trace.times.tobytes(), trace.delta_T.tobytes(), trace.power.tobytes(),
            trace.n_heating)


class TestTraceCsvMatchesRowOracle:
    """Whatever the text, the parse gives the row oracle's trace bit for bit
    or its error message, whichever reader took each piece."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("traces") / "trace.csv"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=trace_texts(), chars=st.sampled_from([7, 64, 1 << 16]))
    def test_string(self, text, chars):
        with mock.patch.object(qub, "_PARSE_CHARS", chars):
            got = parse_outcome(q.trace_from_csv, text)
        assert got == parse_outcome(row_trace_from_csv, text)

    @pytest.mark.parametrize("chars", [7, 1 << 16])
    @pytest.mark.parametrize("column, odd", [(3, label) for label in ODD_LABELS]
                             + [(1, number) for number in ODD_NUMBERS]
                             + [(4, blank) for blank in BLANK_LINES])
    def test_one_odd_field(self, column, odd, chars, monkeypatch):
        """Row 6 of 12 gets an odd label or dT_K, or a blank line follows it."""
        rows = [[repr(float(i)), repr(0.1 * i), "1500.0", "heating" if i < 8 else "cooling"]
                for i in range(12)]
        lines = [",".join(row) for row in rows]
        if column == 4:
            lines[6] += "\n" + odd
        else:
            rows[6][column] = odd
            lines[6] = ",".join(rows[6])
        text = "t_s,dT_K,power_W,phase\n" + "\n".join(lines) + "\n"
        monkeypatch.setattr(qub, "_PARSE_CHARS", chars)
        assert (parse_outcome(q.trace_from_csv, text)
                == parse_outcome(row_trace_from_csv, text))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(text=trace_texts())
    def test_file_read_7_characters_at_a_time(self, text, path):
        path.write_text(text, encoding="utf-8", newline="")

        def parse(_):
            with open(path, encoding="utf-8", newline="") as fh:
                return q.trace_from_csv(fh)
        with mock.patch.object(qub, "_PARSE_CHARS", 7):
            got = parse_outcome(parse, text)
        assert got == parse_outcome(row_trace_from_csv, text)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(text=trace_texts())
    def test_unseekable_stream(self, text):
        with mock.patch.object(qub, "_PARSE_CHARS", 7):
            got = parse_outcome(lambda t: q.trace_from_csv(Unseekable(t, newline="")), text)
        assert got == parse_outcome(row_trace_from_csv, text)
