"""Design sweeps: grid evaluation, determinism, optimum selection."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubdoe as q
import qubdoe.qub as qub
from qubdoe.cli import main
from conftest import assert_matches_reference, make_first_order
from oracles import grid_from_cells, reference_select, reference_sweep


def small_sweep(ph=(500.0, 1000.0, 2000.0), t=(4000.0, 8000.0),
                P_c=0.0, policy=None):
    circuit = make_first_order(G=100.0, C=1.0e6)
    model = q.to_state_space(circuit, ["air"])
    template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=P_c, t_qub=6000.0)
    if policy is None:
        policy = q.ErrorPolicy(eps_dT=0.5, eps_P_rel=0.01, eps_alpha=1.0e-6)
    return q.sweep(model, template, ph, t, policy)


def hand_cell(ph, t, eps=1.0, theta=30.0, valid=True):
    return q.DoeCell(ph=ph, t_qub=t, H_qub=100.0, eps_qub_pct=eps / 2.0,
                     eps_Hm=1.0, eps_H_pct=eps, theta_max=theta, valid=valid)


class TestSweep:
    def test_shape_and_axis_pairing(self):
        grid = small_sweep()
        assert grid.ph_values.shape == (3,) and grid.t_values.shape == (2,)
        assert len(grid.cells) == 2 and all(len(r) == 3 for r in grid.cells)
        for i, t in enumerate(grid.t_values):
            for j, ph in enumerate(grid.ph_values):
                assert grid.cells[i][j].t_qub == t
                assert grid.cells[i][j].ph == ph

    def test_cells_accurate_on_first_order(self):
        # the estimator is exact on a single-mode model, so every valid
        # cell must recover H no matter where it sits on the grid
        grid = small_sweep()
        for row in grid.cells:
            for cell in row:
                assert cell.valid
                assert cell.H_qub == pytest.approx(100.0, rel=1e-6)
                assert abs(cell.eps_qub_pct) < 1e-4
                assert cell.eps_H_pct >= cell.eps_qub_pct
                assert cell.theta_max == pytest.approx(
                    cell.ph / 100.0 * (1.0 - math.exp(-cell.t_qub / 1e4)),
                    rel=1e-9)

    def test_subgrid_cells_bit_identical(self):
        # each cell is a pure function of (model, template, ph, t); the
        # surrounding grid must not leak into it
        full = small_sweep()
        sub = small_sweep(ph=(1000.0, 2000.0), t=(8000.0,))
        assert sub.cells[0][0] == full.cells[1][1]
        assert sub.cells[0][1] == full.cells[1][2]

    def test_bad_reference_and_empty_axes(self):
        # the sensor node never sees the heater: there is no reference H
        doc = {
            "nodes": [{"id": "air", "capacity": 1.0e6},
                      {"id": "shed", "capacity": 5.0e5}],
            "branches": [
                {"id": "loss", "from": "REF", "to": "air", "conductance": 100.0,
                 "temperature_source": "T_o"},
                {"id": "shed_loss", "from": "REF", "to": "shed",
                 "conductance": 40.0, "temperature_source": "T_o"},
            ],
            "flow_sources": [{"node": "shed", "source_name": "P"}],
        }
        blind = q.to_state_space(q.parse_building(json.dumps(doc)), ["air"])
        model = q.to_state_space(make_first_order(), ["air"])
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=6000.0)
        policy = q.ErrorPolicy(eps_dT=0.5, eps_P_rel=0.0, eps_alpha=0.0)
        with pytest.raises(q.NumericalError, match="rise"):
            q.sweep(blind, template, [1000.0], [4000.0], policy)
        with pytest.raises(q.ModelError):
            q.sweep(model, template, [], [4000.0], policy)


# (building, template fields, error policy, sweep keywords): warm starts
# off T_o = 0, cooling power above some heating powers, a second boundary
# temperature, a sampling step kept for long and dropped for short pulses,
# a window too short to fit at the shorter durations, and every way of
# setting the measurement errors
REFERENCE_CASES = {
    "warm-start": ("bungalow", dict(T_o=5.0, P0=400.0), q.ErrorPolicy(), {}),
    "cooling-power": ("bungalow", dict(P_c=300.0), q.ErrorPolicy(eps_alpha=2.0e-6), {}),
    "ground-14": ("house", dict(P_c=150.0, sample_dt=600.0,
                                boundary_temperatures={"T_g": 14.0}),
                  q.ErrorPolicy(eps_P_rel=0.005), {}),
    "house-fixed": ("house", dict(T_o=-3.0, P0=200.0, sample_dt=60.0),
                    q.ErrorPolicy(eps_dT=0.5, eps_P_rel=0.02, eps_alpha=1.0e-6), {}),
    "short-window": ("bungalow", dict(sample_dt=60.0), q.ErrorPolicy(),
                     dict(window_fraction=0.01)),
    # r²-based slope errors over windows whose length differs by duration
    "house-r2": ("house", dict(sample_dt=60.0), q.ErrorPolicy(), {}),
    # windows of 121 to 1921 samples: the three shorter durations share a
    # group of records, the longest takes one alone
    "fine-sampling": ("bungalow", dict(sample_dt=5.0), q.ErrorPolicy(), {}),
}


class TestAgainstPerCellReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_bundled_buildings(self, case, bungalow, house):
        name, fields, policy, sweep_kw = REFERENCE_CASES[case]
        circuit = {"bungalow": bungalow, "house": house}[name]
        # the model and zone weights the CLI sweeps
        model = q.to_state_space(circuit)
        template = q.QubProtocol(**{"T_o": 0.0, "P0": 0.0, "P_h": 1000.0,
                                    "P_c": 0.0, "t_qub": 43200.0, **fields})
        args = (model, template, np.geomspace(100.0, 3000.0, 7),
                np.linspace(1800.0, 28800.0, 4), policy)
        grid = q.sweep(*args, **sweep_kw)
        assert_matches_reference(grid, reference_sweep(*args, **sweep_kw))
        if case == "short-window":
            # the windows of the two shortest durations hold < 3 samples
            assert [any(c.valid for c in row) for row in grid.cells] == [
                False, False, True, True]
        elif case == "house-r2":
            assert all(c.valid for row in grid.cells for c in row)
        else:
            assert any(c.valid for row in grid.cells for c in row)

    def test_mixed_output(self, mixed_output_model):
        # one output row over eight states, so every response block ends in
        # a matrix-vector product; each cell still equals its lone run
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=43200.0)
        args = (mixed_output_model, template, np.geomspace(100.0, 3000.0, 40),
                np.linspace(3600.0, 43200.0, 6), q.ErrorPolicy())
        grid, reference = q.sweep(*args), reference_sweep(*args)
        assert_matches_reference(grid, reference)
        assert grid.valid.all()
        for name in ("eps_Hm", "eps_H_pct"):
            assert np.array_equal(getattr(grid, name), getattr(reference, name)), name

    def test_peak_outside_both_fit_windows(self, bungalow):
        # below the pre-experiment power the indoor temperature falls through
        # both phases, so its peak is the steady start, before either window
        model = q.to_state_space(bungalow)
        _, fields, policy, _ = REFERENCE_CASES["warm-start"]
        template = q.QubProtocol(**{"P_h": 1000.0, "P_c": 0.0, "t_qub": 43200.0, **fields})
        args = (model, template, [100.0, 200.0, 300.0], [7200.0, 28800.0], policy)
        grid = q.sweep(*args)
        assert_matches_reference(grid, reference_sweep(*args))
        for row in grid.cells:
            for cell in row:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # below the maintenance power
                    trace = q.simulate_qub(model, replace(template, P_h=cell.ph,
                                                          t_qub=cell.t_qub))
                windows = [trace.delta_T[part][qub._window(
                    trace.times[part] - start, qub._WINDOW_FRACTION, phase)]
                    for part, start, phase in ((trace.heating, 0.0, "heating"),
                                               (trace.cooling, trace.t_qub, "cooling"))]
                assert cell.theta_max == pytest.approx(template.T_o + trace.delta_T[0],
                                                       rel=1e-12, abs=0.0)
                assert cell.theta_max > template.T_o + max(w.max() for w in windows)

    @pytest.mark.parametrize("P0", [0.0, 800.0])
    def test_massless_sensor_feedthrough(self, P0):
        # the heated air node has no capacity, so its temperature jumps
        # with the power (D ≠ 0) and the peak takes the feedthrough term
        doc = {"nodes": [{"id": "air", "capacity": 0.0}, {"id": "wall", "capacity": 5.0e6},
                         {"id": "mass", "capacity": 2.0e6}],
               "branches": [{"id": "ao", "from": "REF", "to": "air", "conductance": 40.0,
                             "temperature_source": "T_o"},
                            {"id": "aw", "from": "air", "to": "wall", "conductance": 200.0},
                            {"id": "wo", "from": "REF", "to": "wall", "conductance": 30.0,
                             "temperature_source": "T_o"},
                            {"id": "am", "from": "air", "to": "mass", "conductance": 80.0}],
               "flow_sources": [{"node": "air", "source_name": "P"}]}
        model = q.to_state_space(q.parse_building(json.dumps(doc)), ["air"])
        assert model.D.any()
        template = q.QubProtocol(T_o=3.0, P0=P0, P_h=1000.0, P_c=100.0, t_qub=20000.0)
        args = (model, template, np.geomspace(150.0, 3000.0, 6), [3600.0, 14400.0],
                q.ErrorPolicy())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reference warns below maintenance
            assert_matches_reference(q.sweep(*args), reference_sweep(*args))

    def test_block_boundaries_do_not_matter(self, bungalow_model):
        # more powers than one stacked block holds (2881 samples a record)
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                                 t_qub=10800.0, sample_dt=10.0)
        args = (bungalow_model, template, np.geomspace(60.0, 240.0, 40),
                [28800.0], q.ErrorPolicy())
        assert_matches_reference(q.sweep(*args), reference_sweep(*args))

    # the per-cell reference chain runs without the sweep's errstate guard
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_budgets_are_invalid(self, bungalow_model):
        # at 1e-150 W and 1e150 W the error budget under- or overflows
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=10800.0)
        args = (bungalow_model, template, np.geomspace(1e-300, 1e300, 5),
                [3600.0, 7200.0], q.ErrorPolicy())
        grid = q.sweep(*args)
        assert_matches_reference(grid, reference_sweep(*args))
        for row in grid.cells:
            assert [c.valid for c in row] == [c.ph == 1.0 for c in row]
            assert all(np.isfinite(c.eps_H_pct) == c.valid for c in row)


def kernel_calls(monkeypatch):
    """The sweep's kernel calls from now on, as (name, instants): the size
    of ``step_response``'s times or of ``state_at``'s switch times, one
    per duration of a group."""
    calls = []
    for name in ("state_at", "step_response"):
        def counting(model, u, x0, t, *args, _name=name, _kernel=getattr(qub, name), **kwargs):
            calls.append((_name, np.size(t)))
            return _kernel(model, u, x0, t, *args, **kwargs)
        monkeypatch.setattr(qub, name, counting)
    return calls


class TestDurationGroups:
    """A sweep runs consecutive durations as one group, whose records for
    all powers take at most one block of floats; a row must not depend on
    the durations it shares its group with."""

    # building, protocol fields, powers, durations, durations per switch-state call
    CASES = {
        # the first 12 durations of the default bungalow grid: 41-sample
        # windows of 40 powers make groups of 9 and 3
        "two-groups": ("bungalow", {}, np.geomspace(100.0, 400.0, 40),
                       np.linspace(3600.0, 43200.0, 40)[:12], [9, 3]),
        # 600 s sampling from 14,400 s on: windows of 41, then 9 to 25 samples
        "ragged": ("house", dict(P_c=150.0, sample_dt=600.0,
                                 boundary_temperatures={"T_g": 14.0}),
                   np.geomspace(200.0, 3000.0, 7), np.linspace(3600.0, 43200.0, 12), [12]),
        # a P_c whose mean over a record's held samples, as the estimators
        # read it, is one float per duration and not the same at all of them
        "inexact-P_c": ("bungalow", dict(P_c=333.3, sample_dt=600.0),
                        np.geomspace(400.0, 3000.0, 7), np.linspace(3600.0, 43200.0, 12), [12]),
        # at 10 s sampling 28,800 s takes more than a block alone (961
        # samples a window), so it runs in three blocks of powers
        "above-block": ("bungalow", dict(sample_dt=10.0), np.geomspace(60.0, 240.0, 40),
                        np.array([3600.0, 7200.0, 28800.0]), [2, 1, 1, 1]),
        # the top power's records overflow; every budget but 1 W's over- or
        # underflows
        "non-finite": ("tiny", {}, np.geomspace(1e-300, 1e300, 5),
                       np.array([3600.0, 7200.0, 10800.0]), [3]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_equal_lone_durations(self, case, bungalow_model, house_model, monkeypatch):
        name, fields, ph, t_values, calls = self.CASES[case]
        model = {"bungalow": bungalow_model, "house": house_model,
                 "tiny": q.to_state_space(make_first_order(G=1e-12, C=1e-6), ["air"])}[name]
        template = q.QubProtocol(**{"T_o": 0.0, "P0": 0.0, "P_h": 1000.0, "P_c": 0.0,
                                    "t_qub": 43200.0, **fields})
        kernel = kernel_calls(monkeypatch)
        grid = q.sweep(model, template, ph, t_values, q.ErrorPolicy())
        assert [n for kind, n in kernel if kind == "state_at"] == calls
        for i, t in enumerate(t_values):
            lone = q.sweep(model, template, ph, [t], q.ErrorPolicy())
            for column in ("H_qub", "eps_qub_pct", "eps_Hm", "eps_H_pct", "theta_max"):
                assert np.array_equal(getattr(grid, column)[i], getattr(lone, column)[0],
                                      equal_nan=True), (column, t)
            assert np.array_equal(grid.valid[i], lone.valid[0]), t
        if case == "non-finite":
            assert np.isnan(grid.theta_max[:, -1]).all()
            assert [list(row) for row in grid.valid] == [[False, False, True, False, False]] * 3

    def test_default_sweep_calls_the_kernel_three_times_a_group(self, bungalow_model,
                                                                 monkeypatch):
        # 40 durations of 41-sample windows for 40 powers: five groups
        kernel = kernel_calls(monkeypatch)
        ph, t = q.default_axes(q.reference_H(bungalow_model), 0.0)
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=ph[-1], P_c=0.0, t_qub=t[-1])
        q.sweep(bungalow_model, template, ph, t, q.ErrorPolicy())
        assert [kind for kind, _ in kernel] == ["state_at", "step_response",
                                                 "step_response"] * 5


class TestNoWarnings:
    def test_invalid_and_sub_maintenance_cells_are_silent(self):
        # the cooling power voids the lowest heating power; the warm
        # start puts the middle one below maintenance
        seeing = q.to_state_space(make_first_order(G=100.0, C=1.0e6), ["air"])
        template = q.QubProtocol(T_o=2.0, P0=500.0, P_h=1000.0, P_c=50.0,
                                 t_qub=6000.0)
        ph = [40.0, 300.0, 2000.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = q.sweep(seeing, template, ph, [4000.0, 8000.0],
                           q.ErrorPolicy())
        assert [c.valid for c in grid.cells[0]] == [False, True, True]
        # below maintenance the peak is the starting temperature
        assert grid.cells[0][1].theta_max == pytest.approx(2.0 + 500.0 / 100.0)


def no_response(*args, **kwargs):
    raise AssertionError("a response was computed")


class TestStructuralMisuse:
    def test_unknown_boundary_raises_before_the_grid(self, bungalow_model):
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                                 t_qub=10800.0,
                                 boundary_temperatures={"T_bogus": 3.0})
        with pytest.raises(q.ModelError, match="T_bogus"):
            q.sweep(bungalow_model, template, [1000.0], [7200.0],
                    q.ErrorPolicy())

    @pytest.mark.parametrize("weights", [
        {"output_weights": [1.0, 1.0]},
        {"flow_weights": [-1.0]},
        {"flow_weights": [0.0]},
    ])
    def test_bad_weights_raise_before_the_grid(self, bungalow_model, weights):
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                                 t_qub=10800.0)
        with pytest.raises(q.ModelError, match="weights"):
            q.sweep(replace(bungalow_model, **weights), template, [1000.0], [7200.0],
                    q.ErrorPolicy())

    def test_window_too_short_for_every_duration(self, bungalow_model):
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                                 t_qub=10800.0)
        with pytest.raises(q.ModelError, match="window holds only"):
            q.sweep(bungalow_model, template, [1000.0], [3600.0, 43200.0],
                    q.ErrorPolicy(), window_fraction=1.0e-4)

    def test_window_checked_before_any_response(self, bungalow_model, monkeypatch):
        monkeypatch.setattr(qub, "step_response", no_response)
        monkeypatch.setattr(qub, "state_at", no_response)
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                                 t_qub=10800.0)
        with pytest.raises(q.ModelError, match="heating window holds only 1 samples"):
            q.sweep(bungalow_model, template, np.geomspace(100.0, 400.0, 40),
                    np.linspace(3600.0, 43200.0, 40), q.ErrorPolicy(),
                    window_fraction=1.0e-4)

    @pytest.mark.parametrize("window", [0.0, 1.1])
    def test_window_fraction_out_of_range(self, bungalow_model, window, monkeypatch):
        monkeypatch.setattr(qub, "step_response", no_response)
        monkeypatch.setattr(qub, "state_at", no_response)
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                                 t_qub=10800.0)
        with pytest.raises(q.ModelError, match=r"window_fraction must lie in \(0, 1\]"):
            q.sweep(bungalow_model, template, [1000.0], [3600.0, 43200.0],
                    q.ErrorPolicy(), window_fraction=window)

    @pytest.mark.parametrize("t_qub, message", [
        (0.0, "t_qub must be positive"),
        (-3600.0, "t_qub must be positive"),
        (math.nan, "t_qub must be finite"),
    ])
    def test_bad_duration_raises_before_any_response(self, bungalow_model, t_qub,
                                                     message, monkeypatch):
        monkeypatch.setattr(qub, "step_response", no_response)
        monkeypatch.setattr(qub, "state_at", no_response)
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0,
                                 t_qub=10800.0, sample_dt=60.0)
        with pytest.raises(q.SchemaError, match=message):
            q.sweep(bungalow_model, template, [1000.0], [7200.0, t_qub],
                    q.ErrorPolicy())


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        assert q.grid_to_csv(small_sweep()) == q.grid_to_csv(small_sweep())


class TestDegenerateCells:
    def test_flagged_not_fatal(self):
        # heating power at or below the cooling power cannot form a
        # two-pulse contrast; those cells are marked, the rest survive
        grid = small_sweep(ph=(25.0, 50.0, 2000.0), P_c=50.0)
        flags = [cell.valid for cell in grid.cells[0]]
        assert flags == [False, False, True]
        bad = grid.cells[0][0]
        assert math.isnan(bad.H_qub) and math.isnan(bad.eps_H_pct)
        text = q.grid_to_csv(grid)
        assert "nan" in text.splitlines()[1]

    def test_no_record_to_fit(self):
        # no power above the cooling power: the budget pass gets no cell
        grid = small_sweep(ph=(25.0, 50.0), P_c=50.0)
        assert not grid.valid.any() and np.isnan(grid.theta_max).all()

    def test_valid_flag_column(self):
        grid = small_sweep(ph=(25.0, 2000.0), t=(4000.0,), P_c=50.0)
        rows = q.grid_to_csv(grid).splitlines()[1:]
        assert rows[0].endswith(",0")
        assert rows[1].endswith(",1")


class TestSelectOptimum:
    def test_picks_smallest_total_error(self):
        grid = grid_from_cells(
            [[hand_cell(100.0, 1000.0, eps=3.0), hand_cell(200.0, 1000.0, eps=1.0)],
             [hand_cell(100.0, 2000.0, eps=2.0), hand_cell(200.0, 2000.0, eps=4.0)]],
            ph_values=[100.0, 200.0], t_values=[1000.0, 2000.0])
        best = q.select_optimum(grid, q.DesignConstraints(1e4, 100.0, 1e6))
        assert (best.ph, best.t_qub) == (200.0, 1000.0)

    def test_tie_breaks_shorter_then_lower_power(self):
        grid = grid_from_cells(
            [[hand_cell(100.0, 1000.0), hand_cell(200.0, 1000.0)],
             [hand_cell(100.0, 2000.0), hand_cell(200.0, 2000.0)]],
            ph_values=[100.0, 200.0], t_values=[1000.0, 2000.0])
        best = q.select_optimum(grid, q.DesignConstraints(1e4, 100.0, 1e6))
        assert (best.t_qub, best.ph) == (1000.0, 100.0)

    def test_constraints_filter(self):
        grid = grid_from_cells(
            [[hand_cell(100.0, 1000.0, eps=1.0, theta=45.0),
              hand_cell(200.0, 1000.0, eps=2.0, theta=25.0)]],
            ph_values=[100.0, 200.0], t_values=[1000.0])
        best = q.select_optimum(grid, q.DesignConstraints(1e4, 30.0, 1e6))
        assert best.ph == 200.0       # cooler design wins despite worse error
        best = q.select_optimum(grid, q.DesignConstraints(150.0, 100.0, 1e6))
        assert best.ph == 100.0       # power cap excludes the other

    def test_duration_counts_both_pulses(self):
        grid = grid_from_cells([[hand_cell(100.0, 1000.0)]], [100.0], [1000.0])
        q.select_optimum(grid, q.DesignConstraints(1e4, 100.0, 2000.0))
        with pytest.raises(q.NumericalError):
            q.select_optimum(grid, q.DesignConstraints(1e4, 100.0, 1999.0))

    def test_infeasible_reports_rejection_counts(self):
        grid = grid_from_cells(
            [[hand_cell(100.0, 1000.0, valid=False),
              hand_cell(500.0, 1000.0)],
             [hand_cell(100.0, 2000.0, theta=90.0),
              hand_cell(500.0, 2000.0, theta=90.0)]],
            ph_values=[100.0, 500.0], t_values=[1000.0, 2000.0])
        constraints = q.DesignConstraints(max_power=200.0,
                                          max_indoor_temperature=40.0,
                                          max_total_duration=3000.0)
        with pytest.raises(q.NumericalError) as err:
            q.select_optimum(grid, constraints)
        msg = str(err.value)
        assert "4 cells" in msg
        assert "1 degenerate" in msg
        assert "2 above max_power" in msg
        assert "1 above max_indoor_temperature" in msg

    def test_on_real_sweep(self):
        grid = small_sweep()
        best = q.select_optimum(grid, q.DesignConstraints(5000.0, 100.0, 1e6))
        assert best.valid
        assert any(best == c for row in grid.cells for c in row)

    def test_bad_constraints(self):
        with pytest.raises(q.ModelError):
            q.DesignConstraints(max_power=0.0, max_indoor_temperature=30.0,
                                max_total_duration=1e5)

    def test_nan_temperature_limit_rejected(self):
        with pytest.raises(q.ModelError, match="max_indoor_temperature"):
            q.DesignConstraints(max_power=1e4, max_indoor_temperature=math.nan,
                                max_total_duration=1e5)

    def test_infinite_temperature_limit_means_none(self):
        grid = small_sweep()
        free = q.select_optimum(grid, q.DesignConstraints(5000.0, math.inf, 1e6))
        assert free == q.select_optimum(grid, q.DesignConstraints(5000.0, 1e9, 1e6))


@st.composite
def column_grids(draw):
    """A small hand-built grid: repeated axis values, a random valid
    mask (two cells in three valid), |eps_H_pct| from three values so
    that keys tie, and other columns free so that tied cells still
    differ."""
    n_t, n_ph = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    t_values = draw(st.lists(st.sampled_from([1000.0, 2000.0, 3000.0]),
                             min_size=n_t, max_size=n_t))
    ph_values = draw(st.lists(st.sampled_from([100.0, 200.0, 300.0]),
                              min_size=n_ph, max_size=n_ph))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n_t * n_ph, max_size=n_t * n_ph)),
                        dtype=float).reshape(n_t, n_ph)

    return q.DoeGrid(
        ph_values=ph_values, t_values=t_values,
        H_qub=column(st.floats(-1e3, 1e3)), eps_qub_pct=column(st.floats(-1e3, 1e3)),
        eps_Hm=column(st.floats(0.0, 1e3)),
        eps_H_pct=column(st.sampled_from([-2.0, 1.0, 2.0])),
        theta_max=column(st.sampled_from([20.0, 30.0, 40.0])),
        valid=column(st.sampled_from([True, True, False])))


# no limit is drawn as often as the finite ones together
limits = st.builds(
    q.DesignConstraints,
    max_power=st.sampled_from([150.0, 250.0, math.inf, math.inf]),
    max_indoor_temperature=st.sampled_from([-math.inf, 25.0, 35.0, math.inf, math.inf,
                                            math.inf]),
    max_total_duration=st.sampled_from([2500.0, 4500.0, math.inf, math.inf]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grid=column_grids(), constraints=limits)
def test_select_optimum_matches_the_loop_over_cells(grid, constraints):
    try:
        want = reference_select(grid, constraints)
    except q.NumericalError as exc:
        with pytest.raises(q.NumericalError) as err:
            q.select_optimum(grid, constraints)
        assert str(err.value) == str(exc)
    else:
        assert q.select_optimum(grid, constraints) == want


class TestGridColumns:
    def test_columns_stored_read_only(self):
        grid = small_sweep()
        for name in ("ph_values", "t_values", "H_qub", "eps_qub_pct", "eps_Hm",
                     "eps_H_pct", "theta_max"):
            column = getattr(grid, name)
            assert column.dtype == float and not column.flags.writeable, name
        assert grid.valid.dtype == bool and not grid.valid.flags.writeable
        with pytest.raises(ValueError):
            grid.H_qub[0, 0] = 0.0

    def test_columns_copied_from_the_caller(self):
        grid = small_sweep()
        eps = np.array(grid.eps_H_pct)
        copy = replace(grid, eps_H_pct=eps)
        eps[0, 0] = -1.0
        assert copy.eps_H_pct[0, 0] == grid.eps_H_pct[0, 0]
        assert eps.flags.writeable

    @pytest.mark.parametrize("name", ["H_qub", "theta_max", "valid"])
    def test_column_shape_checked(self, name):
        grid = small_sweep()
        with pytest.raises(q.ModelError, match=rf"{name} must have shape \(2, 3\)"):
            replace(grid, **{name: getattr(grid, name).T})

    def test_cells_pair_axes_with_columns(self):
        grid = small_sweep()
        cell = grid.cells[1][2]
        assert (cell.t_qub, cell.ph) == (8000.0, 2000.0)
        assert (cell.H_qub, cell.eps_H_pct) == (grid.H_qub[1, 2], grid.eps_H_pct[1, 2])


class TestDefaultAxes:
    def test_maintenance_branch(self):
        ph, t = q.default_axes(H_ref=50.0, maintenance_power=800.0)
        assert ph.shape == (40,) and t.shape == (40,)
        assert ph[0] == pytest.approx(800.0)
        assert ph[-1] == pytest.approx(3200.0)
        assert np.all(np.diff(np.log(ph)) > 0)
        assert t[0] == 3600.0 and t[-1] == 43200.0
        assert np.allclose(np.diff(t), t[1] - t[0])

    def test_cold_start_branch(self):
        ph, t = q.default_axes(H_ref=50.0, maintenance_power=0.0)
        assert ph.shape == (40,) and t.shape == (40,)
        assert ph[0] == pytest.approx(50.0)    # 1 K steady rise
        assert ph[-1] == pytest.approx(200.0)  # 4 K steady rise

    def test_bad_reference(self):
        with pytest.raises(q.ModelError):
            q.default_axes(H_ref=-1.0, maintenance_power=100.0)

    @pytest.mark.parametrize("H_ref, maintenance_power", [(50.0, 1e308), (50.0, math.inf),
                                                          (1e308, 0.0)])
    def test_power_axis_that_overflows(self, H_ref, maintenance_power):
        # raised before np.geomspace, whose overflow warning is an error here
        with pytest.raises(q.ModelError, match="maintenance power"):
            q.default_axes(H_ref=H_ref, maintenance_power=maintenance_power)


class TestExport:
    def test_header_and_row_count(self):
        grid = small_sweep()
        lines = q.grid_to_csv(grid).splitlines()
        assert lines[0] == ("ph_W,t_qub_s,H_qub_W_per_K,eps_qub_pct,"
                            "eps_Hm_W_per_K,eps_H_pct,theta_max_C,valid")
        assert len(lines) == 1 + 2 * 3

    def test_row_fields_round_trip(self):
        grid = small_sweep()
        first = q.grid_to_csv(grid).splitlines()[1].split(",")
        cell = grid.cells[0][0]
        assert float(first[0]) == cell.ph
        assert float(first[1]) == cell.t_qub
        assert float(first[2]) == cell.H_qub
        assert float(first[6]) == cell.theta_max
        assert first[7] == "1"

    def test_export_matches_render(self, tmp_path):
        """``qubdoe sweep --out`` writes the library's rendered grid, byte
        for byte, with bare newlines."""
        building = tmp_path / "first_order.json"
        building.write_text(q.circuit_to_json(make_first_order()), encoding="utf-8")
        path = tmp_path / "grid.csv"
        assert main(["sweep", str(building), "--ph-range", "500:2000:3",
                     "--t-range", "4000:8000:2", "--out", str(path)]) == 0
        model = q.to_state_space(make_first_order(), ["air"])
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=10800.0)
        grid = q.sweep(model, template, np.geomspace(500.0, 2000.0, 3),
                       np.linspace(4000.0, 8000.0, 2), q.ErrorPolicy())
        assert path.read_bytes() == q.grid_to_csv(grid).encode("utf-8")
        assert b"\r" not in path.read_bytes()
