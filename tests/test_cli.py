"""Command-line interface: subcommands, exit codes, output discipline."""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import qubdoe as q
from qubdoe import cli, conductance, qub
from qubdoe.cli import main


@pytest.fixture(scope="module")
def bungalow_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bungalow.json"
    path.write_text(q.bungalow_json(), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def house_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "house.json"
    path.write_text(q.house_json(), encoding="utf-8")
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SHORT = ["--tqub", "5400", "--dt", "60"]


class TestCheck:
    def test_valid_document(self, bungalow_path, capsys):
        code, out, err = run_main(["check", bungalow_path], capsys)
        assert code == 0 and err == ""
        assert out.startswith("OK: ") and "nodes" in out

    def test_missing_file(self, capsys):
        code, out, err = run_main(["check", "/nonexistent/building.json"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:")

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": []}', encoding="utf-8")
        code, out, err = run_main(["check", str(bad)], capsys)
        assert code == 3 and err.startswith("error: input:")

    @pytest.mark.parametrize("text, where", [
        ('{"nodes": [{"id": "a", "capacity": 1' + "0" * 5000 + "}]}", ""),
        ("[" * 100_000, ""),
        ('{"nodes": [{"id": "a", "capacity": 1' + "0" * 399 + "}]}", "nodes[0].capacity: "),
    ], ids=["5001-digit-integer", "deep-nesting", "integer-beyond-float"])
    def test_unreadable_document_exits_3_with_one_line(self, text, where, tmp_path, capsys):
        # the first may reach the number's float conversion where Python
        # sets no limit on integer digits
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_main(["check", str(bad)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input: " + where) and err.count("\n") == 1

    def test_non_utf8_document_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(q.bungalow_json().encode("utf-8").replace(b"{", b"{\xff", 1))
        code, out, err = run_main(["check", str(bad)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "can't decode byte 0xff" in err

    def test_source_on_an_internal_branch_exits_3(self, tmp_path, capsys):
        """A four-node ladder with a temperature source on the n0-n1 rung:
        held at T_o like a boundary, the source left the network off rest
        and H_qub moving with T_o (2.00 / 4.10 / 1.06 W/K at 0 / -7 / 12 °C
        against a reference H of 1.00)."""
        ladder = {"nodes": [{"id": f"n{k}", "capacity": 1.0e5} for k in range(4)],
                  "branches": [{"id": "g0", "from": "REF", "to": "n0", "conductance": 1.0,
                                "temperature_source": "T_o"},
                               {"id": "r1", "from": "n0", "to": "n1", "conductance": 1.0,
                                "temperature_source": "T_i"},
                               *({"id": f"r{k}", "from": f"n{k - 1}", "to": f"n{k}",
                                  "conductance": 1.0} for k in (2, 3))],
                  "flow_sources": [{"node": "n0", "source_name": "P"}],
                  "zones": [{"id": f"z{k}", "air_node": f"n{k}", "floor_area": 10.0,
                             "air_mass": 40.0} for k in (0, 1)]}
        bad = tmp_path / "ladder.json"
        bad.write_text(json.dumps(ladder), encoding="utf-8")
        code, out, err = run_main(["check", str(bad)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input: branches[1].temperature_source: ")
        assert err.count("\n") == 1

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestEig:
    def test_structure(self, bungalow_path, capsys):
        code, out, err = run_main(["eig", bungalow_path, "--tqub", "5400"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mode_index,tau_s,lambda_per_s,init_amp,input_amp,class"
        taus, classes = [], set()
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 6
            taus.append(float(fields[1]))
            assert float(fields[2]) < 0.0
            classes.add(fields[5])
        assert taus == sorted(taus)  # fastest mode first
        assert classes <= set("abcde")

    def test_all_classes_on_bundled_model(self, bungalow_path, capsys):
        _, out, _ = run_main(["eig", bungalow_path, "--tqub", "10800"], capsys)
        classes = {row.split(",")[5] for row in out.splitlines()[1:]}
        assert classes == set("abcde")

    def test_non_finite_boundary_exits_3(self, bungalow_path, capsys):
        code, out, err = run_main(["eig", bungalow_path, "--set", "T_o=nan"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:")
        assert "boundary_temperatures['T_o'] must be finite" in err

    def test_checks_only_the_flags_it_takes(self, bungalow_path, capsys):
        """``eig`` takes no ``--pc``, so a zero pulse, which leaves the
        start state's own decay, is no error, and a non-finite one is
        reported without naming P_c."""
        code, out, err = run_main(["eig", bungalow_path, "--ph", "0"], capsys)
        assert code == 0 and err == ""
        assert out.startswith("mode_index,")
        code, out, err = run_main(["eig", bungalow_path, "--ph", "nan"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input: P_h must be finite") and "P_c" not in err


class TestGains:
    def test_single_zone_records(self, bungalow_path, capsys):
        code, out, _ = run_main(["gains", bungalow_path], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "record,output,input,value"
        records = {r.split(",")[0] for r in lines[1:]}
        assert {"gain", "temp_gain_sum", "H", "R"} <= records
        by_kind = {}
        for row in lines[1:]:
            kind, _, _, value = row.split(",")
            by_kind.setdefault(kind, []).append(float(value))
        for s in by_kind["temp_gain_sum"]:
            assert s == pytest.approx(1.0, abs=1e-9)
        H = by_kind["H"][0]
        assert H * by_kind["R"][0] == pytest.approx(1.0, rel=1e-12)
        assert 40.0 < H < 60.0

    def test_two_zone_adds_aggregate(self, house_path, capsys):
        _, out, _ = run_main(["gains", house_path], capsys)
        kinds = {r.split(",")[0] for r in out.splitlines()[1:]}
        assert "mean_temperature" in kinds and "H_multizone" not in kinds

    def test_H_is_the_sweep_reference(self, house, house_model, house_path, capsys):
        code, out, _ = run_main(["gains", house_path], capsys)
        assert code == 0
        (H,) = [float(r.split(",")[3]) for r in out.splitlines() if r.startswith("H,")]
        masses = [z.air_mass for z in house.zones]
        assert H == q.reference_H(replace(house_model, output_weights=masses,
                                          flow_weights=masses))
        assert H == pytest.approx(113.8295918592700, rel=1e-12)

    def test_boundary_override_moves_mean_temperature(self, house_path, capsys):
        def mean_temperature(argv):
            code, out, _ = run_main(["gains", house_path] + argv, capsys)
            assert code == 0
            (row,) = [r for r in out.splitlines() if r.startswith("mean_temperature,")]
            return float(row.split(",")[3])

        assert mean_temperature([]) == 0.0
        assert 0.0 < mean_temperature(["--set", "T_g=14"]) < 14.0

    @pytest.mark.parametrize("argv, expected", [
        ([], 0.0), (["--to", "5"], 5.0), (["--p0", "300"], 3.0), (["--set", "T_o=7"], 7.0),
    ])
    def test_zoneless_mean_temperature_follows_the_flags(self, argv, expected,
                                                         tmp_path, capsys):
        # one node, 100 W/K to the outdoor source: 300 W hold it 3 K above
        hut = {"nodes": [{"id": "air", "capacity": 1e5}],
               "branches": [{"id": "wall", "from": "REF", "to": "air",
                             "conductance": 100.0, "temperature_source": "T_o"}],
               "flow_sources": [{"node": "air", "source_name": "P_air"}]}
        path = tmp_path / "hut.json"
        path.write_text(json.dumps(hut), encoding="utf-8")
        code, out, _ = run_main(["gains", str(path)] + argv, capsys)
        assert code == 0
        assert out.splitlines()[-1] == f"mean_temperature,,,{expected!r}"

    @pytest.mark.parametrize("argv, message", [
        (["--to", "nan"], "T_o must be finite"),
        (["--to=-inf"], "T_o must be finite"),
        (["--p0", "inf"], "P0 must be finite"),
        (["--p0", "-1"], "P0 must be >= 0"),
        (["--set", "T_g=nan"], "boundary_temperatures['T_g'] must be finite"),
    ])
    def test_bad_setting_exits_3(self, house_path, argv, message, capsys):
        code, out, err = run_main(["gains", house_path] + argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and message in err


class TestCliSurface:
    """Each command accepts only the flags it uses."""

    @pytest.mark.parametrize("command, flag", [
        ("eig", "--pc"), ("eig", "--window"), ("eig", "--dt"),
        ("gains", "--ph"), ("gains", "--pc"), ("gains", "--tqub"),
        ("gains", "--window"), ("gains", "--dt"),
        ("simulate", "--window"),
        # a sweep takes P_h and t_qub from its axes
        ("sweep", "--ph"), ("sweep", "--tqub"),
        ("optimum", "--ph"), ("optimum", "--tqub"),
    ])
    def test_unused_flag_is_a_usage_error(self, command, flag, bungalow_path):
        with pytest.raises(SystemExit) as exc:
            main([command, bungalow_path, flag, "60"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    def test_flag_prefix_is_not_an_abbreviation(self, command, bungalow_path):
        # --ph is a prefix of --ph-range, whose value this would be
        with pytest.raises(SystemExit) as exc:
            main([command, bungalow_path, "--ph", "500:2000:2"])
        assert exc.value.code == 2


class TestSimulateEstimate:
    def test_trace_shape(self, bungalow_path, capsys):
        code, out, _ = run_main(["simulate", bungalow_path] + SHORT, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t_s,dT_K,power_W,phase"
        phases = [r.split(",")[3] for r in lines[1:]]
        assert phases[0] == "heating" and phases[-1] == "cooling"

    def test_estimate_round_trip(self, bungalow_path, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, *_ = run_main(["simulate", bungalow_path, "--tqub", "28800",
                             "--ph", "2000", "--out", str(trace_path)], capsys)
        assert code == 0
        code, out, _ = run_main(["estimate", "--trace", str(trace_path)], capsys)
        assert code == 0
        header, row = out.splitlines()
        assert header == "H_qub_W_per_K,C_star_J_per_K,C_J_per_K,alpha_h,alpha_c,r2_h,r2_c"
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["H_qub_W_per_K"] == pytest.approx(51.1, rel=0.05)
        assert values["C_J_per_K"] > 0.0
        assert 0.9 < values["r2_h"] <= 1.0

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_duration_exits_3(self, bungalow_path, value, capsys):
        code, out, err = run_main(["simulate", bungalow_path, "--tqub", value], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "t_qub must be finite" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_overflowing_experiment_end_exits_3(self, bungalow_path, command):
        """2*t_qub of 1e308 s is not finite: one line names t_qub, with no
        numpy warning before it."""
        argv = {"simulate": ["--tqub", "1e308"], "sweep": ["--t-range", "1e308:1e308:1"]}
        src = os.path.dirname(os.path.dirname(q.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "qubdoe.cli", command, bungalow_path,
                               *argv[command]], capture_output=True, text=True, env=env)
        assert done.returncode == 3 and done.stdout == ""
        line, = done.stderr.splitlines()
        assert line.startswith("error: input: t_qub must leave a finite experiment end")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_dt_below_float64_resolution_exits_3(self, bungalow_path, command, capsys):
        argv = [command, bungalow_path, "--dt", "1e-16"]
        argv += ["--tqub", "3600"] if command == "simulate" else ["--t-range", "1800:3600:2"]
        code, out, err = run_main(argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "fewer than 2**52 samples" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 25.6 PiB"), "Unable to allocate 25.6 PiB"),
        (MemoryError(), "out of memory")])
    def test_out_of_memory_exits_4(self, bungalow_path, exc, message, monkeypatch,
                                   capsys):
        def exhausted(protocol):
            raise exc
        monkeypatch.setattr(qub, "_sample_times", exhausted)
        code, out, err = run_main(["simulate", bungalow_path, "--tqub", "3600",
                                   "--dt", "1e-12"], capsys)
        assert code == 4 and out == ""
        assert err == f"error: numerical: {message}\n"

    def test_estimate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2\n", encoding="utf-8")
        code, out, err = run_main(["estimate", "--trace", str(bad)], capsys)
        assert code == 3 and err.startswith("error: input:")

    @pytest.mark.parametrize("offset", [0, 200_000], ids=["first-read", "later-read"])
    def test_non_utf8_trace_exits_3(self, bungalow_path, tmp_path, offset, capsys):
        path = tmp_path / "trace.csv"
        code, *_ = run_main(["simulate", bungalow_path, "--tqub", "43200", "--dt", "10",
                             "--out", str(path)], capsys)
        assert code == 0
        data = path.read_bytes()
        assert len(data) > offset + 1000
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        code, out, err = run_main(["estimate", "--trace", str(path)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "can't decode byte 0xff" in err

    def test_crlf_trace_file_estimates_the_same(self, bungalow_path, tmp_path, capsys):
        trace = run_main(["simulate", bungalow_path] + SHORT, capsys)[1]
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(trace.encode("utf-8"))
        crlf.write_bytes(trace.replace("\n", "\r\n").encode("utf-8"))
        expected = run_main(["estimate", "--trace", str(lf)], capsys)
        assert expected[0] == 0
        assert run_main(["estimate", "--trace", str(crlf)], capsys) == expected

    def test_stdout_out_file_and_library_agree(self, bungalow, bungalow_model,
                                               bungalow_path, tmp_path,
                                               monkeypatch, capsys):
        # small render chunks, so the trace is written in many pieces
        monkeypatch.setattr(qub, "_RENDER_ROWS", 7)
        code, stdout_text, _ = run_main(["simulate", bungalow_path] + SHORT, capsys)
        assert code == 0
        path = tmp_path / "trace.csv"
        code, out, _ = run_main(["simulate", bungalow_path, "--out", str(path)] + SHORT,
                                capsys)
        assert code == 0 and out == ""
        masses = [z.air_mass for z in bungalow.zones]
        model = replace(bungalow_model, output_weights=masses, flow_weights=masses)
        protocol = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=5400.0,
                                 sample_dt=60.0)
        library = q.trace_to_csv(q.simulate_qub(model, protocol))
        assert path.read_bytes() == stdout_text.encode("utf-8") == library.encode("utf-8")

    def test_boundary_override_changes_output(self, house_path, capsys):
        base = run_main(["simulate", house_path] + SHORT, capsys)[1]
        warm = run_main(["simulate", house_path, "--set", "T_g=14"] + SHORT,
                        capsys)[1]
        assert base != warm
        again = run_main(["simulate", house_path, "--set", "T_g=14"] + SHORT,
                         capsys)[1]
        assert warm == again

    def test_unknown_boundary_name(self, bungalow_path, capsys):
        code, _, err = run_main(
            ["simulate", bungalow_path, "--set", "T_mars=1"] + SHORT, capsys)
        assert code == 3 and "T_mars" in err


class TestSweepOptimum:
    RANGES = ["--ph-range", "800:3200:4", "--t-range", "7200:21600:3"]

    def test_sweep_structure(self, bungalow_path, capsys):
        code, out, _ = run_main(["sweep", bungalow_path] + self.RANGES, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("ph_W,t_qub_s,")
        assert len(lines) == 1 + 4 * 3

    def test_sweep_reruns_byte_identical(self, bungalow_path, capsys):
        first = run_main(["sweep", bungalow_path] + self.RANGES, capsys)[1]
        second = run_main(["sweep", bungalow_path] + self.RANGES, capsys)[1]
        third = run_main(["sweep", bungalow_path] + self.RANGES, capsys)[1]
        assert first == second == third

    def test_default_axes_solve_the_gains_once(self, bungalow_path, monkeypatch, capsys):
        # once for the default axes' H_ref and start temperature, once for
        # the sweep's own H_ref
        calls = []

        def counted(model):
            calls.append(model)
            return q.static_gains(model)

        monkeypatch.setattr(cli, "static_gains", counted)
        monkeypatch.setattr(conductance, "static_gains", counted)
        code, out, _ = run_main(["sweep", bungalow_path], capsys)
        assert code == 0 and len(out.splitlines()) == 1 + 40 * 40
        assert len(calls) == 2

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    def test_unknown_boundary_name(self, command, bungalow_path, capsys):
        code, out, err = run_main(
            [command, bungalow_path, "--set", "T_bogus=3"] + self.RANGES, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "T_bogus" in err

    def test_out_file_equals_stdout(self, bungalow_path, tmp_path, capsys):
        stdout_text = run_main(["sweep", bungalow_path] + self.RANGES, capsys)[1]
        path = tmp_path / "grid.csv"
        code, out, _ = run_main(
            ["sweep", bungalow_path, "--out", str(path)] + self.RANGES, capsys)
        assert code == 0 and out == ""
        assert path.read_bytes().decode("utf-8") == stdout_text

    @pytest.mark.parametrize("flag, value, field", [
        ("--max-power", "0", "max_power must be positive, got 0.0"),
        ("--max-duration", "-5", "max_total_duration must be positive, got -5.0"),
        ("--max-temp", "nan", "max_indoor_temperature must not be nan"),
    ])
    def test_bad_constraint_named_before_the_sweep(self, bungalow_path, flag, value,
                                                   field, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the constraints were checked")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        code, out, err = run_main(["optimum", bungalow_path, flag, value], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and field in err

    @pytest.mark.parametrize("flag", ["--max-power", "--max-temp", "--max-duration"])
    def test_unset_limit_is_no_limit(self, flag, bungalow_path, capsys):
        unset = run_main(["optimum", bungalow_path] + self.RANGES, capsys)
        assert unset[0] == 0
        assert run_main(["optimum", bungalow_path, flag, "inf"] + self.RANGES,
                        capsys) == unset

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    def test_help_describes_the_grid_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--ph-range A:B:N heating powers, N log-spaced points" in text
        assert "--t-range A:B:N phase durations, N linear points" in text
        if command == "optimum":
            assert "--max-power W heater limit (default: none)" in text

    def test_optimum_line(self, bungalow_path, capsys):
        code, out, _ = run_main(["optimum", bungalow_path] + self.RANGES, capsys)
        assert code == 0
        assert out.startswith("ph_W=") and " t_qub_s=" in out and " eps_H_pct=" in out

    def test_infeasible_optimum_exits_4_without_out_file(self, bungalow_path,
                                                         tmp_path, capsys):
        path = tmp_path / "never.txt"
        code, out, err = run_main(
            ["optimum", bungalow_path, "--max-temp", "-50",
             "--out", str(path)] + self.RANGES, capsys)
        assert code == 4 and out == ""
        assert err.startswith("error: numerical:")
        assert "max_indoor_temperature" in err
        assert not path.exists()

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    @pytest.mark.parametrize("flag, field", [("--eps-dt", "eps_dT"),
                                             ("--eps-p-rel", "eps_P_rel"),
                                             ("--eps-alpha", "eps_alpha")])
    def test_negative_uncertainty_exits_3(self, command, flag, field,
                                          bungalow_path, capsys):
        code, out, err = run_main(
            [command, bungalow_path, flag, "-0.01"] + self.RANGES, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and field in err

    def test_optimum_skips_cells_with_non_finite_budget(self, bungalow_path, capsys):
        # at 1e-150 W and 1e150 W the budget under- or overflows
        code, out, _ = run_main(
            ["optimum", bungalow_path, "--ph-range", "1e-300:1e300:5",
             "--t-range", "3600:7200:2"], capsys)
        assert code == 0
        fields = dict(item.split("=") for item in out.split())
        assert fields["ph_W"] == "1.0"
        assert math.isfinite(float(fields["eps_H_pct"]))

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    def test_window_no_row_can_fit_exits_3(self, command, bungalow_path, capsys):
        code, out, err = run_main([command, bungalow_path, "--window", "1e-4"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "window holds only" in err

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    def test_default_power_axis_overflow_exits_3(self, command, bungalow_path):
        """Four times the maintenance power of --p0 1e308 is not finite:
        one line names it, with no numpy warning before it."""
        src = os.path.dirname(os.path.dirname(q.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "qubdoe.cli", command, bungalow_path,
                               "--p0", "1e308"], capture_output=True, text=True, env=env)
        assert done.returncode == 3 and done.stdout == ""
        line, = done.stderr.splitlines()
        assert line.startswith("error: input: maintenance power 1e+308 W")

    @pytest.mark.parametrize("window", ["0", "1.1"])
    @pytest.mark.parametrize("command", ["sweep", "estimate"])
    def test_window_fraction_out_of_range_exits_3(self, command, window,
                                                  bungalow_path, tmp_path, capsys):
        if command == "estimate":
            trace = tmp_path / "trace.csv"
            assert main(["simulate", bungalow_path, "--out", str(trace)] + SHORT) == 0
            argv = ["estimate", "--trace", str(trace)]
        else:
            argv = ["sweep", bungalow_path] + self.RANGES
        code, out, err = run_main(argv + ["--window", window], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "window_fraction" in err

    @pytest.mark.parametrize("command, argv", [
        ("sweep", ["--pc", "2000", "--ph-range", "2500:5000:3",
                   "--t-range", "3600:7200:2"]),
        ("optimum", ["--dt", "1000", "--ph-range", "2500:5000:2",
                     "--t-range", "3600:72000:3"]),
    ])
    def test_settings_every_cell_can_run_are_accepted(self, command, argv,
                                                      bungalow_path, capsys):
        # --pc above 1000 W and --dt above 10800 s/20, settings that fit
        # every cell of these grids
        code, out, err = run_main([command, bungalow_path] + argv, capsys)
        assert code == 0 and err == ""
        if command == "sweep":
            assert out.count(",1\n") == 6
        else:
            assert out.startswith("ph_W=")

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    @pytest.mark.parametrize("argv, message", [
        (["--pc", "3200"], "P_h must exceed P_c"),
        (["--dt", "1081"], "sample_dt must lie in (0, t_qub/20]"),
    ])
    def test_setting_that_voids_every_cell_exits_3(self, command, argv, message,
                                                   bungalow_path, capsys):
        code, out, err = run_main([command, bungalow_path] + argv + self.RANGES, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and message in err

    def test_bad_range_spec_exits_2(self, bungalow_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", bungalow_path, "--ph-range", "10:20"])
        assert exc.value.code == 2

    def test_nonpositive_log_axis_rejected(self, bungalow_path, capsys):
        code, _, err = run_main(
            ["sweep", bungalow_path, "--ph-range", "0:100:3",
             "--t-range", "7200:7200:1"], capsys)
        assert code == 3 and "positive" in err

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    @pytest.mark.parametrize("flag, spec", [
        ("--ph-range", "100:0:3"),
        ("--ph-range", "100:-5:3"),
        ("--ph-range", "nan:200:2"),
        ("--ph-range", "100:inf:3"),
        ("--t-range", "3600:-7200:3"),
        ("--t-range", "3600:0:3"),
        ("--t-range", "nan:7200:2"),
        ("--t-range", "3600:inf:2"),
    ])
    def test_range_ends_must_be_finite_and_positive(self, command, flag, spec,
                                                    bungalow_path, capsys):
        ranges = dict(zip(self.RANGES[::2], self.RANGES[1::2]))
        ranges[flag] = spec
        argv = [command, bungalow_path] + [arg for item in ranges.items() for arg in item]
        code, out, err = run_main(argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and flag in err

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    @pytest.mark.parametrize("argv, field", [
        (["--eps-dt", "inf"], "eps_dT"),
        (["--eps-p-rel", "inf"], "eps_P_rel"),
        (["--eps-alpha", "inf"], "eps_alpha"),
        (["--to", "nan"], "T_o"),
        (["--p0", "inf"], "P0"),
        (["--pc", "inf"], "P_c"),
        (["--pc", "nan"], "P_c"),
        (["--set", "T_o=inf"], "boundary_temperatures['T_o']"),
        (["--set", "T_o=nan"], "boundary_temperatures['T_o']"),
    ])
    def test_non_finite_setting_exits_3(self, command, argv, field,
                                        bungalow_path, capsys):
        code, out, err = run_main([command, bungalow_path] + argv + self.RANGES, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and f"{field} must be finite" in err

    def test_nan_temperature_limit_exits_3(self, house_path, tmp_path, capsys):
        path = tmp_path / "never.txt"
        code, out, err = run_main(
            ["optimum", house_path, "--set", "T_g=14", "--pc", "300",
             "--ph-range", "200:3000:4", "--t-range", "3600:43200:3",
             "--max-temp", "nan", "--out", str(path)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "max_indoor_temperature" in err
        assert not path.exists()


def floor_heated_building(tmp_path, zones):
    """Air over a heavy floor with a floor heater listed before the air
    heater; the zone, when declared, puts all the power on the air."""
    doc = {
        "nodes": [{"id": "air", "capacity": 2.0e5},
                  {"id": "floor", "capacity": 4.0e6}],
        "branches": [
            {"id": "vent", "from": "REF", "to": "air", "conductance": 30.0,
             "temperature_source": "T_o"},
            {"id": "skin", "from": "air", "to": "floor", "conductance": 200.0},
            {"id": "ground", "from": "REF", "to": "floor", "conductance": 20.0,
             "temperature_source": "T_o"},
        ],
        "flow_sources": [{"node": "floor", "source_name": "P_floor"},
                         {"node": "air", "source_name": "P_air"}],
    }
    if zones:
        doc["zones"] = [{"id": "z", "air_node": "air", "floor_area": 50.0,
                         "air_mass": 150.0}]
    path = tmp_path / "floor.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestReference:
    """The intrinsic error is measured against the H of the same power
    split and indoor weighting as the simulated experiment."""

    @pytest.mark.parametrize("zones", [True, False], ids=["air-zone", "no-zones"])
    def test_long_pulse_recovers_reference(self, zones, tmp_path, capsys):
        path = floor_heated_building(tmp_path, zones)
        code, out, _ = run_main(["sweep", path, "--ph-range", "1000:1000:1",
                                 "--t-range", "864000:864000:1"], capsys)
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert row["valid"] == "1"
        assert abs(float(row["eps_qub_pct"])) < 1e-9

    def test_zone_share_splits_across_its_heaters(self, house_path, tmp_path, capsys):
        # two equal zones, zone 1 heated by two sources: power still
        # splits 1:1 between the zones, as with one heater each
        doc = json.loads(q.house_json())
        doc["flow_sources"].append({"node": "air_z1", "source_name": "P_z1b"})
        path = tmp_path / "two_heaters.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def trace(building):
            code, out, _ = run_main(["simulate", building] + SHORT, capsys)
            assert code == 0
            return q.trace_from_csv(out)

        split, twin = trace(str(path)), trace(house_path)
        assert np.array_equal(split.times, twin.times)
        assert split.delta_T == pytest.approx(twin.delta_T, rel=1e-12, abs=1e-12)
        code, out, _ = run_main(["sweep", str(path)] + TestSweepOptimum.RANGES, capsys)
        assert code == 0 and out.count(",1\n") > 0


def unequal_house(tmp_path, heaters_on_air=True):
    """The bundled house with zone 1's air mass raised to 900 kg; with
    ``heaters_on_air`` False each zone's heater moves from its air node
    to its internal mass."""
    doc = json.loads(q.house_json())
    doc["zones"][0]["air_mass"] = 900.0
    if not heaters_on_air:
        for source in doc["flow_sources"]:
            source["node"] = source["node"].replace("air_", "mass_")
    path = tmp_path / "unequal.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), q.parse_building(json.dumps(doc))


class TestLibraryAgreesWithCli:
    """``to_state_space(circuit)`` is the model every subcommand runs on:
    the library reproduces the CLI's bytes on zones of unequal mass."""

    @pytest.mark.parametrize("heaters_on_air", [
        pytest.param(True, id="zone-heaters", marks=pytest.mark.default_blas_digits),
        pytest.param(False, id="heaters-off-air")])
    def test_gains_H(self, heaters_on_air, tmp_path, capsys):
        path, circuit = unequal_house(tmp_path, heaters_on_air)
        code, out, _ = run_main(["gains", path], capsys)
        assert code == 0
        (H,) = [float(r.split(",")[3]) for r in out.splitlines() if r.startswith("H,")]
        model = q.to_state_space(circuit)
        assert H == q.reference_H(model)
        if heaters_on_air:
            assert H == 109.98075800976868
        else:
            # no heater at a zone air node: the power splits evenly
            assert model.flow_weights.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("heaters_on_air", [True, False],
                             ids=["zone-heaters", "heaters-off-air"])
    def test_simulate_bytes(self, heaters_on_air, tmp_path, capsys):
        path, circuit = unequal_house(tmp_path, heaters_on_air)
        code, out, _ = run_main(["simulate", path] + SHORT, capsys)
        assert code == 0
        protocol = q.QubProtocol(T_o=0.0, P0=0.0, P_h=1000.0, P_c=0.0, t_qub=5400.0,
                                 sample_dt=60.0)
        trace = q.simulate_qub(q.to_state_space(circuit), protocol)
        assert q.trace_to_csv(trace) == out

    def test_sweep_bytes(self, tmp_path, capsys):
        path, circuit = unequal_house(tmp_path)
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_main(["sweep", path, "--out", str(out_path)]
                              + TestSweepOptimum.RANGES, capsys)
        assert code == 0
        # the CLI's template sits at the grid's largest power and duration
        template = q.QubProtocol(T_o=0.0, P0=0.0, P_h=3200.0, P_c=0.0, t_qub=21600.0)
        grid = q.sweep(q.to_state_space(circuit), template,
                       np.geomspace(800.0, 3200.0, 4), np.linspace(7200.0, 21600.0, 3),
                       q.ErrorPolicy())
        assert q.grid_to_csv(grid).encode("utf-8") == out_path.read_bytes()


class TestOutFailsFast:
    """A bad ``--out`` is reported before the simulation or sweep starts,
    and no file is created."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the work started")

        monkeypatch.setattr(cli, "simulate_qub", refuse)
        monkeypatch.setattr(cli, "sweep", refuse)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_missing_directory(self, command, bungalow_path, tmp_path, capsys):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run_main([command, bungalow_path, "--out", str(path)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "No such file or directory" in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_empty_path(self, command, bungalow_path, capsys):
        code, out, err = run_main([command, bungalow_path, "--out", ""], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "No such file or directory" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_directory(self, command, bungalow_path, tmp_path, capsys):
        code, out, err = run_main([command, bungalow_path, "--out", str(tmp_path)],
                                  capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "Is a directory" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unwritable_directory(self, command, bungalow_path, tmp_path,
                                  monkeypatch, capsys):
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        path = tmp_path / "out.csv"
        code, out, err = run_main([command, bungalow_path, "--out", str(path)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: input:") and "Permission denied" in err
        assert not path.exists()


class TestWorkStartsThroughModuleNames:
    """Each command that simulates or sweeps calls ``simulate_qub`` or
    ``sweep`` through ``qubdoe.cli``'s globals, so replacing one there stops
    the command where its set-up ends, as the benchmark's set-up probe does."""

    class Reached(BaseException):
        pass

    @pytest.mark.parametrize("argv, name", [
        (["sweep"], "sweep"),
        (["optimum"], "sweep"),
        (["simulate"], "simulate_qub"),
    ])
    def test_command_reaches_the_replaced_name(self, argv, name, bungalow_path,
                                               monkeypatch):
        for stop in ("sweep", "simulate_qub"):
            def raiser(*args, stop=stop, **kwargs):
                raise self.Reached(stop)
            monkeypatch.setattr(cli, stop, raiser)
        with pytest.raises(self.Reached) as reached:
            main(argv + [bungalow_path])
        assert reached.value.args == (name,)


class TestConsoleScript:
    def test_installed_entry_point(self, bungalow_path):
        script = shutil.which("qubdoe")
        cmd = [script] if script else [sys.executable, "-m", "qubdoe.cli"]
        result = subprocess.run(cmd + ["check", bungalow_path],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.startswith("OK: ")

    def test_reader_closing_the_pipe_early_is_not_an_error(self, bungalow_path):
        # 8,641 rows: far more than a pipe holds, so writes are still
        # pending when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "qubdoe.cli", "simulate", bungalow_path,
             "--tqub", "43200", "--dt", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == b"t_s,dT_K,p"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_version_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "qubdoe.cli", "--version"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == f"qubdoe {q.__version__}"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_usable_cpus() < 2, reason="a threaded BLAS needs two CPUs")
class TestBlasThreadCount:
    """The output bytes do not depend on how many threads BLAS runs,
    also for fit windows of 14,400 samples, which a threaded BLAS
    would split if handed in one dot, and for the peak temperatures the
    sweep sums over the modes of two zones' 721-sample records."""

    @pytest.fixture(scope="class")
    def trace_path(self, bungalow_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("blas") / "trace.csv"
        assert main(["simulate", bungalow_path, "--ph", "1500", "--tqub", "43200",
                     "--dt", "1", "--out", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("command", ["estimate", "sweep", "optimum-house"])
    def test_one_and_two_threads_print_the_same(self, command, bungalow_path,
                                                house_path, trace_path):
        argv = {
            "estimate": ["estimate", "--trace", trace_path],
            "sweep": ["sweep", bungalow_path, "--dt", "1", "--t-range", "36000:43200:2",
                      "--ph-range", "1000:2000:2"],
            "optimum-house": ["optimum", house_path, "--set", "T_g=14", "--pc", "300",
                              "--dt", "60", "--ph-range", "200:3000:24",
                              "--t-range", "3600:43200:24", "--max-temp", "10"],
        }[command]
        src = os.path.dirname(os.path.dirname(q.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-m", "qubdoe.cli", *argv],
                                  capture_output=True, env=env, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
