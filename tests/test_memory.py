"""Working memory of the long-trace path: simulate, render, parse, and
the ``simulate --out`` / ``estimate --trace`` commands around them; and
of the sweep and its ``sweep`` command.

tracemalloc counts every allocation Python and numpy make while it runs,
so its peak is deterministic from run to run.  The bounds hold when the
kernels work in fixed-size blocks, and fail when a call keeps all its
samples times all states, or all rows as Python objects, at once.  The
commands' bounds are set by the trace's arrays, not its text, and fail
when a command holds the whole CSV text in memory.

The trace path holds one copy of the record's three arrays plus
block-sized temporaries: ``simulate_qub`` stays within 1.3× those
arrays (it fills each column in place, one phase at a time), and
``simulate --out`` and ``estimate --trace`` within 1.5× (the fits read
their windows as views, and the parse frees each piece's lines before
it reads the next).  Of the ``simulate`` → ``estimate`` chain,
``estimate`` sets the peak, and within it the parse, which holds the
parsed columns beside the piece of text being read.

The default 40×40 sweep of either bundled building stays within 7.25
blocks of :data:`~qubdoe.modal._BLOCK_ELEMENTS` floats (5.9 and 6.3
with numpy 2.4): one phase's records live at a time, and each fit forms its
residual in the records' deviations.  The ``sweep`` command then renders
its CSV one duration's rows at a time, adding a few times one duration's
text to what the sweep leaves, so the command peaks inside the sweep.

The response kernel's blocks are bounded in bytes: each stacked
temporary stays at or below glibc's default 128 KiB mmap threshold, so a
freed block is reused by the next one instead of being returned to the
OS and faulted in again.  The last test counts those page faults.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qubdoe as q
from qubdoe import cli, doe, modal, qub
from conftest import Unseekable

#: glibc's default mmap and trim threshold
MMAP_THRESHOLD = 128 * 1024


def traced_peak(fn, *args, **kwargs):
    """Result of ``fn(*args, **kwargs)`` and the peak bytes allocated
    during it."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def protocol():
    """1 s sampling of 12 h phases: 86,401 samples."""
    return q.QubProtocol(T_o=0.0, P0=0.0, P_h=1500.0, P_c=0.0, t_qub=43200.0,
                         sample_dt=1.0)


@pytest.fixture(scope="module")
def trace(bungalow_model, protocol):
    return q.simulate_qub(bungalow_model, protocol)


@pytest.fixture(scope="module")
def trace_bytes(trace):
    """Bytes of the trace's three arrays."""
    return trace.times.nbytes + trace.delta_T.nbytes + trace.power.nbytes


def test_cli_simulate_out_peak_bounded_by_the_trace(protocol, trace_bytes, tmp_path):
    building, path = tmp_path / "bungalow.json", tmp_path / "trace.csv"
    building.write_text(q.bungalow_json(), encoding="utf-8")
    argv = ["simulate", str(building), "--ph", str(protocol.P_h),
            "--tqub", str(protocol.t_qub), "--dt", str(protocol.sample_dt),
            "--out", str(path)]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    assert path.stat().st_size > trace_bytes  # the text outweighs the arrays
    assert peak <= 1.5 * trace_bytes


def test_cli_estimate_peak_bounded_by_the_trace(trace, trace_bytes, tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(q.trace_to_csv(trace), encoding="utf-8")
    code, peak = traced_peak(cli.main, ["estimate", "--trace", str(path)])
    assert code == 0 and capsys.readouterr().out.startswith("H_qub_W_per_K,")
    assert path.stat().st_size > trace_bytes
    assert peak <= 1.5 * trace_bytes


def test_simulate_holds_one_copy_of_the_trace(bungalow_model, protocol, trace_bytes):
    """The columns, one phase's response and the kernel's blocks: 1.88×
    when the phases were concatenated from copies."""
    basis = q.eigendecompose(bungalow_model)
    _, peak = traced_peak(q.simulate_qub, bungalow_model, protocol, basis=basis)
    assert peak <= 1.3 * trace_bytes


def test_render_peak_within_three_times_the_text(trace):
    """2.0×: the chunks, then the text joined from them; one chunk's
    column strings add a few KB beside them."""
    text, peak = traced_peak(q.trace_to_csv, trace)
    assert peak <= 3 * len(text)


def test_parse_peak_within_twice_the_text(trace):
    text = q.trace_to_csv(trace)
    _, peak = traced_peak(q.trace_from_csv, text)
    assert peak <= 2 * len(text)


@pytest.mark.parametrize("end", ["\r", "\u2028"], ids=["CR", "U+2028"])
def test_parse_peak_within_twice_the_text_for_any_line_end(trace, end):
    """Lines end wherever ``str.splitlines`` ends them, so the text is read
    in pieces whatever its line ends: 6.47× and 8.47× the text when only a
    newline ended a piece and the whole text was one."""
    text = q.trace_to_csv(trace).replace("\n", end)
    parsed, peak = traced_peak(q.trace_from_csv, text)
    assert parsed.delta_T.tobytes() == trace.delta_T.tobytes()
    assert peak <= 2 * len(text)


def test_stacked_response_temporaries_stay_under_the_mmap_threshold(bungalow_model):
    """One default sweep row: 40 heating powers at 121 instants."""
    model = bungalow_model
    ph_values, t_values = q.default_axes(q.reference_H(model), 0.0)
    setup = qub._protocol_setup(model, 0.0, {})
    u = setup.inputs(ph_values)
    x0 = q.initial_state(model, setup.inputs(0.0))
    times = np.linspace(0.0, t_values[-1], 121)
    basis = q.eigendecompose(model)
    y, peak = traced_peak(q.step_response, model, u, x0, times, basis=basis)
    assert y.shape == (40, 121, model.C.shape[0])
    assert peak < y.nbytes + 3 * MMAP_THRESHOLD


@pytest.mark.parametrize("sample_dt", [None, 1.0], ids=["121 instants", "43,201 instants"])
def test_peak_pass_temporaries_stay_under_the_mmap_threshold(bungalow_model, sample_dt):
    """The peak temperatures of one sweep row of 40 heating powers, whose
    whole records would take 14 MB at 1 s sampling."""
    model = bungalow_model
    ph_values, t_values = q.default_axes(q.reference_H(model), 0.0)
    protocol = q.QubProtocol(T_o=0.0, P0=0.0, P_h=ph_values[-1], P_c=0.0,
                             t_qub=t_values[-1], sample_dt=sample_dt)
    setup = qub._protocol_setup(model, 0.0, {})
    basis = q.eigendecompose(model)
    held = qub._held(model, protocol, setup)
    times = qub._sample_times(protocol)
    (peak, finite), traced = traced_peak(
        lambda: doe._affine_peaks(model, basis, setup, held, ph_values)(protocol.t_qub, times))
    assert peak.shape == finite.shape == (40,) and finite.all()
    assert traced < 2 * MMAP_THRESHOLD


def test_cli_sweep_holds_one_duration_at_a_time(tmp_path, capsys):
    """40 durations from 1 h to 12 h at 1 s sampling, 4 powers: each
    duration's sample instants and fit windows live for its row only, so
    the peak is a few records of the longest duration, and fails when the
    sweep keeps every duration's (16.4 MB)."""
    building = tmp_path / "bungalow.json"
    building.write_text(q.bungalow_json(), encoding="utf-8")
    code, peak = traced_peak(cli.main, ["sweep", str(building), "--dt", "1",
                                        "--ph-range", "100:400:4"])
    assert code == 0 and capsys.readouterr().out.startswith(doe.GRID_HEADER)
    # one phase of the longest duration: 43,201 samples of 8 bytes
    record = 8 * 43_201
    assert peak <= 10 * record


#: bytes of one kernel block of floats
BLOCK_BYTES = 8 * modal._BLOCK_ELEMENTS


@pytest.mark.parametrize("building", ["bungalow", "house"])
def test_sweep_holds_one_phase_of_records_at_a_time(building, request):
    """The default 40×40 grid: the per-cell columns take about one and a
    half blocks, one phase's records of a group one, and their fit two
    (the padded copy, and the deviations that the residual overwrites),
    with the kernel's temporaries beside the records.  5.9 and 6.3
    blocks; 6.2 and 6.6 when the sweep also kept both phases' ``t0`` and
    P_c per cell, and 7.7 when both phases' records lived through both
    fits and each fit kept its residual beside the deviations."""
    model = request.getfixturevalue(f"{building}_model")
    ph_values, t_values = q.default_axes(q.reference_H(model), 0.0)
    protocol = q.QubProtocol(T_o=0.0, P0=0.0, P_h=ph_values[-1], P_c=0.0,
                             t_qub=t_values[-1])
    grid, peak = traced_peak(q.sweep, model, protocol, ph_values, t_values, q.ErrorPolicy())
    assert grid.valid.all()
    assert peak <= 7.25 * BLOCK_BYTES


class _Discard:
    """A stdout that counts the characters written to it and keeps none."""

    chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)

    def flush(self) -> None:
        pass


def test_cli_sweep_renders_one_duration_at_a_time(tmp_path, monkeypatch):
    """The default bungalow sweep: its CSV is rendered one duration's rows
    at a time after the sweep has freed its arrays, so the render adds a
    few times one duration's text to what the sweep leaves and the
    command peaks in the sweep.  The render added ~990 KB, 50 KB above
    the sweep's own peak, when it held the whole text and its lines."""
    building = tmp_path / "bungalow.json"
    building.write_text(q.bungalow_json(), encoding="utf-8")
    run_sweep, after_sweep = cli._sweep, []

    def sweep(args):
        grid = run_sweep(args)
        after_sweep.append(tracemalloc.get_traced_memory())  # (held, peak)
        tracemalloc.reset_peak()
        return grid

    monkeypatch.setattr(cli, "_sweep", sweep)
    monkeypatch.setattr(sys, "stdout", _Discard())
    code, render_peak = traced_peak(cli.main, ["sweep", str(building)])
    (held, sweep_peak), = after_sweep
    assert code == 0
    row_text = sys.stdout.chars // 40  # the default grid's durations
    assert render_peak - held <= 8 * row_text
    assert render_peak <= sweep_peak + row_text


@pytest.fixture(scope="module", params=[0, 1 << 20], ids=["no header", "padded header"])
def newline_free(request, tmp_path_factory):
    """4 MB of text without a newline, a file holding it, and the part of
    it that can still open a trace: nothing, or the header and 1 MB of
    padding before the line goes on."""
    size, padding = 4 << 20, request.param
    head = qub._TRACE_HEADER + " " * padding if padding else ""
    text = head + "x" * (size - len(head))
    path = tmp_path_factory.mktemp("newline_free") / "trace.csv"
    path.write_text(text, encoding="utf-8")
    return text, path, len(head)


def _header_error(fh):
    with pytest.raises(q.SchemaError, match="first line must be"):
        q.trace_from_csv(fh)


@pytest.mark.parametrize("source", ["file", "unseekable stream"])
def test_newline_free_trace_fails_within_a_few_reads(newline_free, source):
    """The parse holds what can still be the header, and a few reads."""
    text, path, head = newline_free
    with (open(path, encoding="utf-8") if source == "file" else Unseekable(text)) as fh:
        _, peak = traced_peak(_header_error, fh)
    assert peak < head + len(text) // 8


def test_cli_estimate_newline_free_trace_exits_3(newline_free, capsys):
    _, path, head = newline_free
    code, peak = traced_peak(cli.main, ["estimate", "--trace", str(path)])
    assert code == 3
    assert "first line must be" in capsys.readouterr().err
    assert peak < head + path.stat().st_size // 8


#: a fresh interpreter counting the minor faults inside ``cli.main``
_FAULT_PROBE = """
import contextlib, io, resource, sys
from qubdoe import cli
with contextlib.redirect_stdout(io.StringIO()):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = cli.main(sys.argv[1:])
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(code, after - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts page faults against glibc's allocator thresholds")
@pytest.mark.parametrize("command, building, args", [
    ("sweep", "bungalow", ()),
    ("optimum", "house", ("--set", "T_g=14", "--pc", "300", "--dt", "60", "--ph-range",
                          "200:3000:24", "--t-range", "3600:43200:24", "--max-temp", "10")),
], ids=["sweep-bungalow", "optimum-house"])
def test_sweep_faults_in_few_pages(command, building, args, tmp_path):
    """~17,800 and ~9,800 faults when each block's temporaries were freed
    back to the OS; ~400 and ~230 (~860 with two BLAS threads) with
    blocks under the threshold."""
    path = tmp_path / f"{building}.json"
    path.write_text(getattr(q, f"{building}_json")(), encoding="utf-8")
    src = str(Path(q.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE, command, str(path), *args],
                          capture_output=True, text=True, env=env, check=True)
    code, faults = map(int, done.stdout.split())
    assert code == 0
    assert faults <= 3000
