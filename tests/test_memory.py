"""Working memory of the long-trace path: simulate, render, parse, and
the ``simulate --out`` / ``estimate --trace`` commands around them.

tracemalloc counts every allocation Python and numpy make while it runs,
so its peak is deterministic from run to run.  The bounds hold when the
kernels work in fixed-size blocks, and fail when a call keeps all its
samples times all states, or all rows as Python objects, at once.  The
commands' bounds are set by the trace's arrays, not its text, and fail
when a command holds the whole CSV text in memory.
"""
from __future__ import annotations

import tracemalloc

import pytest

import qubdoe as q
from qubdoe import cli


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
    assert peak <= 2.5 * trace_bytes


def test_cli_estimate_peak_bounded_by_the_trace(trace, trace_bytes, tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(q.trace_to_csv(trace), encoding="utf-8")
    code, peak = traced_peak(cli.main, ["estimate", "--trace", str(path)])
    assert code == 0 and capsys.readouterr().out.startswith("H_qub_W_per_K,")
    assert path.stat().st_size > trace_bytes
    assert peak <= 2.5 * trace_bytes


def test_simulate_peak_within_four_times_the_trace(bungalow_model, protocol,
                                                   trace_bytes):
    basis = q.eigendecompose(bungalow_model)
    _, peak = traced_peak(q.simulate_qub, bungalow_model, protocol, basis=basis)
    assert peak <= 4 * trace_bytes


def test_render_peak_within_three_times_the_text(trace):
    text, peak = traced_peak(q.trace_to_csv, trace)
    assert peak <= 3 * len(text)


def test_parse_peak_within_twice_the_text(trace):
    text = q.trace_to_csv(trace)
    _, peak = traced_peak(q.trace_from_csv, text)
    assert peak <= 2 * len(text)
