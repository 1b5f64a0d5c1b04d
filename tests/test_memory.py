"""Working memory of the long-trace path: simulate, render, parse.

tracemalloc counts every allocation Python and numpy make while it runs,
so its peak is deterministic from run to run.  The bounds hold when the
kernels work in fixed-size blocks, and fail when a call keeps all its
samples times all states, or all rows as Python objects, at once.
"""
from __future__ import annotations

import tracemalloc

import pytest

import qubdoe as q


def traced_peak(fn, *args):
    """Result of ``fn(*args)`` and the peak bytes allocated during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
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


def test_simulate_peak_within_four_times_the_trace(bungalow_model, protocol, trace):
    basis = q.eigendecompose(bungalow_model)
    _, peak = traced_peak(q.simulate_qub, bungalow_model, protocol, None, None, basis)
    returned = trace.times.nbytes + trace.delta_T.nbytes + trace.power.nbytes
    assert peak <= 4 * returned


def test_render_peak_within_three_times_the_text(trace):
    text, peak = traced_peak(q.trace_to_csv, trace)
    assert peak <= 3 * len(text)


def test_parse_peak_within_twice_the_text(trace):
    text = q.trace_to_csv(trace)
    _, peak = traced_peak(q.trace_from_csv, text)
    assert peak <= 2 * len(text)
