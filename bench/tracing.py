"""Per-layer spans recorded from outside the library.

Each layer is a set of public functions, wrapped where their callers look
them up (``qubdoe.doe.simulate_qub``, ``qubdoe.qub.step_response``, ...),
so the library itself is not changed.  A span's time is busy time of the
thread that runs it (``time.thread_time``); a layer's ``self_s`` is the
busy time of its spans, summed over threads, minus the time of the spans
they call.  Time spent in BLAS helper threads is not attributed to any
layer.

The sweep runs its cells on worker threads, where the wrapped calls start
with an empty span stack.  While ``doe.sweep`` is open it adopts those
threads: the busy time of each worker between its first and last span,
minus the spans themselves, is per-cell orchestration and counts as
``doe.sweep`` self time.  ``doe.sweep.workers`` is the number of threads
that ran cell work (1 when the sweep runs serially), and
``doe.sweep.us_per_cell`` the sweep call's wall time per cell.

A wrapped name that no longer exists is skipped, and a function that is
no longer called reads 0: a refactor changes the numbers, not the
benchmark's ability to run.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

_busy = time.thread_time


def _response_samples(args, kwargs, result) -> dict[str, float]:
    """Instants evaluated: ``step_response``'s times, ``state_at``'s one
    instant, none for ``initial_state``."""
    when = args[3] if len(args) > 3 else kwargs.get("times", kwargs.get("t"))
    if when is None:
        return {}
    return {"samples": float(len(when)) if hasattr(when, "__len__") else 1.0}


def _trace_samples(args, kwargs, result) -> dict[str, float]:
    return {"samples": float(len(result.times))}


def _result_bytes(args, kwargs, result) -> dict[str, float]:
    return {"bytes": float(len(result))}


def _argument_bytes(args, kwargs, result) -> dict[str, float]:
    return {"bytes": float(len(args[0]))}


def _grid_cells(args, kwargs, result) -> dict[str, float]:
    cells = [cell for row in result.cells for cell in row]
    return {"cells": float(len(cells)),
            "invalid_cells": float(sum(1 for cell in cells if not cell.valid))}


@dataclass(frozen=True)
class Layer:
    """One layer: the functions that make it up (``module:attr`` or
    ``module:Class.attr``), the metrics it reports, the counters taken
    from a call's arguments and result, and which end-to-end metric it
    is expected to move on which workload (the figures are the seed's
    traced ``self_s`` medians in ``BENCH_seed.json``)."""

    name: str
    targets: tuple[str, ...]
    metrics: tuple[str, ...]
    moves: str
    counters: Callable | None = None
    adopts_threads: bool = False


LAYERS = (
    Layer("cli", ("qubdoe.cli:main",), ("self_s",),
          "small share of wall_s on every workload (argparse, file I/O, glue)"),
    Layer("network.parse", ("qubdoe.cli:parse_building",), ("calls", "self_s"),
          "setup_s on all three workloads; negligible in wall_s"),
    Layer("network.reduce", ("qubdoe.cli:to_state_space",), ("calls", "self_s"),
          "setup_s on all three workloads; negligible in wall_s"),
    Layer("conductance.reference",
          ("qubdoe.cli:reference_H_single", "qubdoe.cli:overall_H_multizone",
           "qubdoe.cli:static_gains"),
          ("calls", "self_s"),
          "setup_s on sweep-bungalow and optimum-house"),
    Layer("modal.eig", ("qubdoe.doe:eigendecompose", "qubdoe.qub:eigendecompose"),
          ("calls", "self_s"),
          "wall_s on all three workloads, negligibly: one call per invocation, "
          "inside the first sweep or simulate call and so after setup_s ends"),
    Layer("modal.response",
          ("qubdoe.qub:step_response", "qubdoe.qub:state_at", "qubdoe.qub:initial_state"),
          ("calls", "self_s", "samples"),
          "wall_s on sweep-bungalow (~0.5 s of ~1.4 s, second only to qub.simulate) "
          "and optimum-house (~0.2 s of ~0.5 s); negligible on trace-bungalow (~0.04 s)",
          counters=_response_samples),
    Layer("qub.simulate", ("qubdoe.doe:simulate_qub", "qubdoe.cli:simulate_qub"),
          ("calls", "self_s", "samples"),
          "wall_s on sweep-bungalow (1600 calls, ~0.55 s) and optimum-house (~0.25 s); "
          "small on trace-bungalow (one call, ~0.03 s)",
          counters=_trace_samples),
    Layer("qub.fit", ("qubdoe.doe:fit_slope", "qubdoe.qub:fit_slope"),
          ("calls", "self_s"),
          "wall_s on sweep-bungalow (~0.2 s) and optimum-house (~0.1 s)"),
    Layer("qub.estimator",
          ("qubdoe.doe:estimate_H", "qubdoe.doe:estimate_C",
           "qubdoe.qub:estimate_H", "qubdoe.qub:estimate_C"),
          ("calls", "self_s", "errors"),
          "small share of wall_s on sweep-bungalow and optimum-house (<1%)"),
    Layer("qub.estimate", ("qubdoe.cli:estimate_from_trace",), ("self_s",),
          "negligible share of wall_s on trace-bungalow (the CSV parse is "
          "qub.trace_parse)"),
    Layer("qub.trace_render", ("qubdoe.cli:trace_to_csv",), ("self_s", "bytes"),
          "wall_s (~0.18 s of ~0.4 s) and peak_rss_mb on trace-bungalow only",
          counters=_result_bytes),
    Layer("qub.trace_parse", ("qubdoe.cli:trace_from_csv",), ("self_s", "bytes"),
          "wall_s (~0.14 s of ~0.4 s) and peak_rss_mb on trace-bungalow only",
          counters=_argument_bytes),
    Layer("error_budget",
          ("qubdoe.error_budget:ErrorPolicy.resolve", "qubdoe.doe:partials",
           "qubdoe.doe:measurement_error", "qubdoe.doe:assemble_budget"),
          ("calls", "self_s", "errors"),
          "small share of wall_s on sweep-bungalow (~0.05 s) and optimum-house "
          "(~0.02 s); zero on trace-bungalow"),
    Layer("doe.sweep", ("qubdoe.cli:sweep",),
          ("self_s", "cells", "invalid_cells", "valid_frac", "us_per_cell", "workers"),
          "wall_s on sweep-bungalow (~0.25 s) and optimum-house (~0.1 s): "
          "per-cell orchestration and the thread pool",
          counters=_grid_cells, adopts_threads=True),
    Layer("doe.select", ("qubdoe.cli:select_optimum",), ("self_s",),
          "negligible share of wall_s; optimum-house only"),
    Layer("doe.grid_render", ("qubdoe.cli:grid_to_csv",), ("self_s", "bytes"),
          "small share of wall_s (~1%) on sweep-bungalow only",
          counters=_result_bytes),
)

UNITS = {
    "calls": ("count", "lower"), "self_s": ("s", "lower"),
    "samples": ("count", "lower"), "bytes": ("bytes", "lower"),
    "errors": ("count", "lower"), "cells": ("count", "higher"),
    "invalid_cells": ("count", "lower"), "valid_frac": ("ratio", "higher"),
    "us_per_cell": ("us", "lower"), "workers": ("count", "lower"),
}


def metric_names() -> list[str]:
    return [f"{layer.name}.{metric}" for layer in LAYERS for metric in layer.metrics]


def _resolve(target: str):
    """The object holding ``target``'s attribute and the attribute name,
    or None when the module, class or attribute no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class _Adoption:
    """Worker threads seen while a thread-adopting span is open."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.workers: dict[int, list[float]] = {}  # first start, last end, span time

    def note(self, start: float, end: float) -> None:
        record = self.workers.get(threading.get_ident())
        if record is None:
            self.workers[threading.get_ident()] = [start, end, end - start]
        else:
            record[1] = end
            record[2] += end - start

    def orchestration(self) -> float:
        return sum(last - first - spans for first, last, spans in self.workers.values())


class Tracer:
    """Installs span wrappers on every layer's functions and accumulates
    per-layer metrics until :meth:`snapshot`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._adoption: _Adoption | None = None
        self._values: defaultdict[str, float] = defaultdict(float)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            for target in layer.targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(layer, original))
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            adoption = tracer._adoption if not stack else None
            if layer.adopts_threads:
                own_adoption = tracer._adoption = _Adoption()
                wall_start = time.perf_counter()
            frame = [0.0]  # busy time of child spans
            stack.append(frame)
            start = _busy()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(layer, stack, frame, start, adoption, {"errors": 1.0})
                raise
            finally:
                if layer.adopts_threads:
                    tracer._adoption = None
            extra = {}
            if layer.adopts_threads:
                extra["self_s"] = own_adoption.orchestration()
                extra["workers"] = float(max(1, len(own_adoption.workers)))
                extra["wall_s"] = time.perf_counter() - wall_start
            tracer._close(layer, stack, frame, start, adoption, extra,
                          (args, kwargs, result))
            return result

        return span

    def _close(self, layer: Layer, stack, frame, start: float, adoption,
               extra: dict[str, float], call=None) -> None:
        end = _busy()
        stack.pop()
        busy = end - start
        updates = {"calls": 1.0, "self_s": busy - frame[0]}
        for key, value in extra.items():
            updates[key] = updates.get(key, 0.0) + value
        if call is not None and layer.counters is not None:
            try:
                updates.update(layer.counters(*call))
            except (AttributeError, TypeError, IndexError):
                pass  # the call's signature or result changed: count nothing
        with self._lock:
            for key, value in updates.items():
                self._values[f"{layer.name}.{key}"] += value
        # the bookkeeping since ``end`` is charged to nobody
        done = _busy()
        if stack:
            stack[-1][0] += done - start
        elif adoption is not None and adoption.thread != threading.get_ident():
            adoption.note(start, done)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Every layer metric accumulated since the last snapshot (0 for
        layers that did not run), then start afresh."""
        values, self._values = self._values, defaultdict(float)
        cells = values["doe.sweep.cells"]
        values["doe.sweep.valid_frac"] = (
            (cells - values["doe.sweep.invalid_cells"]) / cells if cells else 0.0)
        values["doe.sweep.us_per_cell"] = 1e6 * values["doe.sweep.wall_s"] / cells if cells else 0.0
        return {name: values[name] for name in metric_names()}
