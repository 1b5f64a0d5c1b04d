"""Design sweeps: error maps over heating power and pulse duration.

:func:`sweep` runs the chain of one two-pulse experiment — simulate, fit
both phases, estimate H, propagate the error budget — for every
(P_h, t_qub) pair, in two passes.  The first takes consecutive durations
in groups whose window records for all powers fit in one block, and
evaluates a group's powers and durations together, as stacked arrays,
with the exact response kernel run at the fit-window instants only: one
switch-state call for all its durations and one response call per phase
over their concatenated windows, each cooling instant running from its
own duration's switch.  One fit covers each run of windows as long, and
the fits go into per-cell columns.  A duration whose records alone
exceed a block is a group alone, its powers in blocks.  Then the
estimators and the budget run once over the fitted cells, elementwise.
The response is affine in P_h, so theta_max is the peak of
a(t) + P_h·b(t) (:func:`_affine_peaks`), one pass per run of a group's
durations with as many samples.  The grid stays columns up to its CSV.

The kernels bound their temporaries, and the sweep a group's (powers,
window samples) records, at :data:`~qubdoe.modal._BLOCK_ELEMENTS` floats:
128 KiB, glibc's default mmap threshold, so blocks reuse the same heap
memory instead of faulting in fresh pages (a fresh default bungalow
sweep took 17,751 minor faults with 400 KB blocks, 400 with these).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from math import nan
from collections.abc import Sequence

import numpy as np

from .conductance import reference_H
from .error_budget import ErrorPolicy, assemble_budget, measurement_error, partials
from .exceptions import ModelError, NumericalError
from .modal import _BLOCK_ELEMENTS, EigenBasis, _apply, _modal_coordinates, eigendecompose
from .network import StateSpaceModel
from .qub import (_COOLING, _HEATING, _WINDOW_FRACTION, QubProtocol, SlopeFit, _cancels,
                  _fit_window, _fit_windows, _held, _protocol_setup,
                  _sample_times, _two_pulse, estimate_H)
# the sweep no longer calls simulate_qub, but bench/tracing.py wraps it under
# this module and bench/test_bench.py checks that wrap, so the name stays here
from .qub import simulate_qub  # noqa: F401

__all__ = [
    "DoeCell",
    "DoeGrid",
    "DesignConstraints",
    "sweep",
    "select_optimum",
    "grid_to_csv",
    "default_axes",
    "GRID_HEADER",
]

GRID_HEADER = "ph_W,t_qub_s,H_qub_W_per_K,eps_qub_pct,eps_Hm_W_per_K,eps_H_pct,theta_max_C,valid"


@dataclass(frozen=True)
class DoeCell:
    """Outcome of one candidate design.

    Error fields are ``nan`` when the cell is degenerate (``valid`` is
    False), a non-finite error budget included; the peak indoor
    temperature is kept whenever the simulation itself succeeded.
    """

    ph: float
    t_qub: float
    H_qub: float
    eps_qub_pct: float
    eps_Hm: float
    eps_H_pct: float
    theta_max: float
    valid: bool


#: the per-cell columns of a DoeGrid, in the order of the DoeCell fields
_COLUMNS = tuple(f.name for f in fields(DoeCell)[2:])


@dataclass(frozen=True)
class DoeGrid:
    """Full sweep result: one column per :class:`DoeCell` field after ph
    and t_qub, where ``H_qub[i, j]`` pairs ``t_values[i]`` with
    ``ph_values[j]`` (duration-major, matching the export order).  Axes
    and columns are stored as read-only float arrays, ``valid`` as bool;
    a column not of shape (t_values.size, ph_values.size) raises
    ModelError."""

    ph_values: np.ndarray
    t_values: np.ndarray
    H_qub: np.ndarray
    eps_qub_pct: np.ndarray
    eps_Hm: np.ndarray
    eps_H_pct: np.ndarray
    theta_max: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        shape = (np.size(self.t_values), np.size(self.ph_values))
        for f in fields(self):
            column = np.array(getattr(self, f.name), dtype=bool if f.name == "valid" else float)
            if f.name in _COLUMNS and column.shape != shape:
                raise ModelError(f"{f.name} must have shape {shape}, got {column.shape}")
            column.setflags(write=False)
            object.__setattr__(self, f.name, column)

    @property
    def cells(self) -> tuple[tuple[DoeCell, ...], ...]:
        """Every design: ``cells[i][j]`` at ``t_values[i]`` and ``ph_values[j]``."""
        ph_list = self.ph_values.tolist()
        columns = [getattr(self, name).tolist() for name in _COLUMNS]
        return tuple(tuple(DoeCell(p, t, *values) for p, *values in zip(ph_list, *row))
                     for t, *row in zip(self.t_values.tolist(), *columns))


@dataclass(frozen=True)
class DesignConstraints:
    """Admissibility limits for selecting a design.

    ``max_total_duration`` bounds the whole experiment (both pulses,
    i.e. 2·t_qub); ``max_indoor_temperature`` bounds the peak of the
    simulated indoor temperature (°C); ``max_power`` the heater (W).
    Each is ``inf`` for no limit.
    """

    max_power: float
    max_indoor_temperature: float
    max_total_duration: float

    def __post_init__(self) -> None:
        for name in ("max_power", "max_total_duration"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ModelError(f"{name} must be positive, got {value}")
        if np.isnan(self.max_indoor_temperature):
            raise ModelError("max_indoor_temperature must not be nan")


def _affine_peaks(model: StateSpaceModel, basis: EigenBasis, setup, held,
                  ph: np.ndarray):
    """The peak pass of a sweep over the powers ``ph``: a function of
    t_qub and a phase's sample instants ``rel`` giving each power's
    largest indoor mean temperature over both phases, and whether all its
    values are finite, within 1e-12 relative of the lone trace's peak.
    A vector of durations (D,) with their instants stacked (D, n) gives
    (D, powers) arrays, each row that duration's.

    In each phase y(t) = a(t) + P_h·b(t), from the modes projected on the
    indoor weights, g = wᵀCV: g∘V⁻¹x0 of the pre-experiment state, g∘V⁻¹Bu
    of the boundary temperatures, of one watt and of the cooling input,
    and their feedthrough wᵀDu.  A block of instants costs a and b of each
    phase and their product with (1, P_h).  Its phase table and values
    take at most half of :data:`_BLOCK_ELEMENTS` floats, leaving the rest
    to numpy's iterator buffers, and each product a quarter of the size
    OpenBLAS threads (a dgemm of 262,144 multiply-adds), so the sums do
    not depend on the thread count."""
    x0, u_cool = held
    u_temp = setup.inputs(0.0)
    inputs = np.stack([u_temp, setup.inputs(1.0) - u_temp, u_cool])
    w0, wu = _modal_coordinates(model, inputs, x0, basis)
    g = (setup.indoor_weights @ model.C) @ basis.vectors
    lam, start, (temp, unit, cool) = basis.eigenvalues, g * w0, g * wu
    # the columns a_h, b_h, a_c, b_c, from the modes' forced rise here and
    # from their decay per duration
    zero = np.zeros_like(lam)
    by_forced = np.stack([temp, unit, cool, zero], axis=1)
    offsets = np.append(_apply(model.D, inputs) @ setup.indoor_weights, 0.0)
    powers = np.stack([np.ones_like(ph), ph])

    def peaks(t_qub, rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = np.asarray(t_qub, dtype=float)[..., None] * lam
        decay, forced = np.exp(at), np.expm1(at) / lam
        # the switch state's coordinates are m0 + P_h·m1
        by_decay = np.stack(np.broadcast_arrays(start, zero, decay * start + forced * temp,
                                                forced * unit), axis=-1)
        stack = rel.shape[:-1]
        rows = max(2, min(_BLOCK_ELEMENTS // (2 * math.prod(stack) * (lam.size + ph.size)),
                          65_536 // (4 * lam.size)))
        # a matrix product into one buffer: a broadcast sum would take
        # iterator buffers as large again
        values = np.empty(stack + (rows, ph.size))
        peak = np.full(stack + ph.shape, -np.inf)
        finite = np.ones(stack + ph.shape, dtype=bool)
        for first in range(0, rel.shape[-1], rows):
            phase = rel[..., first:first + rows, None] * lam
            columns = np.exp(phase) @ by_decay
            np.expm1(phase, out=phase)
            phase /= lam
            columns += phase @ by_forced
            columns += offsets
            # the cooling record starts one sample after the switch
            for ab in (columns[..., :2], columns[..., int(first == 0):, 2:]):
                block = np.matmul(ab, powers, out=values[..., :ab.shape[-2], :])
                np.maximum(peak, block.max(axis=-2), out=peak)
                finite &= np.isfinite(block).all(axis=-2)
        return peak, finite

    return peaks


def _row_protocol(template: QubProtocol, t_qub: float, window_fraction: float
                  ) -> tuple[QubProtocol, np.ndarray, tuple | None, ModelError | None]:
    """The protocol of one duration, its sample instants, and its fit
    windows (:func:`~qubdoe.qub._fit_windows`), or their error when they
    cannot fit at that duration."""
    sample_dt = template.sample_dt
    if sample_dt is not None and sample_dt > t_qub / 20.0:
        sample_dt = None
    protocol = replace(template, t_qub=t_qub, sample_dt=sample_dt)
    rel = _sample_times(protocol)
    try:
        return protocol, rel, _fit_windows(rel, t_qub, window_fraction), None
    except ModelError as exc:
        return protocol, rel, None, exc


def _record_floats(windows, n_states: int) -> int:
    """Floats that one power's records of a duration take in the group
    pass: its longer fit window, or two switch states; none without
    windows."""
    if windows is None:
        return 0
    return max(2 * n_states, *(instants.size for instants, _ in windows))


def _groups(floats: list[int], n_powers: int) -> list[list[int]]:
    """Consecutive durations, by their :func:`_record_floats`, whose
    records for ``n_powers`` powers take at most :data:`_BLOCK_ELEMENTS`
    floats together; a duration that takes more alone is a group alone."""
    groups, total = [[]], 0
    for i, size in enumerate(floats):
        if groups[-1] and n_powers * (total + size) > _BLOCK_ELEMENTS:
            groups.append([])
            total = 0
        groups[-1].append(i)
        total += size
    return groups


def _runs(sizes: list[int]) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal consecutive ``sizes``."""
    bounds = [0, *(i for i in range(1, len(sizes)) if sizes[i] != sizes[i - 1]), len(sizes)]
    return list(zip(bounds[:-1], bounds[1:]))


def _fit_runs(windows, dT: np.ndarray, phase: str, grid: SlopeFit,
              cells: np.ndarray) -> np.ndarray:
    """Fit the records ``dT`` (powers, samples) over a group's concatenated
    fit ``windows``, one call per run of windows as long, into the columns
    ``grid`` at ``cells`` (durations, powers); return which records are
    finite."""
    finite = np.empty(cells.shape, dtype=bool)
    offset = 0
    for start, stop in _runs([clock.size for _, clock in windows]):
        clocks = np.stack([clock for _, clock in windows[start:stop]])
        y = dT[:, offset:offset + clocks.size].reshape(-1, *clocks.shape).swapaxes(0, 1)
        offset += clocks.size
        fit = _fit_window(clocks[:, None, :], y, phase)
        for f in fields(SlopeFit):
            getattr(grid, f.name)[cells[start:stop]] = getattr(fit, f.name)
        finite[start:stop] = np.isfinite(y).all(axis=-1)
    return finite


def _sweep_group(model: StateSpaceModel, basis: EigenBasis, setup, held, peaks,
                 rows: list, ph: np.ndarray, cells: np.ndarray, fits: tuple) -> np.ndarray:
    """The peak temperatures (durations, powers) of the powers ``ph`` at a
    group of consecutive durations, given as :func:`_row_protocol` rows
    (nan where a record is not finite).  At each duration with fit
    windows, each finite record's held P_h and P_c and both fits go into
    the columns ``fits`` at its cell in ``cells`` (durations, powers),
    marked fitted.

    One peak call covers each run of durations with as many samples; then
    per block of powers, one :func:`_two_pulse` covers the concatenated
    windows of every duration, and one fit each run of windows as long."""
    P_h, P_c, grid_h, grid_c, fitted = fits
    t_qub = np.array([protocol.t_qub for protocol, _, _ in rows])
    sizes = [rel.size for _, rel, _ in rows]
    peak, finite = np.empty(cells.shape), np.empty(cells.shape, dtype=bool)
    for start, stop in _runs(sizes):
        peak[start:stop], finite[start:stop] = peaks(
            t_qub[start:stop], np.stack([rel for _, rel, _ in rows[start:stop]]))
    fit = [d for d, (_, _, windows) in enumerate(rows) if windows is not None]
    if fit:
        heat, cool = zip(*(rows[d][2] for d in fit))
        t_heat, t_cool = (np.concatenate([instants for instants, _ in windows])
                          for windows in (heat, cool))
        # each cooling instant runs from the switch of its own duration
        starts = np.repeat(np.arange(len(fit)), [instants.size for instants, _ in cool])
        block = max(1, _BLOCK_ELEMENTS // sum(_record_floats(rows[d][2], model.n_states)
                                              for d in fit))
        fit_sizes = [sizes[d] for d in fit]
        for first in range(0, ph.size, block):
            index = slice(first, first + block)
            at = cells[fit, index]
            dT_heat, dT_cool = _two_pulse(model, basis, setup, ph[index], held, t_qub[fit],
                                          t_heat, t_cool, starts)
            ok = (finite[fit, index] & _fit_runs(heat, dT_heat, _HEATING, grid_h, at)
                  & _fit_runs(cool, dT_cool, _COOLING, grid_c, at))
            del dT_heat, dT_cool  # freed before the next block's records are made
            finite[fit, index] = ok
            fitted[at] = ok
            # P_c, and P_h per block, as the estimators read them: the mean of a
            # record's held samples, which need not equal the held value
            for start, stop in _runs(fit_sizes):
                size = fit_sizes[start]
                P_h[at[start:stop]] = np.repeat(ph[index, None], size, axis=1).mean(axis=1)
                P_c[at[start:stop]] = np.full(size - 1, rows[0][0].P_c).mean()
    return np.where(finite, peak, nan)


def _grid_budget(fits: tuple, H_ref: float, policy: ErrorPolicy, out: dict) -> None:
    """Estimate and budget the fitted cells of the :func:`_sweep_group`
    columns ``fits`` at once, and fill the grid columns ``out`` at the
    cells whose budget is finite; elementwise, so each cell's bits are
    its lone run's."""
    P_h, P_c, fit_h, fit_c, fitted = fits
    cell = np.flatnonzero(fitted & ~_cancels(fit_h.dT0 * fit_c.alpha, fit_c.dT0 * fit_h.alpha))
    fit_h, fit_c = (SlopeFit(*(getattr(fit, f.name)[cell] for f in fields(SlopeFit)))
                    for fit in (fit_h, fit_c))
    P_h, P_c = P_h[cell], P_c[cell]
    H_qub = estimate_H(fit_h.alpha, fit_c.alpha, fit_h.dT0, fit_c.dT0, P_h, P_c)
    sens = partials(fit_h.alpha, fit_c.alpha, P_h, P_c, fit_h.dT0, fit_c.dT0)
    errors = policy.resolve(P_h, fit_h, fit_c)
    budget = assemble_budget(H_qub, H_ref, measurement_error(sens, errors))
    # a budget that over- or underflowed says nothing about the design
    finite = np.isfinite(budget.eps_Hm) & np.isfinite(budget.eps_H_pct)
    for name, value in zip(_COLUMNS, (H_qub, budget.eps_qub_pct, budget.eps_Hm,
                                      budget.eps_H_pct)):
        np.put(out[name], cell[finite], value[finite])
    np.put(out["valid"], cell[finite], True)


def sweep(model: StateSpaceModel, protocol_template: QubProtocol,
          ph_values: Sequence[float], t_values: Sequence[float],
          policy: ErrorPolicy, *,
          window_fraction: float = _WINDOW_FRACTION) -> DoeGrid:
    """Evaluate the error budget over a (P_h × t_qub) grid.

    Parameters
    ----------
    model, protocol_template
        The model's weights average the indoor temperature and split
        the power, as for :func:`~qubdoe.qub.simulate_qub`; the
        intrinsic error is measured against its
        :func:`~qubdoe.conductance.reference_H`.  The template's P_h and
        t_qub are overridden per cell, so any valid pair will do (the
        CLI uses the grid's largest cell); its sampling step is dropped
        for cells it would undersample.
    ph_values, t_values
        Grid axes (W, s); kept in the given order.
    policy
        Measurement uncertainties, resolved per cell (power-relative
        eps_P, slope error from the fit's own r², unless fixed values
        are set).
    window_fraction
        Trailing fraction of each phase fitted, in (0, 1], as for
        :func:`~qubdoe.qub.fit_slope`.

    Returns
    -------
    DoeGrid
        Columns of shape (len(t_values), len(ph_values)); degenerate
        cells are flagged invalid, never fatal.  H_qub, eps_qub_pct,
        eps_Hm, eps_H_pct and valid equal the chain simulate_qub →
        fit_slope → estimate_H → error budget run for the cell alone,
        bit for bit; theta_max, the peak of its trace to 1e-12 relative.
        A row does not depend on the durations it is grouped with: each
        equals the sweep of its duration alone, bit for bit.

    Raises
    ------
    ModelError
        On misuse that would void every cell: empty axes, boundary
        temperatures naming no temperature input of the model, a window
        fraction outside (0, 1], or a fit window too short to fit at
        every duration (each before any cell is evaluated).
    SchemaError
        On a duration the protocol rejects (not finite and positive),
        before any cell is evaluated.
    NumericalError
        When the indoor temperature does not rise under the heaters, so
        there is no reference H.
    """
    ph_values = np.asarray(ph_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    if ph_values.ndim != 1 or t_values.ndim != 1 or not ph_values.size or not t_values.size:
        raise ModelError("ph_values and t_values must be non-empty 1-d sequences")
    setup = _protocol_setup(model, protocol_template.T_o,
                            protocol_template.boundary_temperatures)
    H_ref = reference_H(model)
    basis = eigendecompose(model)
    # each duration's window error and the floats its records take, without
    # keeping its instants
    errors, floats = [], []
    for t in t_values:
        _, _, windows, error = _row_protocol(protocol_template, t, window_fraction)
        errors.append(error)
        floats.append(_record_floats(windows, model.n_states))
    if all(error is not None for error in errors):
        raise errors[0]
    held = _held(model, protocol_template, setup)
    # cells with P_h <= P_c are invalid protocols, never simulated
    todo = np.flatnonzero(ph_values > protocol_template.P_c)
    ph = ph_values[todo]
    peaks = _affine_peaks(model, basis, setup, held, ph)
    # the grid's columns, and per cell the held powers and fits to budget
    out = {name: np.full((t_values.size, ph_values.size), False if name == "valid" else nan)
           for name in _COLUMNS}
    n_cells = out["valid"].size
    fits = (np.full(n_cells, nan), np.full(n_cells, nan),
            *(SlopeFit(*(np.full(n_cells, nan) for _ in fields(SlopeFit))) for _ in range(2)),
            np.zeros(n_cells, dtype=bool))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for group in _groups(floats, ph.size):
            rows = [_row_protocol(protocol_template, t_values[i], window_fraction)[:3]
                    for i in group]
            cells = ph_values.size * np.array(group)[:, None] + todo
            out["theta_max"][np.ix_(group, todo)] = _sweep_group(
                model, basis, setup, held, peaks, rows, ph, cells, fits)
        _grid_budget(fits, H_ref, policy, out)
    return DoeGrid(ph_values=ph_values, t_values=t_values, **out)


def select_optimum(grid: DoeGrid, constraints: DesignConstraints) -> DoeCell:
    """Pick the admissible cell with the smallest |total error|.

    Ties break toward the shorter experiment, then the lower power.

    Raises
    ------
    NumericalError
        When no cell is admissible; the message counts how many cells
        each constraint rejected, so the binding one is obvious.
    """
    t, ph = np.meshgrid(grid.t_values, grid.ph_values, indexing="ij")
    left, counts = grid.valid, [grid.valid.size - np.count_nonzero(grid.valid)]
    # each limit counts the valid cells that the limits before it let through
    for rejected in (ph > constraints.max_power,
                     grid.theta_max > constraints.max_indoor_temperature,
                     2.0 * t > constraints.max_total_duration):
        counts.append(np.count_nonzero(left & rejected))
        left = left & ~rejected
    if not left.any():
        raise NumericalError(
            "no admissible design among {} cells: {} degenerate, {} above max_power, {} above "
            "max_indoor_temperature, {} above max_total_duration".format(left.size, *counts))
    # lexsort is stable, so equal keys keep the export order
    order = np.lexsort((ph[left], t[left], np.abs(grid.eps_H_pct[left])))
    i, j = np.argwhere(left)[order[0]]
    return DoeCell(ph[i, j].item(), t[i, j].item(),
                   *(getattr(grid, name)[i, j].item() for name in _COLUMNS))


#: points on each axis of the default grid
_DEFAULT_POINTS = 40


def default_axes(H_ref: float, maintenance_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Default grid: 40 powers log-spaced from the maintenance power to
    four times it, 40 durations linear from 1 h to 12 h.

    When the maintenance power is not positive (experiment starting at
    the outdoor temperature), the power axis spans the power holding a
    1 K to 4 K steady rise instead.
    """
    if not H_ref > 0.0:
        raise ModelError(f"H_ref must be positive, got {H_ref}")
    base = maintenance_power if maintenance_power > 0.0 else H_ref
    ph_values = np.geomspace(base, 4.0 * base, _DEFAULT_POINTS)
    t_values = np.linspace(3600.0, 12.0 * 3600.0, _DEFAULT_POINTS)
    return ph_values, t_values


def _fmt(x: float) -> str:
    """Shortest round-trip rendering of a float, as every CSV here uses."""
    return repr(float(x))


def grid_to_csv(grid: DoeGrid) -> str:
    """Render the grid in duration-major order with a fixed header;
    floats use shortest round-trip form, so output is byte-stable."""
    ph_text = [_fmt(ph) for ph in grid.ph_values]
    lines = [GRID_HEADER]
    columns = [getattr(grid, name).tolist() for name in _COLUMNS]
    for t_text, *row in zip(map(repr, grid.t_values.tolist()), *columns):
        lines += [f"{ph},{t_text},{H!r},{eps_qub!r},{eps_Hm!r},{eps_H!r},{theta!r},"
                  f"{'1' if valid else '0'}"
                  for ph, H, eps_qub, eps_Hm, eps_H, theta, valid in zip(ph_text, *row)]
    return "\n".join(lines) + "\n"
