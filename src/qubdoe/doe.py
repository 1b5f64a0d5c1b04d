"""Design sweeps: error maps over heating power and pulse duration.

Each grid cell runs the full chain — simulate the two-pulse protocol,
fit both phases, evaluate the estimators, propagate the error budget —
for one (P_h, t_qub) pair against the reference H of the same
experiment (:func:`~qubdoe.conductance.reference_H`).  The cells of one
duration share their sample instants and fit windows, so the sweep
evaluates its powers together, as stacked arrays.  The exact response
kernel runs at the fit-window instants only, with the operations of
:func:`~qubdoe.qub.simulate_qub` and :func:`~qubdoe.qub.fit_slope`:
H_qub, eps_qub_pct, eps_Hm, eps_H_pct and valid are bit-identical to the
cell's lone evaluation.  theta_max is the peak over every sample of the
modal sum projected on the indoor weights
(:func:`~qubdoe.modal._peak_output`), within 1e-12 relative of the lone
trace's.  The exported CSV is byte-identical from run to run.

The kernels bound their temporaries, and the sweep its (powers, window
samples) records, at :data:`~qubdoe.modal._BLOCK_ELEMENTS` floats:
128 KiB, glibc's default mmap threshold, so blocks reuse the same heap
memory instead of faulting in fresh pages (a fresh default bungalow
sweep took 17,751 minor faults with 400 KB blocks, 400 with these).
The fit windows depend on the sample instants alone, so they are found
for every duration before any response is computed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import nan
from collections.abc import Sequence

import numpy as np

from .conductance import reference_H
from .error_budget import ErrorPolicy, assemble_budget, measurement_error, partials
from .exceptions import ModelError, NumericalError
from .modal import _BLOCK_ELEMENTS, EigenBasis, _peak_output, eigendecompose
from .network import StateSpaceModel
from .qub import (_COOLING, _HEATING, _WINDOW_FRACTION, QubProtocol, _cancels,
                  _fit_window, _fit_windows, _phases, _protocol_setup,
                  _sample_times, _two_pulse, estimate_H)
# the sweep no longer calls simulate_qub per cell, but bench/tracing.py still
# wraps it under this module to count such calls, so the name stays here
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


@dataclass(frozen=True)
class DoeGrid:
    """Full sweep result; ``cells[i][j]`` pairs ``t_values[i]`` with
    ``ph_values[j]`` (duration-major, matching the export order)."""

    ph_values: np.ndarray
    t_values: np.ndarray
    cells: tuple[tuple[DoeCell, ...], ...]


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


def _held_mean(power, count: int):
    """Mean of ``count`` samples of a constant power, as the estimators
    read it from a record (the pairwise sum need not return the power
    itself); elementwise for an array of powers."""
    power = np.asarray(power, dtype=float)
    return np.repeat(power[..., None], count, axis=-1).mean(axis=-1)


def _evaluate_block(model: StateSpaceModel, basis: EigenBasis,
                    protocol: QubProtocol, setup, rel: np.ndarray, windows,
                    ph: np.ndarray, H_ref: float, policy: ErrorPolicy,
                    out: dict, index: np.ndarray) -> None:
    """Fill ``out`` at ``index`` for the powers ``ph`` of one duration;
    only their peak temperatures when ``windows`` is None (the fit
    windows of this duration hold too few samples)."""
    phases = _phases(model, basis, protocol, setup, ph)
    (peak_h, finite), (peak_c, finite_c) = (
        _peak_output(model, basis, setup.indoor_weights, u, x, t)
        for (u, x), t in zip(phases, (rel, rel[1:])))
    finite &= finite_c
    if windows is not None:
        (t_heat, clock_h), (t_cool, clock_c) = windows
        dT_heat, dT_cool = _two_pulse(model, basis, protocol, setup, phases,
                                      t_heat, t_cool)
        finite &= np.isfinite(dT_heat).all(axis=-1) & np.isfinite(dT_cool).all(axis=-1)
    out["theta_max"][index[finite]] = np.maximum(peak_h, peak_c)[finite]
    if windows is None:
        return
    ph, index = ph[finite], index[finite]
    fit_h = _fit_window(clock_h, dT_heat[finite], _HEATING)
    fit_c = _fit_window(clock_c, dT_cool[finite], _COOLING)
    keep = ~_cancels(fit_h.dT0 * fit_c.alpha, fit_c.dT0 * fit_h.alpha)
    fit_h, fit_c = (replace(f, alpha=f.alpha[keep], dT0=f.dT0[keep], r2=f.r2[keep])
                    for f in (fit_h, fit_c))
    P_h = _held_mean(ph[keep], rel.size)
    P_c = float(_held_mean(protocol.P_c, rel.size - 1))
    H_qub = estimate_H(fit_h.alpha, fit_c.alpha, fit_h.dT0, fit_c.dT0, P_h, P_c)
    sens = partials(fit_h.alpha, fit_c.alpha, P_h, P_c, fit_h.dT0, fit_c.dT0)
    errors = policy.resolve(P_h, fit_h, fit_c)
    budget = assemble_budget(H_qub, H_ref, measurement_error(sens, errors))
    # a budget that over- or underflowed says nothing about the design
    finite = np.isfinite(budget.eps_Hm) & np.isfinite(budget.eps_H_pct)
    index = index[keep][finite]
    out["H_qub"][index] = H_qub[finite]
    out["eps_qub_pct"][index] = budget.eps_qub_pct[finite]
    out["eps_Hm"][index] = budget.eps_Hm[finite]
    out["eps_H_pct"][index] = budget.eps_H_pct[finite]
    out["valid"][index] = True


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


def _sweep_row(model: StateSpaceModel, basis: EigenBasis, protocol: QubProtocol,
               rel: np.ndarray, windows, setup, ph_values: np.ndarray,
               H_ref: float, policy: ErrorPolicy) -> tuple[DoeCell, ...]:
    """The cells of one duration, sampled at the instants ``rel`` and fitted
    over ``windows``.  With ``windows`` None (too short to fit) the row
    still gets its peak temperatures."""
    n_ph = ph_values.size
    # the DoeCell fields after ph and t_qub, in their order
    out = {name: np.full(n_ph, nan) for name in
           ("H_qub", "eps_qub_pct", "eps_Hm", "eps_H_pct", "theta_max")}
    out["valid"] = np.zeros(n_ph, dtype=bool)
    # cells with P_h <= P_c are invalid protocols, never simulated
    todo = np.flatnonzero(ph_values > protocol.P_c)
    # per power: its window samples, or the kernel's states at two instants
    held = max([2 * model.n_states] + [t.size for t, _ in windows or ()])
    block = max(1, _BLOCK_ELEMENTS // held)
    for first in range(0, todo.size, block):
        index = todo[first:first + block]
        _evaluate_block(model, basis, protocol, setup, rel, windows,
                        ph_values[index], H_ref, policy, out, index)
    columns = (column.tolist() for column in out.values())
    return tuple(DoeCell(ph, float(protocol.t_qub), *fields)
                 for ph, *fields in zip(ph_values.tolist(), *columns))


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
        Degenerate cells are flagged invalid, never fatal.  H_qub,
        eps_qub_pct, eps_Hm, eps_H_pct and valid equal the chain
        simulate_qub → fit_slope → estimate_H → error budget run for the
        cell alone, bit for bit; theta_max equals the peak of its trace
        to 1e-12 relative.

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
    rows = [_row_protocol(protocol_template, t, window_fraction) for t in t_values]
    if all(error is not None for *_, error in rows):
        raise rows[0][3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cells = tuple(_sweep_row(model, basis, protocol, rel, windows, setup,
                                 ph_values, H_ref, policy)
                      for protocol, rel, windows, _ in rows)
    return DoeGrid(ph_values=ph_values, t_values=t_values, cells=cells)


def select_optimum(grid: DoeGrid, constraints: DesignConstraints) -> DoeCell:
    """Pick the admissible cell with the smallest |total error|.

    Ties break toward the shorter experiment, then the lower power.

    Raises
    ------
    NumericalError
        When no cell is admissible; the message counts how many cells
        each constraint rejected, so the binding one is obvious.
    """
    best: DoeCell | None = None
    best_key: tuple[float, float, float] | None = None
    n_invalid = n_power = n_temp = n_duration = 0
    for row in grid.cells:
        for cell in row:
            if not cell.valid:
                n_invalid += 1
                continue
            if cell.ph > constraints.max_power:
                n_power += 1
                continue
            if cell.theta_max > constraints.max_indoor_temperature:
                n_temp += 1
                continue
            if 2.0 * cell.t_qub > constraints.max_total_duration:
                n_duration += 1
                continue
            key = (abs(cell.eps_H_pct), cell.t_qub, cell.ph)
            if best_key is None or key < best_key:
                best, best_key = cell, key
    if best is None:
        total = sum(len(row) for row in grid.cells)
        raise NumericalError(
            f"no admissible design among {total} cells: {n_invalid} degenerate, "
            f"{n_power} above max_power, {n_temp} above max_indoor_temperature, "
            f"{n_duration} above max_total_duration"
        )
    return best


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
    lines = [GRID_HEADER]
    for i, t in enumerate(grid.t_values):
        for j, ph in enumerate(grid.ph_values):
            cell = grid.cells[i][j]
            lines.append(",".join((
                _fmt(ph), _fmt(t), _fmt(cell.H_qub), _fmt(cell.eps_qub_pct),
                _fmt(cell.eps_Hm), _fmt(cell.eps_H_pct), _fmt(cell.theta_max),
                "1" if cell.valid else "0",
            )))
    return "\n".join(lines) + "\n"
