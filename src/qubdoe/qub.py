"""Two-pulse heat-loss experiments: simulation and estimation.

The experiment holds a building at rest, injects a constant heating
power P_h for a time t_qub, then a lower power P_c for the same time.
A straight line is fitted to the late part of each phase; with slopes
α_h, α_c and temperature rises ΔT_h, ΔT_c the heat transfer coefficient
and the effective heat capacity follow from the first-order balance
C·dΔT/dt = P − H·ΔT evaluated in both phases:

    H = (P_h α_c − P_c α_h) / (ΔT_h α_c − ΔT_c α_h)
    C = (P_h ΔT_c − P_c ΔT_h) / (α_h ΔT_c − α_c ΔT_h)

Both quotients are exact on a genuine first-order building for any
consistent choice of fitting window — the window shape cancels between
the two phases — which is what makes the short-duration protocol work.
On a multi-exponential building the same quotients acquire a bias that
shrinks as t_qub grows past the significant medium time constants; that
bias is the object of the error budget and the design sweep.
"""
from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import TextIO

import numpy as np

from .exceptions import ModelError, NumericalError, SchemaError
from .modal import EigenBasis, eigendecompose, initial_state, state_at, step_response
from .network import StateSpaceModel

__all__ = [
    "QubProtocol",
    "QubTrace",
    "SlopeFit",
    "QubEstimate",
    "simulate_qub",
    "fit_slope",
    "estimate_H",
    "estimate_C",
    "recover_C",
    "estimate_from_trace",
    "trace_to_csv",
    "trace_from_csv",
]

_HEATING = "heating"
_COOLING = "cooling"

#: relative magnitude below which the estimator denominators count as zero
_DEGENERACY_TOL = 1e-12

#: trailing fraction of each phase that the slope fits use by default
_WINDOW_FRACTION = 1.0 / 3.0

#: samples per phase at which float64 sample instants stop being distinct
_MAX_SAMPLES = 2.0 ** 52


def _check_temperatures(T_o: float, boundary_temperatures: Mapping[str, float]) -> None:
    """Reject a non-finite outdoor or boundary temperature."""
    if not math.isfinite(T_o):
        raise SchemaError(f"T_o must be finite, got {T_o}")
    for name, value in boundary_temperatures.items():
        if not math.isfinite(value):
            raise SchemaError(
                f"boundary_temperatures[{name!r}] must be finite, got {value}")


def _check_P0(P0: float) -> None:
    """Reject a pre-experiment power that is not finite and >= 0."""
    if not math.isfinite(P0):
        raise SchemaError(f"P0 must be finite, got {P0}")
    if P0 < 0.0:
        raise SchemaError(f"P0 must be >= 0, got {P0}")


def _check_t_qub(t_qub: float) -> None:
    """Reject a phase duration that is not finite and positive, or whose
    experiment end ``2 * t_qub`` is not finite."""
    if not math.isfinite(t_qub):
        raise SchemaError(f"t_qub must be finite, got {t_qub}")
    if not t_qub > 0.0:
        raise SchemaError(f"t_qub must be positive, got {t_qub}")
    if not math.isfinite(2.0 * t_qub):
        raise SchemaError(f"t_qub must leave a finite experiment end 2*t_qub, got {t_qub}")


@dataclass(frozen=True)
class QubProtocol:
    """Parameters of one two-pulse run.

    ``T_o`` is the (constant) outdoor temperature applied to every
    temperature source not listed in ``boundary_temperatures``; ``P0``
    is the pre-experiment power defining the initial steady state; the
    pulses ``P_h`` then ``P_c`` each last ``t_qub`` seconds.  Sampling
    uses ``sample_dt`` (snapped to an integer divisor of ``t_qub`` so
    the phase switch lands exactly on a sample), which must leave at
    least 20 and fewer than 2**52 samples per phase.  Every temperature,
    power and duration must be finite, and so must the experiment's end,
    ``2 * t_qub``.  The fit window is not part of the run:
    :func:`fit_slope` and its callers take it.
    """

    T_o: float
    P0: float
    P_h: float
    P_c: float
    t_qub: float
    sample_dt: float | None = None
    boundary_temperatures: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_temperatures(self.T_o, self.boundary_temperatures)
        _check_P0(self.P0)
        for name in ("P_h", "P_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SchemaError(f"{name} must be finite, got {value}")
        _check_t_qub(self.t_qub)
        if self.P_c < 0.0:
            raise SchemaError(f"P_c must be >= 0, got {self.P_c}")
        if not self.P_h > self.P_c:
            raise SchemaError(
                f"P_h must exceed P_c, got P_h={self.P_h}, P_c={self.P_c}"
            )
        if self.sample_dt is not None and not (
            0.0 < self.sample_dt <= self.t_qub / 20.0
        ):
            raise SchemaError(
                "sample_dt must lie in (0, t_qub/20] so each phase has at "
                f"least 20 samples, got {self.sample_dt}"
            )
        if self.sample_dt is not None and self.t_qub / self.sample_dt >= _MAX_SAMPLES:
            raise SchemaError(
                "sample_dt must leave fewer than 2**52 samples per phase, where "
                f"float64 instants stop being distinct, got {self.sample_dt} "
                f"for t_qub={self.t_qub}"
            )

    @property
    def effective_sample_dt(self) -> float:
        """Requested sampling step before snapping (defaults to t_qub/120)."""
        return self.sample_dt if self.sample_dt is not None else self.t_qub / 120.0


@dataclass(frozen=True, eq=False)
class QubTrace:
    """Sampled experiment record.

    ``delta_T`` is the (mass-weighted mean) indoor temperature minus
    T_o; ``power`` the total injected power.  The first ``n_heating``
    samples are the heating phase and the rest the cooling phase, so the
    phase switches exactly once, right after t_qub (the heating phase
    owns its endpoint).
    """

    times: np.ndarray
    delta_T: np.ndarray
    power: np.ndarray
    n_heating: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        delta_T = np.asarray(self.delta_T, dtype=float)
        power = np.asarray(self.power, dtype=float)
        if not (times.shape == delta_T.shape == power.shape):
            raise SchemaError("trace columns must have identical length")
        if times.ndim != 1 or times.size < 4:
            raise SchemaError("trace must hold at least four samples")
        if np.any(times[1:] <= times[:-1]):
            raise SchemaError("trace times must be strictly increasing")
        if not (isinstance(self.n_heating, (int, np.integer))
                and 0 < self.n_heating < times.size):
            raise SchemaError(
                "n_heating must be an integer count that leaves both phases "
                f"non-empty, got {self.n_heating!r} of {times.size} samples"
            )
        for name, arr in (("times", times), ("delta_T", delta_T), ("power", power)):
            if not np.all(np.isfinite(arr)):
                raise SchemaError(f"trace {name} contain non-finite values")
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "delta_T", delta_T)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "n_heating", int(self.n_heating))

    @property
    def heating(self) -> slice:
        return slice(0, self.n_heating)

    @property
    def cooling(self) -> slice:
        return slice(self.n_heating, None)

    @property
    def t_qub(self) -> float:
        """Phase-switch time = last heating sample."""
        return float(self.times[self.n_heating - 1])


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line over the trailing window of one phase.

    ``t0`` is the window start measured from the phase start; ``dT0``
    the fitted line's value there; ``alpha`` its slope; ``r2`` the
    coefficient of determination over the window.  The design sweep
    fits a group's records of all powers and durations at once and keeps
    every field the budget reads as a column with one entry per grid
    cell, and ``t0`` as None.
    """

    alpha: float
    dT0: float
    t0: float
    r2: float
    n_samples: int


@dataclass(frozen=True)
class QubEstimate:
    """Everything one two-pulse record yields."""

    H_qub: float
    C_star: float
    C: float
    alpha_h: float
    alpha_c: float
    dT0_h: float
    dT0_c: float
    t0_h: float
    t0_c: float
    r2_h: float
    r2_c: float

    @property
    def tau(self) -> float:
        """Apparent whole-building time constant C / H_qub (s)."""
        return self.C / self.H_qub


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _ExperimentSetup:
    """How an experiment drives a model: the boundary temperatures in
    input order, with the model's own weights for the indoor temperature
    and the split of the total power across the flow inputs.  Records
    are rises over the outdoor temperature ``T_o``."""

    model: StateSpaceModel
    temperatures: np.ndarray
    T_o: float

    def inputs(self, total_power) -> np.ndarray:
        """Inputs holding the boundary temperatures with ``total_power``
        split across the flow inputs; a (k,) array of powers gives
        (k, n_inputs)."""
        split = self.model.flow_weights
        power = np.asarray(total_power, dtype=float)[..., None] * (split / split.sum())
        temps = self.temperatures
        return np.concatenate(
            [np.broadcast_to(temps, power.shape[:-1] + temps.shape), power], axis=-1)

    @property
    def indoor_weights(self) -> np.ndarray:
        """Output weights that average the indoor temperature."""
        return self.model.output_weights / self.model.output_weights.sum()

    def indoor_mean(self, outputs: np.ndarray) -> np.ndarray:
        """Weighted mean indoor temperature of output vectors (outputs on
        the last axis)."""
        return outputs @ self.indoor_weights


def _protocol_setup(model: StateSpaceModel, T_o: float,
                    boundary_temperatures: Mapping[str, float]) -> _ExperimentSetup:
    """The setup of an experiment on a model: temperature inputs held at
    ``T_o`` unless named in ``boundary_temperatures``.

    Raises
    ------
    ModelError
        On structural misuse: no heat-flow input, or boundary
        temperatures naming no temperature input of the model.
    SchemaError
        When ``T_o`` or a boundary temperature is not finite.
    """
    if not model.flow_inputs:
        raise ModelError("model has no heat-flow input to pulse")
    extra = dict(boundary_temperatures)
    unknown = set(extra) - set(model.temperature_inputs)
    if unknown:
        raise ModelError(
            "boundary_temperatures: not temperature inputs of the model: "
            + ", ".join(sorted(unknown))
        )
    _check_temperatures(T_o, extra)
    temps = np.array([float(extra.get(name, T_o))
                      for name in model.temperature_inputs])
    return _ExperimentSetup(model=model, temperatures=temps, T_o=T_o)


def _sample_times(protocol: QubProtocol) -> np.ndarray:
    """Sample instants of one phase, from its start to t_qub inclusive."""
    n = max(20, round(protocol.t_qub / protocol.effective_sample_dt))
    return (protocol.t_qub / n) * np.arange(n + 1)


def _held(model: StateSpaceModel, protocol: QubProtocol,
          setup: _ExperimentSetup) -> tuple[np.ndarray, np.ndarray]:
    """The pre-experiment state and the cooling phase's input: neither
    depends on P_h or t_qub, so a sweep computes them once."""
    return initial_state(model, setup.inputs(protocol.P0)), setup.inputs(protocol.P_c)


def _two_pulse(model: StateSpaceModel, basis: EigenBasis, setup: _ExperimentSetup,
               P_h, held, t_qub, t_heat: np.ndarray, t_cool: np.ndarray,
               starts: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Indoor rise over T_o of two-pulse records heated by ``P_h`` from the
    :func:`_held` state for ``t_qub`` and then cooled by its input, at the
    instants ``t_heat`` and ``t_cool`` from each phase's start: the
    heating rise, then the cooling rise, each computed only when asked
    for, so a caller can store and free one before the other is made.
    A (k,) array of powers gives (k, n) rows, each identical to the run
    of that power alone.

    A vector of switch times (D,) runs a group of durations at once: the
    heating instants share the start, and cooling instant j starts from
    the switch at ``t_qub[starts[j]]``; each row equals the run of its
    duration alone."""
    x0, u_cool = held
    u_heat = setup.inputs(P_h)
    x_switch = state_at(model, u_heat, x0, t_qub, basis=basis)
    # reduce each phase to its indoor mean at once: one phase's outputs live at a time
    return (setup.indoor_mean(step_response(model, u, x, t, basis=basis, starts=s)) - setup.T_o
            for u, x, t, s in ((u_heat, x0, t_heat, None), (u_cool, x_switch, t_cool, starts)))


def simulate_qub(model: StateSpaceModel, protocol: QubProtocol, *,
                 basis: EigenBasis | None = None) -> QubTrace:
    """Run the two-pulse protocol on a model, exactly.

    Parameters
    ----------
    model : StateSpaceModel
        Outputs must be the indoor (zone air) temperatures.  The model's
        ``output_weights`` average them into the recorded indoor
        temperature and its ``flow_weights`` split the protocol's power
        across the heaters; ``to_state_space(circuit)`` sets both from
        the building's zones.
    protocol : QubProtocol
    basis : EigenBasis, optional
        The model's eigendecomposition, when the caller already holds it
        (to simulate many protocols on one model); computed when omitted.

    Returns
    -------
    QubTrace
        Sampled on a grid with the phase switch exactly at t_qub; both
        phases expose identical relative sample times, which keeps the
        two-phase estimator exact on first-order buildings.

    Warns
    -----
    UserWarning
        When P_h does not raise the indoor temperature (at or below the
        maintenance power), in which case the record is degenerate for
        estimation but still returned.
    """
    setup = _protocol_setup(model, protocol.T_o, protocol.boundary_temperatures)
    if basis is None:
        basis = eigendecompose(model)
    # each column is allocated once and filled phase by phase; the heating
    # phase's instants are read back from the clock column
    rel = _sample_times(protocol)
    n = rel.size - 1
    heating, cooling = slice(0, n + 1), slice(n + 1, None)
    times = np.empty(2 * n + 1)
    times[heating] = rel
    np.add(protocol.t_qub, rel[1:], out=times[cooling])
    rel = times[heating]
    delta_T = np.empty_like(times)
    rises = _two_pulse(model, basis, setup, protocol.P_h, _held(model, protocol, setup),
                       protocol.t_qub, rel, rel[1:])
    # no name holds a phase's rise, so it is freed before the next is made
    for part in (heating, cooling):
        delta_T[part] = next(rises)
    if delta_T[n] <= delta_T[0] + 1e-12 * max(1.0, abs(delta_T[0])):
        warnings.warn(
            "heating power is at or below the maintenance power: the indoor "
            "temperature does not rise during the heating pulse",
            stacklevel=2,
        )
    power = np.empty_like(times)
    power[heating], power[cooling] = protocol.P_h, protocol.P_c
    return QubTrace(times=times, delta_T=delta_T, power=power, n_heating=n + 1)


# ---------------------------------------------------------------------------
# slope fitting and estimation
# ---------------------------------------------------------------------------

#: longest slice of a fit's dot product that goes to BLAS in one call:
#: OpenBLAS splits a ddot above 10,000 samples across its threads, and
#: its sum's rounding then depends on the thread count
_DOT_SAMPLES = 8192


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a·b along the last axis, for vectors or stacks of them, summed
    over ``_DOT_SAMPLES`` slices in order.  Written as a stacked ``@`` so
    each member is the same BLAS dot as lone vectors."""
    n = _DOT_SAMPLES
    parts = [(a[..., None, i:i + n] @ b[..., i:i + n, None])[..., 0, 0]
             for i in range(0, a.shape[-1], n)]
    return sum(parts[1:], parts[0])


def _window(times: np.ndarray, window_fraction: float, phase: str,
            origin: float = 0.0) -> slice:
    """The trailing ``window_fraction`` of a phase sampled at ``times``,
    as the slice of its samples whose clock ``t_rel = times - origin``
    (from the phase start) reaches (1 − f)·span − 1e-9·span, span being
    the last ``t_rel``.  It depends on the sample instants alone, so a
    sweep can check it before it simulates anything.

    The instants never decrease, and neither does their clock, so the
    samples that pass form a suffix: its start is found by bisection with
    that same comparison, on one ``t_rel`` at a time.

    Raises
    ------
    ModelError
        When ``window_fraction`` is outside (0, 1] or the window holds
        fewer than three samples.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ModelError("window_fraction must lie in (0, 1]")
    span = times[-1] - origin
    # same selection rule in both phases => identical window geometry
    bound = (1.0 - window_fraction) * span - 1e-9 * span
    start = bisect_left(range(times.size), True, key=lambda i: times[i] - origin >= bound)
    count = times.size - start
    if count < 3:
        raise ModelError(f"{phase} window holds only {count} samples; need at least 3")
    return slice(start, times.size)


def _fit_window(t_win: np.ndarray, y_win: np.ndarray, phase: str,
                origin: float = 0.0) -> SlopeFit:
    """Least-squares line through a phase's fit-window samples ``y_win``
    at ``t_win - origin`` from the phase start.  A stack of records (..., n)
    takes clocks that broadcast to it: the fields are then arrays over it,
    each fit identical to that record's lone fit.

    Rows are copied contiguous at an even stride (odd windows padded with
    a zero): each then starts 16-byte aligned, as a lone vector does, and
    some BLAS kernels round a dot product by its operands' alignment.
    Beside the two copies the fit holds one array of the records' size,
    their deviations, which the residual overwrites; the clock's
    deviations overwrite its copy."""
    n = t_win.shape[-1]
    t_dev, y_pad = (np.zeros(a.shape[:-1] + (n + n % 2,)) for a in (t_win, y_win))
    np.subtract(t_win, origin, out=t_dev[..., :n])
    y_pad[..., :n] = y_win

    def dot(a, b):
        return _rowdot(a[..., :n], b[..., :n])

    t_mean = t_dev[..., :n].mean(axis=-1)
    t0 = t_dev[..., 0].copy()
    t_dev -= t_mean[..., None]
    t_var = dot(t_dev, t_dev)
    if np.any(t_var == 0.0):
        raise ModelError(f"{phase} window has zero time variance")
    y_mean = y_pad[..., :n].mean(axis=-1)
    y_dev = y_pad - y_mean[..., None]
    alpha = dot(t_dev, y_dev) / t_var
    dT0 = y_mean + alpha * (t0 - t_mean)
    total = dot(y_dev, y_dev)
    # the residual y − (ȳ + α·t_dev), rounded as that expression is, into y_dev
    residual = np.multiply(alpha[..., None], t_dev, out=y_dev)
    residual += y_mean[..., None]
    np.subtract(y_pad, residual, out=residual)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(total == 0.0, 1.0, 1.0 - dot(residual, residual) / total)
    return SlopeFit(alpha=alpha, dT0=dT0, t0=t0, r2=r2, n_samples=n)


def _fit_windows(rel: np.ndarray, t_qub: float, window_fraction: float
                 ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The heating and cooling fit windows that :func:`fit_slope` selects
    on a :func:`simulate_qub` trace sampled at ``rel``, each as the
    :func:`_two_pulse` instants and the fit's clock; raises the ModelError
    of a window too short to fit."""
    heat = rel[_window(rel, window_fraction, _HEATING)]
    # the trace's cooling instants, on fit_slope's clock from the last
    # heating sample, rel[-1]
    switched = t_qub + rel[1:]
    cool = _window(switched, window_fraction, _COOLING, rel[-1])
    return (heat, heat), (rel[1:][cool], switched[cool] - rel[-1])


def fit_slope(trace: QubTrace, phase: str,
              window_fraction: float = _WINDOW_FRACTION) -> SlopeFit:
    """Ordinary least-squares line over the trailing part of one phase.

    Parameters
    ----------
    trace : QubTrace
    phase : {"heating", "cooling"}
    window_fraction : float
        Trailing fraction of the phase used for the fit, in (0, 1].

    Returns
    -------
    SlopeFit

    Raises
    ------
    ModelError
        On an unknown phase label, a window fraction outside (0, 1], a
        window with fewer than three samples, or a degenerate
        (zero-time-variance) window.
    """
    if phase not in (_HEATING, _COOLING):
        raise ModelError(f"phase must be '{_HEATING}' or '{_COOLING}', got {phase!r}")
    part = trace.heating if phase == _HEATING else trace.cooling
    origin = 0.0 if phase == _HEATING else trace.t_qub
    times = trace.times[part]
    window = _window(times, window_fraction, phase, origin)
    fit = _fit_window(times[window], trace.delta_T[part][window], phase, origin)
    return replace(fit, alpha=float(fit.alpha), dT0=float(fit.dT0), t0=float(fit.t0),
                   r2=float(fit.r2))


def _cancels(a, b):
    """Whether the difference a − b counts as zero: within the relative
    degeneracy tolerance of the larger term, or both terms zero.
    Elementwise on arrays."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return (np.abs(a - b) <= _DEGENERACY_TOL * scale) | (scale == 0.0)


def estimate_H(alpha_h: float, alpha_c: float, dT0_h: float, dT0_c: float,
               P_h: float, P_c: float) -> float:
    """Two-phase heat transfer coefficient (W/K).

    H = (P_h α_c − P_c α_h) / (ΔT_h α_c − ΔT_c α_h).  Exact on a
    first-order building for slopes and temperatures read at consistent
    points of the two phases, whatever those points are.  Arrays are
    evaluated elementwise; any degenerate element raises.
    """
    if np.any(_cancels(dT0_h * alpha_c, dT0_c * alpha_h)):
        raise NumericalError(
            "degenerate experiment: ΔT_h·α_c and ΔT_c·α_h cancel; "
            "the two phases carry no independent information"
        )
    return (P_h * alpha_c - P_c * alpha_h) / (dT0_h * alpha_c - dT0_c * alpha_h)


def estimate_C(alpha_h: float, alpha_c: float, dT0_h: float, dT0_c: float,
               P_h: float, P_c: float) -> float:
    """Apparent heat capacity (J/K).

    C* = (P_h ΔT_c − P_c ΔT_h) / (α_h ΔT_c − α_c ΔT_h).  Equals the
    true capacity of a first-order building only when each phase's
    slope and temperature are read at the same instant (e.g. tangents
    at the phase origins); other conventions scale it by an exponential
    factor of the read-out delay, see :func:`recover_C`.
    """
    if _cancels(alpha_h * dT0_c, alpha_c * dT0_h):
        raise NumericalError(
            "degenerate experiment: α_h·ΔT_c and α_c·ΔT_h cancel; "
            "capacity is unidentifiable"
        )
    return (P_h * dT0_c - P_c * dT0_h) / (alpha_h * dT0_c - alpha_c * dT0_h)


def recover_C(C_star: float, H: float, t0: float) -> float:
    """Invert the delayed-readout capacity model C* = C·e^(−t0·H/C).

    Solves the transcendental equation for C by a safeguarded Newton
    iteration on g(C) = C·e^(−t0·H/C) − C*.  g is strictly increasing,
    g(C*) ≤ 0, and e^x ≥ 1+x gives the overshoot-free upper bracket
    C* + t0·H, so the bracket always contains the unique root.

    Residual tolerance: |g(C)| ≤ 1e-9·C*.
    """
    if not C_star > 0.0:
        raise ModelError(f"C_star must be positive, got {C_star}")
    if not H > 0.0:
        raise ModelError(f"H must be positive, got {H}")
    if t0 < 0.0:
        raise ModelError(f"t0 must be >= 0, got {t0}")
    if t0 == 0.0:
        return C_star
    x = t0 * H

    def g(c: float) -> float:
        return c * math.exp(-x / c) - C_star

    lo, hi = C_star, C_star + x
    c = 0.5 * (lo + hi)
    for _ in range(200):
        val = g(c)
        if abs(val) <= 1e-9 * C_star:
            return c
        if val < 0.0:
            lo = c
        else:
            hi = c
        slope = math.exp(-x / c) * (1.0 + x / c)
        step = c - val / slope
        c_next = step if lo < step < hi else 0.5 * (lo + hi)
        if c_next == c:
            return c
        c = c_next
    raise NumericalError(
        f"capacity recovery did not converge (C*={C_star:.6g}, H={H:.6g}, t0={t0:.6g})"
    )


def estimate_from_trace(trace: QubTrace,
                        window_fraction: float = _WINDOW_FRACTION) -> QubEstimate:
    """Fit both phases of a record and evaluate the two-phase estimators.

    The powers are read from the record (mean over each phase).  The
    reported ``C`` applies :func:`recover_C` at the mean window-start
    offset of the two fits; ``C_star`` is the raw quotient.
    """
    fit_h = fit_slope(trace, _HEATING, window_fraction)
    fit_c = fit_slope(trace, _COOLING, window_fraction)
    P_h = float(trace.power[trace.heating].mean())
    P_c = float(trace.power[trace.cooling].mean())
    H = estimate_H(fit_h.alpha, fit_c.alpha, fit_h.dT0, fit_c.dT0, P_h, P_c)
    C_star = estimate_C(fit_h.alpha, fit_c.alpha, fit_h.dT0, fit_c.dT0, P_h, P_c)
    t0 = 0.5 * (fit_h.t0 + fit_c.t0)
    C = recover_C(C_star, H, t0) if (H > 0.0 and C_star > 0.0) else C_star
    return QubEstimate(
        H_qub=H, C_star=C_star, C=C,
        alpha_h=fit_h.alpha, alpha_c=fit_c.alpha,
        dT0_h=fit_h.dT0, dT0_c=fit_c.dT0,
        t0_h=fit_h.t0, t0_c=fit_c.t0,
        r2_h=fit_h.r2, r2_c=fit_c.r2,
    )


# ---------------------------------------------------------------------------
# trace (de)serialization
# ---------------------------------------------------------------------------

_TRACE_HEADER = "t_s,dT_K,power_W,phase"

#: trace rows rendered into one string at a time: a chunk's Python floats
#: and strings then take about the response kernel's 128 KiB block
_RENDER_ROWS = 1024

#: characters of trace text split into lines at a time (cut after a line break)
_PARSE_CHARS = 1 << 16

#: one trace row as ``np.loadtxt`` reads it; eight characters hold either
#: label, and a longer label, cut to eight, can never equal one
_ROW_DTYPE = np.dtype([("t_s", "f8"), ("dT_K", "f8"), ("power_W", "f8"),
                       ("phase", "U8")])

#: characters ``np.loadtxt`` reads unlike ``float`` and ``str.strip``: it
#: drops NULs that end a label and strips U+001F around a number
_LOOP_ONLY = ("\0", "\x1f")


def _column(values: np.ndarray):
    """The ``repr`` of each float of ``values``, formatted once when all
    share one bit pattern (so ``0.0`` and ``-0.0`` are never merged)."""
    bits = values.view(np.int64)
    if (bits == bits[0]).all():
        return repeat(repr(values[0].item()), values.size)
    return map(repr, values.tolist())


def _csv_chunks(trace: QubTrace):
    """The CSV text of ``trace``: the header, then ``_RENDER_ROWS`` rows
    per piece, each piece built a column at a time."""
    n, columns = trace.n_heating, (trace.times, trace.delta_T, trace.power)
    yield _TRACE_HEADER + "\n"
    for start in range(0, trace.times.size, _RENDER_ROWS):
        part = [_column(values[start:start + _RENDER_ROWS]) for values in columns]
        labels = chain(repeat(_HEATING + "\n", max(n - start, 0)), repeat(_COOLING + "\n"))
        yield "".join(map(",".join, zip(*part, labels)))


def trace_to_csv(trace: QubTrace) -> str:
    """Render a trace as CSV (header ``t_s,dT_K,power_W,phase``).

    Floats use the shortest round-trip representation, so writing and
    re-reading a trace is lossless and byte-deterministic.  Rows are
    rendered a chunk at a time, so the working memory beyond the text
    itself stays bounded.
    """
    return "".join(_csv_chunks(trace))


def _header(reads: Iterator[str]) -> str:
    """Take a trace text's header line, and the blank lines before it, from
    its ``reads`` and return the rest of the read that ends it.  Only what
    can still become the header is kept between reads, so a text that
    cannot open with it fails at the read that shows so, not at a line
    break it may never reach, and so does a text that ends first."""
    lead = ""
    for block in reads:
        head = (lead + block).lstrip()
        line = head.splitlines(keepends=True)[0] if head else ""
        lead = line.rstrip()
        if lead == _TRACE_HEADER and line.splitlines()[0] != line:
            return head[len(line):]
        if lead != _TRACE_HEADER and not _TRACE_HEADER.startswith(line):
            break
    if lead != _TRACE_HEADER:
        raise SchemaError(f"trace: first line must be '{_TRACE_HEADER}'")
    return ""


def _slices(source: str | TextIO):
    """The data of a trace text, given as the text itself or as an open
    text file, read ``_PARSE_CHARS`` characters at a time, in consecutive
    pieces from just after the header: each piece ends right after a
    read's last line break, and the rest is carried over into the next
    piece, so their non-blank lines together are those of the data.  The
    carry is kept as a list of reads and joined once, so a long line
    costs linear time."""
    if isinstance(source, str):
        reads = (source[i:i + _PARSE_CHARS] for i in range(0, len(source), _PARSE_CHARS))
    else:
        reads = iter(lambda: source.read(_PARSE_CHARS), "")
    carry, block = [], _header(reads)
    while block is not None:
        # a read without a newline may still end lines as splitlines does
        cut = block.rfind("\n") + 1 or len(block) + 1 - len((block + "_").splitlines()[-1])
        if cut:
            carry.append(block[:cut])
            yield "".join(carry)
            carry = [block[cut:]]
        else:
            carry.append(block)
        block = next(reads, None)
    if tail := "".join(carry):
        yield tail


def _row_bound(source: str | TextIO) -> int:
    """An upper bound on the data rows of a trace text: a row takes a line
    and three commas, and the header takes three more.  0 for a file that
    cannot seek back or does not decode; the parse then grows its columns
    as it goes and reports the decoding error where it reaches it.  This
    read-ahead stays because every one-pass reader measured held more:
    arrays per piece joined at the end, or growing ``array`` columns,
    raised trace-bungalow's peak RSS by 1.46 and 1.75 MB, and
    ``ndarray.resize`` growth raised ``estimate``'s traced peak from 1.43×
    to 1.52-1.67× the trace's arrays."""
    if isinstance(source, str):
        return min(source.count("\n") + 1, source.count(",") // 3)
    if not source.seekable():
        return 0
    start, newlines, commas = source.tell(), 0, 0
    try:
        while block := source.read(_PARSE_CHARS):
            newlines += block.count("\n")
            commas += block.count(",")
    except UnicodeDecodeError:
        commas = 0
    source.seek(start)
    return min(newlines + 1, commas // 3)


class _TraceRows:
    """A trace parse in progress: the rows read so far.

    The numbers are the rows of one ``(3, capacity)`` block and the phase
    labels one bool array beside it, True for ``cooling``, both allocated
    once at :func:`_row_bound` rows.  Growing arrays piece by piece
    reallocated them over and over, and the heap holes that left behind
    raised the peak resident memory by about the arrays' own size.  A
    label that is neither ``heating`` nor ``cooling`` is kept by name for
    the error.  Nothing is checked across rows while they are read: the
    phase column is checked once, after the last row.
    """

    def __init__(self, capacity: int) -> None:
        self.columns = np.empty((3, capacity))  # t_s, dT_K, power_W
        self.cooling = np.empty(capacity, dtype=bool)
        self.number = 1  # non-blank lines so far, the header's included
        self.unknown = set()

    def append(self, times, delta_T, power, cooling) -> None:
        """Store the next rows' numbers and phase flags and count their lines."""
        start = self.number - 1
        stop = start + len(times)
        if stop > self.cooling.size:
            size = max(stop, 2 * self.cooling.size)
            grown, flags = np.empty((3, size)), np.empty(size, dtype=bool)
            grown[:, :start] = self.columns[:, :start]
            flags[:start] = self.cooling[:start]
            self.columns, self.cooling = grown, flags
        for column, values in zip(self.columns, (times, delta_T, power)):
            column[start:stop] = values
        self.cooling[start:stop] = cooling
        self.number += stop - start


def _read_columns(rows: _TraceRows, lines: list[str]) -> bool:
    """Read the data ``lines`` with one ``np.loadtxt`` call and return True;
    read nothing and return False when numpy refuses them or a label is
    not exactly ``heating`` or ``cooling``.  numpy skips empty lines, as
    :func:`_read_lines` does, and refuses whitespace-only ones."""
    try:
        table = np.loadtxt(lines, dtype=_ROW_DTYPE, delimiter=",",
                           comments=None, ndmin=1)
    except ValueError:
        return False
    phase = table["phase"]
    cooling = phase == _COOLING
    if not (cooling | (phase == _HEATING)).all():
        return False
    rows.append(table["t_s"], table["dT_K"], table["power_W"], cooling)
    return True


def _read_lines(rows: _TraceRows, lines: list[str]) -> None:
    """Read the data ``lines`` one at a time with Python's ``float``: the
    reference grammar, and the reader that reports every error with its
    line number."""
    times, delta_T, power, cooling = array("d"), array("d"), array("d"), []
    number = rows.number
    for line in lines:
        if not line.strip():
            continue
        number += 1
        parts = line.split(",")
        if len(parts) != 4:
            raise SchemaError(f"trace line {number}: expected 4 fields, got {len(parts)}")
        try:
            times.append(float(parts[0]))
            delta_T.append(float(parts[1]))
            power.append(float(parts[2]))
        except ValueError as exc:
            raise SchemaError(f"trace line {number}: {exc}") from None
        label = parts[3].strip()
        if label not in (_HEATING, _COOLING):
            rows.unknown.add(label)
        cooling.append(label == _COOLING)
    rows.append(times, delta_T, power, cooling)


def _read_piece(rows: _TraceRows, piece: str) -> None:
    """Read the rows of one piece of trace text.  Its lines are freed on
    return, before the next piece is read."""
    lines = piece.splitlines()
    if not any(lines):  # np.loadtxt warns on a piece without data
        return
    if any(c in piece for c in _LOOP_ONLY) or not _read_columns(rows, lines):
        _read_lines(rows, lines)


def trace_from_csv(source: str | TextIO) -> QubTrace:
    """Parse a trace CSV produced by :func:`trace_to_csv`.

    ``source`` is the text itself or an open text file.  Both are read
    the same way, ``_PARSE_CHARS`` characters at a time, and give the same
    trace or the same error; a file is never read whole (one that can
    seek back is read through once first, to size the columns).  Numbers
    follow Python's ``float`` syntax, lines end at ``str.splitlines``'
    breaks, and blank lines are skipped, not counted in error line numbers.

    Each piece is read by numpy's C text reader; a piece it refuses, or
    one with a label other than exactly ``heating`` or ``cooling``, is
    re-read line by line, and that re-read reports the error.  The phase
    column is checked once, after the last row: it must hold only
    ``heating`` and ``cooling`` labels, start with heating, end with
    cooling and switch exactly once.
    """
    rows = _TraceRows(_row_bound(source))
    for piece in _slices(source):
        _read_piece(rows, piece)
    if rows.unknown:
        raise SchemaError(f"unknown phase label(s): {sorted(rows.unknown)}")
    n = rows.number - 1
    cooling = rows.cooling[:n]
    if not n or cooling[0] or not cooling[-1]:
        raise SchemaError("trace must start with heating and end with cooling")
    n_heating = int(cooling.argmax())
    if not cooling[n_heating:].all():
        raise SchemaError("phase must switch exactly once")
    times, delta_T, power = rows.columns[:, :n]
    return QubTrace(times=times, delta_T=delta_T, power=power, n_heating=n_heating)
