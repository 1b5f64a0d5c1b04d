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
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class QubProtocol:
    """Parameters of one two-pulse run.

    ``T_o`` is the (constant) outdoor temperature applied to every
    temperature source not listed in ``boundary_temperatures``; ``P0``
    is the pre-experiment power defining the initial steady state; the
    pulses ``P_h`` then ``P_c`` each last ``t_qub`` seconds.  Sampling
    uses ``sample_dt`` (snapped to an integer divisor of ``t_qub`` so
    the phase switch lands exactly on a sample).  Every temperature,
    power and duration must be finite.  The fit window is not part of
    the run: :func:`fit_slope` and its callers take it.
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
        for name in ("P_h", "P_c", "t_qub"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SchemaError(f"{name} must be finite, got {value}")
        if not self.t_qub > 0.0:
            raise SchemaError(f"t_qub must be positive, got {self.t_qub}")
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

    @property
    def effective_sample_dt(self) -> float:
        """Requested sampling step before snapping (defaults to t_qub/120)."""
        return self.sample_dt if self.sample_dt is not None else self.t_qub / 120.0


@dataclass(frozen=True)
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
        if np.any(np.diff(times) <= 0.0):
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
    fits whole rows of records at once; alpha, dT0 and r2 are then
    arrays with one entry per record.
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

def _normalized_weights(weights, count: int, what: str) -> np.ndarray:
    if weights is None:
        return np.full(count, 1.0 / count)
    w = np.asarray(weights, dtype=float)
    if w.shape != (count,):
        raise ModelError(f"{what}: expected {count} weights, got shape {w.shape}")
    if np.any(w < 0.0) or w.sum() <= 0.0:
        raise ModelError(f"{what}: weights must be non-negative with positive sum")
    return w / w.sum()


@dataclass(frozen=True)
class _ExperimentSetup:
    """How an experiment drives a model: the normalised output weights of
    the indoor temperature, the boundary temperatures in input order, and
    the normalised split of the total power across the flow inputs."""

    temp_weights: np.ndarray
    temperatures: np.ndarray
    power_weights: np.ndarray

    def inputs(self, total_power) -> np.ndarray:
        """Inputs holding the boundary temperatures with ``total_power``
        split across the flow inputs; a (k,) array of powers gives
        (k, n_inputs)."""
        power = np.asarray(total_power, dtype=float)[..., None] * self.power_weights
        temps = self.temperatures
        return np.concatenate(
            [np.broadcast_to(temps, power.shape[:-1] + temps.shape), power], axis=-1)

    def indoor_mean(self, outputs: np.ndarray) -> np.ndarray:
        """Weighted mean indoor temperature of output vectors (outputs on
        the last axis)."""
        return outputs @ self.temp_weights


def _protocol_setup(model: StateSpaceModel, T_o: float,
                    boundary_temperatures: Mapping[str, float],
                    temp_weights, power_weights) -> _ExperimentSetup:
    """The setup of an experiment on a model: temperature inputs held at
    ``T_o`` unless named in ``boundary_temperatures``, outputs averaged
    with ``temp_weights`` and power split by ``power_weights`` (each
    uniform when None).

    Raises
    ------
    ModelError
        On structural misuse: no heat-flow input, malformed weights, or
        boundary temperatures naming no temperature input of the model.
    SchemaError
        When ``T_o`` or a boundary temperature is not finite.
    """
    n_flow = len(model.flow_inputs)
    if n_flow == 0:
        raise ModelError("model has no heat-flow input to pulse")
    w_temp = _normalized_weights(temp_weights, len(model.output_names), "temp_weights")
    w_power = _normalized_weights(power_weights, n_flow, "power_weights")
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
    return _ExperimentSetup(temp_weights=w_temp, temperatures=temps,
                            power_weights=w_power)


def _sample_times(protocol: QubProtocol) -> np.ndarray:
    """Sample instants of one phase, from its start to t_qub inclusive."""
    n = max(20, round(protocol.t_qub / protocol.effective_sample_dt))
    return (protocol.t_qub / n) * np.arange(n + 1)


def _two_pulse(model: StateSpaceModel, basis: EigenBasis, protocol: QubProtocol,
               setup: _ExperimentSetup, P_h, rel: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Indoor rise over T_o in the heating phase at ``rel`` and in the
    cooling phase at ``rel[1:]`` after the switch.

    ``P_h`` replaces ``protocol.P_h``; a (k,) array of powers gives
    (k, n) rows, each identical to the run of that power alone.
    """
    u_heat = setup.inputs(P_h)
    x0 = initial_state(model, setup.inputs(protocol.P0))
    # reduce each phase to its indoor mean at once: one phase's outputs live at a time
    dT_heat = setup.indoor_mean(step_response(model, u_heat, x0, rel, basis=basis))
    x_switch = state_at(model, u_heat, x0, protocol.t_qub, basis=basis)
    dT_cool = setup.indoor_mean(step_response(model, setup.inputs(protocol.P_c),
                                              x_switch, rel[1:], basis=basis))
    return dT_heat - protocol.T_o, dT_cool - protocol.T_o


def simulate_qub(model: StateSpaceModel, protocol: QubProtocol,
                 temp_weights=None, power_weights=None,
                 basis: EigenBasis | None = None) -> QubTrace:
    """Run the two-pulse protocol on a model, exactly.

    Parameters
    ----------
    model : StateSpaceModel
        Outputs must be the indoor (zone air) temperatures.
    protocol : QubProtocol
    temp_weights : array-like, optional
        Averaging weights over the outputs for the equivalent indoor
        temperature (zone air masses for a multizone building);
        defaults to uniform.
    power_weights : array-like, optional
        Split of the total power across the model's flow inputs
        (defaults to uniform).
    basis : EigenBasis, optional
        Reused eigendecomposition for sweep loops.

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
    setup = _protocol_setup(model, protocol.T_o, protocol.boundary_temperatures,
                            temp_weights, power_weights)
    if basis is None:
        basis = eigendecompose(model)
    rel = _sample_times(protocol)
    dT_heat, dT_cool = _two_pulse(model, basis, protocol, setup, protocol.P_h, rel)
    if dT_heat[-1] <= dT_heat[0] + 1e-12 * max(1.0, abs(dT_heat[0])):
        warnings.warn(
            "heating power is at or below the maintenance power: the indoor "
            "temperature does not rise during the heating pulse",
            stacklevel=2,
        )
    n = rel.size - 1
    times = np.concatenate([rel, protocol.t_qub + rel[1:]])
    delta_T = np.concatenate([dT_heat, dT_cool])
    power = np.concatenate([np.full(n + 1, protocol.P_h), np.full(n, protocol.P_c)])
    return QubTrace(times=times, delta_T=delta_T, power=power, n_heating=n + 1)


# ---------------------------------------------------------------------------
# slope fitting and estimation
# ---------------------------------------------------------------------------

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a·b along the last axis, for vectors or stacks of them.  Written as
    a stacked ``@`` so each member is the same BLAS dot as lone vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _window(t_rel: np.ndarray, window_fraction: float, phase: str) -> np.ndarray:
    """Mask of the trailing ``window_fraction`` of a phase sampled at
    ``t_rel`` (from the phase start).  It depends on the sample instants
    alone, so a sweep can check it before it simulates anything.

    Raises
    ------
    ModelError
        When ``window_fraction`` is outside (0, 1] or the window holds
        fewer than three samples.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ModelError("window_fraction must lie in (0, 1]")
    span = t_rel[-1]
    # same selection rule in both phases => identical window geometry
    selected = t_rel >= (1.0 - window_fraction) * span - 1e-9 * span
    count = np.count_nonzero(selected)
    if count < 3:
        raise ModelError(f"{phase} window holds only {count} samples; need at least 3")
    return selected


def _fit_window(t_rel: np.ndarray, values: np.ndarray, window_fraction: float,
                phase: str) -> SlopeFit:
    """Least-squares line over the trailing window of a phase sampled at
    ``t_rel`` (from the phase start).  ``values`` may be a stack (k, n) of
    records sharing those instants; alpha, dT0 and r2 are then (k,)
    arrays, each identical to the fit of that record alone."""
    selected = _window(t_rel, window_fraction, phase)
    t_win = t_rel[selected]
    t_mean = t_win.mean()
    t_dev = t_win - t_mean
    t_var = float(t_dev @ t_dev)
    if t_var == 0.0:
        raise ModelError(f"{phase} window has zero time variance")
    y_win = np.ascontiguousarray(values[..., selected])
    y_mean = y_win.mean(axis=-1)
    y_dev = y_win - y_mean[..., None]
    alpha = _rowdot(t_dev, y_dev) / t_var
    t0 = float(t_win[0])
    dT0 = y_mean + alpha * (t0 - t_mean)
    residual = y_win - (y_mean[..., None] + alpha[..., None] * t_dev)
    total = _rowdot(y_dev, y_dev)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(total == 0.0, 1.0, 1.0 - _rowdot(residual, residual) / total)
    return SlopeFit(alpha=alpha, dT0=dT0, t0=t0, r2=r2, n_samples=int(t_win.size))


def _cooling_clock(rel: np.ndarray, t_qub: float) -> np.ndarray:
    """Instants of the cooling samples of a :func:`_two_pulse` record,
    on the clock :func:`fit_slope` reads them with: from the last
    heating sample, rel[-1]."""
    return (t_qub + rel[1:]) - rel[-1]


def _check_windows(rel: np.ndarray, t_qub: float, window_fraction: float) -> None:
    """Raise the ModelError of a heating or cooling fit window too short
    to fit a :func:`_two_pulse` record sampled at ``rel``."""
    _window(rel, window_fraction, _HEATING)
    _window(_cooling_clock(rel, t_qub), window_fraction, _COOLING)


def _two_pulse_fits(rel: np.ndarray, t_qub: float, dT_heat: np.ndarray,
                    dT_cool: np.ndarray, window_fraction: float
                    ) -> tuple[SlopeFit, SlopeFit]:
    """Both phase fits of (stacks of) :func:`_two_pulse` records, as
    :func:`fit_slope` makes them on the trace :func:`simulate_qub` builds."""
    return (_fit_window(rel, dT_heat, window_fraction, _HEATING),
            _fit_window(_cooling_clock(rel, t_qub), dT_cool, window_fraction, _COOLING))


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
    start = 0.0 if phase == _HEATING else trace.t_qub
    fit = _fit_window(trace.times[part] - start, trace.delta_T[part],
                      window_fraction, phase)
    return replace(fit, alpha=float(fit.alpha), dT0=float(fit.dT0), r2=float(fit.r2))


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

#: trace rows rendered into one string at a time
_RENDER_ROWS = 4096

#: characters of trace text split into lines at a time (cut after a newline)
_PARSE_CHARS = 1 << 16


def _csv_chunks(trace: QubTrace):
    """The CSV text of ``trace``: the header, then ``_RENDER_ROWS`` rows
    per piece."""
    n = trace.n_heating
    yield _TRACE_HEADER + "\n"
    for start in range(0, trace.times.size, _RENDER_ROWS):
        part = slice(start, start + _RENDER_ROWS)
        rows = zip(trace.times[part].tolist(), trace.delta_T[part].tolist(),
                   trace.power[part].tolist())
        yield "".join(
            f"{t!r},{dT!r},{p!r},{_HEATING if i < n else _COOLING}\n"
            for i, (t, dT, p) in enumerate(rows, start))


def trace_to_csv(trace: QubTrace) -> str:
    """Render a trace as CSV (header ``t_s,dT_K,power_W,phase``).

    Floats use the shortest round-trip representation, so writing and
    re-reading a trace is lossless and byte-deterministic.  Rows are
    rendered a chunk at a time, so the working memory beyond the text
    itself stays bounded.
    """
    return "".join(_csv_chunks(trace))


def _text_slices(text: str):
    """Consecutive pieces of ``text`` of about ``_PARSE_CHARS`` characters,
    each cut right after a newline, so their ``splitlines`` together are
    those of the whole text."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _PARSE_CHARS)
        stop = len(text) if stop < 0 else stop + 1
        yield text[start:stop]
        start = stop


def _file_slices(fh):
    """Like :func:`_text_slices`, read from an open text file
    ``_PARSE_CHARS`` characters at a time; the part after a read's last
    newline is carried over into the next piece."""
    carry = ""
    while block := fh.read(_PARSE_CHARS):
        cut = block.rfind("\n") + 1
        if cut:
            yield carry + block[:cut]
            carry = block[cut:]
        else:
            carry += block
    if carry:
        yield carry


def trace_from_csv(source: str | TextIO) -> QubTrace:
    """Parse a trace CSV produced by :func:`trace_to_csv`.

    ``source`` is the text itself or an open text file, which is read
    ``_PARSE_CHARS`` characters at a time, never whole; both give the
    same trace or the same error.  Blank lines are skipped and not
    counted in the line numbers of errors.  The phase column must hold
    only ``heating`` and ``cooling`` labels, start with heating, end with
    cooling and switch exactly once.
    """
    header_error = f"trace: first line must be '{_TRACE_HEADER}'"
    times, delta_T, power = array("d"), array("d"), array("d")
    number = 0                    # non-blank lines so far, header included
    first = last = None           # phase labels of the first and latest row
    switches = 0                  # label changes between consecutive rows
    n_heating = None              # row index of the first cooling label
    unknown = set()
    pieces = _text_slices(source) if isinstance(source, str) else _file_slices(source)
    for piece in pieces:
        for line in piece.splitlines():
            if not line.strip():
                continue
            number += 1
            if number == 1:
                if line.strip() != _TRACE_HEADER:
                    raise SchemaError(header_error)
                continue
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
            if label != last:
                if last is None:
                    first = label
                else:
                    switches += 1
                if label == _COOLING:
                    if n_heating is None:
                        n_heating = number - 2
                elif label != _HEATING:
                    unknown.add(label)
                last = label
    if number == 0:
        raise SchemaError(header_error)
    if unknown:
        raise SchemaError(f"unknown phase label(s): {sorted(unknown)}")
    if first != _HEATING or last != _COOLING:
        raise SchemaError("trace must start with heating and end with cooling")
    if switches != 1:
        raise SchemaError("phase must switch exactly once")
    return QubTrace(times=np.frombuffer(times), delta_T=np.frombuffer(delta_T),
                    power=np.frombuffer(power), n_heating=n_heating)
