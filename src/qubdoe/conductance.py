"""Aggregate heat-loss metrics of a building model.

The static gain matrix K = -CA⁻¹B + D maps constant sources to steady
node temperatures.  Because a uniform temperature at every boundary
reproduces itself at every node, the gains of the temperature inputs
form a partition of unity on each output; the gain of a heat input is
the steady K/W rise at the output, whose reciprocal is the overall heat
transfer coefficient H.  The multizone aggregates below reduce a many-
node model to the single H (W/K) that a whole-building measurement is
after, and the degree-day quotient gives the long-horizon integral
estimate used by meter-based methods.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import ModelError, NumericalError
from .network import StateSpaceModel, Zone

__all__ = [
    "ConductanceReport",
    "static_gains",
    "reference_H_single",
    "mean_zone_temperature",
    "overall_H_multizone",
    "degree_day_H",
    "conductance_report",
]


def static_gains(model: StateSpaceModel) -> np.ndarray:
    """Steady input-to-output gain matrix (-CA⁻¹B + D), outputs x inputs."""
    return -model.C @ np.linalg.solve(model.A, model.B) + model.D


def reference_H_single(model: StateSpaceModel, power_input: str, output: str) -> float:
    """Heat transfer coefficient seen by one heat input at one node.

    H = 1/K_P where K_P (K/W) is the static gain of ``power_input`` on
    ``output``.  This is the exact whole-model reference an estimation
    method should recover on a single-boundary building.
    """
    if power_input not in model.input_names:
        raise ModelError(f"unknown input '{power_input}'")
    if model.input_kinds[model.input_names.index(power_input)] != "flow":
        raise ModelError(f"input '{power_input}' is not a heat-flow source")
    if output not in model.output_names:
        raise ModelError(f"unknown output '{output}'")
    gain = static_gains(model)[model.output_names.index(output),
                               model.input_names.index(power_input)]
    if gain <= 0.0:
        raise NumericalError(
            f"static gain of '{power_input}' on '{output}' is {gain:.3e}; "
            "no meaningful heat transfer coefficient"
        )
    return 1.0 / gain


def mean_zone_temperature(temperatures: Mapping[str, float],
                          zones: Sequence[Zone],
                          weighting: str = "mass") -> float:
    """Weighted mean indoor temperature over zones.

    ``weighting`` is ``"mass"`` (air-mass weights, the equivalent
    single-node temperature of the zone air) or ``"area"`` (floor-area
    weights, the convention of area-normalised audits).
    """
    if not zones:
        raise ModelError("no zones given")
    if weighting == "mass":
        weights = np.array([z.air_mass for z in zones])
    elif weighting == "area":
        weights = np.array([z.floor_area for z in zones])
    else:
        raise ModelError(f"unknown weighting '{weighting}' (use 'mass' or 'area')")
    try:
        values = np.array([float(temperatures[z.id]) for z in zones])
    except KeyError as exc:
        raise ModelError(f"temperatures: missing zone {exc.args[0]!r}") from None
    return float(weights @ values / weights.sum())


def _zone_power_map(model: StateSpaceModel, zones: Sequence[Zone],
                    zone_inputs: Mapping[str, str] | None) -> dict[str, str]:
    """Resolve which flow input heats which zone."""
    if zone_inputs is not None:
        for zone_id, name in zone_inputs.items():
            if name not in model.flow_inputs:
                raise ModelError(f"zone '{zone_id}': '{name}' is not a flow input")
        return dict(zone_inputs)
    flows = model.flow_inputs
    if len(flows) == len(zones):
        return {z.id: name for z, name in zip(zones, flows)}
    raise ModelError(
        f"cannot infer zone heat inputs: {len(zones)} zones but "
        f"{len(flows)} flow inputs; pass zone_inputs explicitly"
    )


def overall_H_multizone(model: StateSpaceModel, powers: Mapping[str, float],
                        T_o: float, zones: Sequence[Zone],
                        zone_inputs: Mapping[str, str] | None = None) -> float:
    """Aggregate H of a multizone model: ΣP / (θ̄ - T_o).

    Every temperature source is held at ``T_o`` (the aggregate is only
    well defined against a single boundary temperature), each zone's
    heat input carries its entry of ``powers`` (W), and θ̄ is the
    mass-weighted mean of the steady zone-air temperatures.  The result
    depends on how the total power splits across zones, which is
    exactly why it must be compared against the same split used in an
    experiment.
    """
    if not zones:
        raise ModelError("no zones given")
    total = float(sum(powers.values()))
    if total <= 0.0:
        raise ModelError("total power must be positive")
    unknown = set(powers) - {z.id for z in zones}
    if unknown:
        raise ModelError("powers: unknown zone(s): " + ", ".join(sorted(unknown)))
    heat_input = _zone_power_map(model, zones, zone_inputs)
    values: dict[str, float] = {name: T_o for name in model.temperature_inputs}
    for name in model.flow_inputs:
        values[name] = 0.0
    for zone in zones:
        values[heat_input[zone.id]] = float(powers.get(zone.id, 0.0))
    u = model.input_vector(values)
    outputs = static_gains(model) @ u
    by_name = dict(zip(model.output_names, outputs))
    missing = [z.air_node for z in zones if z.air_node not in by_name]
    if missing:
        raise ModelError("model outputs lack zone air node(s): " + ", ".join(missing))
    theta = {z.id: by_name[z.air_node] for z in zones}
    mean = mean_zone_temperature(theta, zones, weighting="mass")
    rise = mean - T_o
    if rise == 0.0:
        raise NumericalError("mean indoor temperature equals T_o; H undefined")
    return total / rise


def degree_day_H(times: np.ndarray, powers: np.ndarray,
                 delta_T: np.ndarray) -> float:
    """Long-horizon integral estimate H = ∫P dt / ∫ΔT dt (trapezoid).

    The quotient equals the true H only when the series is (quasi-)
    stationary; transients bias it by roughly the ratio of the mean
    residence time to the horizon.
    """
    times = np.asarray(times, dtype=float)
    powers = np.asarray(powers, dtype=float)
    delta_T = np.asarray(delta_T, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ModelError("need at least two samples")
    if powers.shape != times.shape or delta_T.shape != times.shape:
        raise ModelError("times, powers, delta_T must align")
    if np.any(np.diff(times) <= 0.0):
        raise ModelError("times must be strictly increasing")
    denom = np.trapezoid(delta_T, times)
    if denom == 0.0:
        raise NumericalError("integrated temperature difference is zero")
    return float(np.trapezoid(powers, times) / denom)


@dataclass(frozen=True)
class ConductanceReport:
    """Everything the steady gains say about a model's heat loss."""

    H: float
    R: float
    static_gain_matrix: np.ndarray
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    temperature_gain_sums: np.ndarray


def conductance_report(model: StateSpaceModel, power_input: str,
                       output: str) -> ConductanceReport:
    """Assemble the static-gain summary for one designated heat input."""
    gains = static_gains(model)
    H = reference_H_single(model, power_input, output)
    temp_cols = [i for i, kind in enumerate(model.input_kinds) if kind == "temperature"]
    sums = gains[:, temp_cols].sum(axis=1)
    return ConductanceReport(
        H=H,
        R=1.0 / H,
        static_gain_matrix=gains,
        input_names=model.input_names,
        output_names=model.output_names,
        temperature_gain_sums=sums,
    )
