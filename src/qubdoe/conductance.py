"""Aggregate heat-loss metrics of a building model.

The static gain matrix K = -CA⁻¹B + D maps constant sources to steady
node temperatures.  Because a uniform temperature at every boundary
reproduces itself at every node, the gains of the temperature inputs
form a partition of unity on each output; the gain of a heat input is
the steady K/W rise at the output, whose reciprocal is the overall heat
transfer coefficient H.  :func:`reference_H` reduces a many-node model
to the single H (W/K) of one experiment: the power split across the
heaters and the weighting of the indoor temperature are those the
experiment uses, because H depends on both.
"""
from __future__ import annotations

import numpy as np

from .exceptions import NumericalError
from .network import StateSpaceModel
from .qub import _protocol_setup

__all__ = [
    "static_gains",
    "reference_H",
]


def static_gains(model: StateSpaceModel) -> np.ndarray:
    """Steady input-to-output gain matrix (-CA⁻¹B + D), outputs x inputs."""
    return -model.C @ np.linalg.solve(model.A, model.B) + model.D


def reference_H(model: StateSpaceModel, temp_weights=None,
                power_weights=None) -> float:
    """Steady heat transfer coefficient H (W/K) of the experiment that
    :func:`~qubdoe.qub.simulate_qub` runs with the same weights.

    One watt split across the flow inputs by ``power_weights``, every
    temperature input at zero: H is the reciprocal of the steady indoor
    rise, the outputs averaged by ``temp_weights`` (each uniform when
    None).  With every boundary at one temperature, this is the value a
    two-pulse estimate converges to on long pulses, so the intrinsic
    error of a design is measured against it.

    Raises
    ------
    ModelError
        On a model without heat input or malformed weights.
    NumericalError
        When the indoor temperature does not rise under the heaters.
    """
    setup = _protocol_setup(model, 0.0, {}, temp_weights, power_weights)
    rise = float(setup.indoor_mean(static_gains(model) @ setup.inputs(1.0)))
    if not rise > 0.0:
        raise NumericalError(
            f"steady indoor rise under the heaters is {rise:.3e} K/W; "
            "no meaningful heat transfer coefficient"
        )
    return 1.0 / rise
