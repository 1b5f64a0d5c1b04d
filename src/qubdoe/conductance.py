"""Aggregate heat-loss metrics of a building model.

The static gain matrix K = -CA⁻¹B + D maps constant sources to steady
node temperatures.  Because a uniform temperature at every boundary
reproduces itself at every node, the gains of the temperature inputs
form a partition of unity on each output; the gain of a heat input is
the steady K/W rise at the output, whose reciprocal is the overall heat
transfer coefficient H.  :func:`reference_H` reduces a many-node model
to the single H (W/K) of one experiment: the power split across the
heaters and the weighting of the indoor temperature are the model's
own, the ones the experiment uses, because H depends on both.
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


def reference_H(model: StateSpaceModel) -> float:
    """Steady heat transfer coefficient H (W/K) of the experiment that
    :func:`~qubdoe.qub.simulate_qub` runs on the model.

    One watt split across the flow inputs by the model's
    ``flow_weights``, every temperature input at zero: H is the
    reciprocal of the steady indoor rise, the outputs averaged by the
    model's ``output_weights``.  With every boundary at one temperature,
    this is the value a two-pulse estimate converges to on long pulses,
    so the intrinsic error of a design is measured against it.

    Raises
    ------
    ModelError
        On a model without heat input.
    NumericalError
        When the indoor temperature does not rise under the heaters.
    """
    return _H_from_gains(model, static_gains(model))


def _H_from_gains(model: StateSpaceModel, gains: np.ndarray) -> float:
    """:func:`reference_H` of a model from its :func:`static_gains`, for a
    caller that needs the gains too and solves them once."""
    setup = _protocol_setup(model, 0.0, {})
    rise = float(setup.indoor_mean(gains @ setup.inputs(1.0)))
    if not rise > 0.0:
        raise NumericalError(
            f"steady indoor rise under the heaters is {rise:.3e} K/W; "
            "no meaningful heat transfer coefficient"
        )
    return 1.0 / rise
