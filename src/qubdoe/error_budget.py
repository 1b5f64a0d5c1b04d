"""Error budget of the two-pulse heat-loss estimate.

Two independent contributions are tracked.  The intrinsic error is the
bias of the estimator itself on a multi-exponential building (it would
remain with perfect instruments and vanishes as the pulses lengthen).
The measurement error propagates instrument uncertainties through the
exact first-order sensitivities of

    H = (P_h α_c − P_c α_h) / σ,    σ = ΔT_h α_c − ΔT_c α_h

combined in root-sum-square since the six readings are independent.
The total is the root-sum-square of the two parts and is what a design
sweep minimises.  Every function also takes arrays and then works
elementwise, which is how the sweep evaluates a row of designs at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ModelError, NumericalError
from .qub import SlopeFit, _cancels

__all__ = [
    "MeasurementErrors",
    "ErrorPolicy",
    "QubPartials",
    "ErrorBudget",
    "partials",
    "measurement_error",
    "assemble_budget",
    "slope_standard_error",
]


@dataclass(frozen=True)
class MeasurementErrors:
    """Absolute 1-sigma instrument uncertainties.

    The same uncertainty applies to both phases of each pair: slope
    uncertainty ``eps_alpha`` (K/s), power uncertainty ``eps_P`` (W),
    temperature-difference uncertainty ``eps_dT`` (K).
    """

    eps_alpha: float
    eps_P: float
    eps_dT: float

    def __post_init__(self) -> None:
        for name in ("eps_alpha", "eps_P", "eps_dT"):
            if np.any(np.asarray(getattr(self, name)) < 0.0):
                raise ModelError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ErrorPolicy:
    """How to pick measurement uncertainties for a given run.

    ``eps_dT`` is the temperature-difference uncertainty (K, default
    0.5); ``eps_P_rel`` the power uncertainty as a fraction of the
    heating power (default 0.01); ``eps_alpha`` the slope uncertainty
    (K/s), which when None is the regression standard error of the
    slope in the worse-fitted phase.  Every value given must be finite
    and >= 0.
    """

    eps_dT: float = 0.5
    eps_P_rel: float = 0.01
    eps_alpha: float | None = None

    def __post_init__(self) -> None:
        for name in ("eps_dT", "eps_P_rel", "eps_alpha"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < np.inf:
                raise ModelError(f"{name} must be finite and >= 0, got {value}")

    def resolve(self, P_h: float, fit_h: SlopeFit, fit_c: SlopeFit) -> MeasurementErrors:
        """The uncertainties of a run at heating power ``P_h`` whose
        phases were fitted as ``fit_h`` and ``fit_c``."""
        if self.eps_alpha is not None:
            eps_alpha = self.eps_alpha
        else:
            eps_alpha = np.maximum(
                slope_standard_error(fit_h.alpha, fit_h.r2, fit_h.n_samples),
                slope_standard_error(fit_c.alpha, fit_c.r2, fit_c.n_samples))
        return MeasurementErrors(eps_alpha=eps_alpha, eps_P=self.eps_P_rel * abs(P_h),
                                 eps_dT=self.eps_dT)


def slope_standard_error(alpha: float, r2: float, n: int) -> float:
    """Standard error of a fitted slope from its r² and sample count:
    se = |α|·sqrt((1−r²)/(r²·(n−2))); elementwise, ``n`` included."""
    if np.any(np.asarray(n) < 3):
        raise ModelError(f"need at least 3 samples for a slope error, got {np.min(n)}")
    r2 = np.clip(r2, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.abs(alpha) * np.sqrt((1.0 - r2) / (r2 * (n - 2)))
    return np.where(r2 == 0.0, np.inf, se)[()]


@dataclass(frozen=True)
class QubPartials:
    """First-order sensitivities of H to the six measured quantities."""

    dH_dalpha_h: float
    dH_dalpha_c: float
    dH_dP_h: float
    dH_dP_c: float
    dH_ddT_h: float
    dH_ddT_c: float
    sigma: float


def partials(alpha_h: float, alpha_c: float, P_h: float, P_c: float,
             dT_h: float, dT_c: float) -> QubPartials:
    """Exact partial derivatives of the two-phase H quotient.

    With N = P_h α_c − P_c α_h and σ = ΔT_h α_c − ΔT_c α_h:

        ∂H/∂α_h = ΔT_c N/σ² − P_c/σ      ∂H/∂α_c = −ΔT_h N/σ² + P_h/σ
        ∂H/∂P_h = α_c/σ                  ∂H/∂P_c = −α_h/σ
        ∂H/∂ΔT_h = −α_c N/σ²             ∂H/∂ΔT_c = α_h N/σ²
    """
    if np.any(_cancels(dT_h * alpha_c, dT_c * alpha_h)):
        raise NumericalError("degenerate experiment: σ = ΔT_h·α_c − ΔT_c·α_h ≈ 0")
    sigma = dT_h * alpha_c - dT_c * alpha_h
    # np.square is x·x for floats and arrays alike; a float's ** 2 goes
    # through pow() and can differ from an array's in the last bit
    sigma2 = np.square(sigma)
    N = P_h * alpha_c - P_c * alpha_h
    return QubPartials(
        dH_dalpha_h=dT_c * N / sigma2 - P_c / sigma,
        dH_dalpha_c=-dT_h * N / sigma2 + P_h / sigma,
        dH_dP_h=alpha_c / sigma,
        dH_dP_c=-alpha_h / sigma,
        dH_ddT_h=-alpha_c * N / sigma2,
        dH_ddT_c=alpha_h * N / sigma2,
        sigma=sigma,
    )


def measurement_error(p: QubPartials, errors: MeasurementErrors) -> float:
    """Root-sum-square propagated instrument uncertainty on H (W/K)."""
    return np.sqrt(
        np.square(errors.eps_alpha * p.dH_dalpha_h)
        + np.square(errors.eps_alpha * p.dH_dalpha_c)
        + np.square(errors.eps_P * p.dH_dP_h)
        + np.square(errors.eps_P * p.dH_dP_c)
        + np.square(errors.eps_dT * p.dH_ddT_h)
        + np.square(errors.eps_dT * p.dH_ddT_c)
    )


@dataclass(frozen=True)
class ErrorBudget:
    """The full budget of one experiment design."""

    eps_qub: float
    eps_qub_pct: float
    eps_Hm: float
    eps_H: float
    eps_H_pct: float

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.eps_Hm) < 0.0):
            raise ModelError("eps_Hm must be >= 0")


def assemble_budget(H_qub: float, H_ref: float, eps_Hm: float) -> ErrorBudget:
    """Build the budget from an estimate, its reference, and the
    propagated measurement error.

    The intrinsic error ``eps_qub`` is the estimator bias H_qub − H_ref
    with its sign kept (positive: the experiment overestimates the heat
    loss); the total ``eps_H`` is the root-sum-square of bias and
    measurement scatter.  Both percentages are of H_ref.
    """
    if not H_ref > 0.0:
        raise ModelError(f"H_ref must be positive, got {H_ref}")
    eps_qub = H_qub - H_ref
    eps_H = np.hypot(eps_qub, eps_Hm)
    return ErrorBudget(eps_qub=eps_qub, eps_qub_pct=100.0 * eps_qub / H_ref,
                       eps_Hm=eps_Hm, eps_H=eps_H, eps_H_pct=100.0 * eps_H / H_ref)
