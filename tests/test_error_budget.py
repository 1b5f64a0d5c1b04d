"""Sensitivities of the H quotient and the uncertainty budget."""
from __future__ import annotations

import math

import numpy as np
import pytest

import qubdoe as q
from conftest import rng
from oracles import mc_measurement_sigma


def random_point(r):
    """Random non-degenerate operating point of the two-phase quotient."""
    while True:
        P_h = r.uniform(500.0, 3000.0)
        P_c = r.uniform(0.0, 0.4) * P_h
        dT_h = r.uniform(3.0, 20.0)
        dT_c = r.uniform(1.0, 0.9 * dT_h)
        alpha_h = r.uniform(1.0e-5, 8.0e-4)
        alpha_c = -r.uniform(1.0e-5, 8.0e-4)
        sigma = dT_h * alpha_c - dT_c * alpha_h
        if abs(sigma) > 1e-6:
            return P_h, P_c, dT_h, dT_c, alpha_h, alpha_c


def fd_partials(P_h, P_c, dT_h, dT_c, alpha_h, alpha_c):
    """Central finite differences of the quotient itself."""
    def f(vec):
        ah, ac, th, tc, ph, pc = vec
        return (ph * ac - pc * ah) / (th * ac - tc * ah)

    x0 = np.array([alpha_h, alpha_c, dT_h, dT_c, P_h, P_c])
    steps = np.abs(x0) * 1e-6 + np.array([1e-12, 1e-12, 1e-9, 1e-9, 1e-6, 1e-6])
    out = []
    for k in range(6):
        hi = x0.copy(); hi[k] += steps[k]
        lo = x0.copy(); lo[k] -= steps[k]
        out.append((f(hi) - f(lo)) / (2.0 * steps[k]))
    return out  # d/d alpha_h, alpha_c, dT_h, dT_c, P_h, P_c


class TestPartials:
    def test_sigma_and_hand_values(self):
        p = q.partials(4.0e-4, -2.5e-4, 1000.0, 0.0, 8.0, 5.0)
        sigma = 8.0 * -2.5e-4 - 5.0 * 4.0e-4
        assert p.sigma == pytest.approx(sigma, rel=1e-12)
        assert p.dH_dP_h == pytest.approx(-2.5e-4 / sigma, rel=1e-12)
        assert p.dH_dP_c == pytest.approx(-4.0e-4 / sigma, rel=1e-12)

    def test_matches_finite_differences(self):
        r = rng(123)
        for _ in range(150):
            P_h, P_c, dT_h, dT_c, ah, ac = random_point(r)
            p = q.partials(ah, ac, P_h, P_c, dT_h, dT_c)
            fd = fd_partials(P_h, P_c, dT_h, dT_c, ah, ac)
            got = [p.dH_dalpha_h, p.dH_dalpha_c, p.dH_ddT_h, p.dH_ddT_c,
                   p.dH_dP_h, p.dH_dP_c]
            for g, want in zip(got, fd):
                assert g == pytest.approx(want, rel=1e-5, abs=1e-10)

    def test_consistent_with_estimator(self):
        """The partial along each coordinate integrates back to the
        quotient over a short segment (first-order Taylor check)."""
        P_h, P_c, dT_h, dT_c, ah, ac = 1200.0, 100.0, 10.0, 6.0, 3.0e-4, -2.0e-4
        H0 = q.estimate_H(ah, ac, dT_h, dT_c, P_h, P_c)
        p = q.partials(ah, ac, P_h, P_c, dT_h, dT_c)
        d = 1.0e-7
        H1 = q.estimate_H(ah, ac, dT_h + d, dT_c, P_h, P_c)
        assert (H1 - H0) / d == pytest.approx(p.dH_ddT_h, rel=1e-4)

    def test_degenerate_rejected(self):
        with pytest.raises(q.NumericalError):
            q.partials(2.0e-4, 1.0e-4, 1000.0, 0.0, 6.0, 3.0)


class TestSlopeStandardError:
    def test_perfect_fit_has_no_uncertainty(self):
        assert q.slope_standard_error(5.0e-4, 1.0, 40) == 0.0

    def test_formula(self):
        alpha, r2, n = 4.0e-4, 0.99, 50
        want = abs(alpha) * math.sqrt((1.0 - r2) / (r2 * (n - 2)))
        assert q.slope_standard_error(alpha, r2, n) == pytest.approx(want)

    def test_uninformative_fit(self):
        assert q.slope_standard_error(1.0e-4, 0.0, 40) == math.inf

    def test_needs_three_samples(self):
        with pytest.raises(q.QubdoeError):
            q.slope_standard_error(1.0e-4, 0.9, 2)
        with pytest.raises(q.QubdoeError):
            q.slope_standard_error(np.full(2, 1.0e-4), np.full(2, 0.9), np.array([40, 2]))

    def test_elementwise_sample_counts(self):
        # a sweep's grid of fits: each record's own window length
        alpha, r2, n = np.array([4.0e-4, -2.0e-5, 1.0e-3]), np.array([0.99, 0.5, 1.0]), [50, 11, 3]
        got = q.slope_standard_error(alpha, r2, np.array(n))
        assert got.tolist() == [q.slope_standard_error(*args) for args in zip(alpha, r2, n)]


class TestMeasurementError:
    def test_rss_hand_value(self):
        p = q.QubPartials(dH_dalpha_h=2.0, dH_dalpha_c=-1.0, dH_dP_h=0.5,
                          dH_dP_c=-0.25, dH_ddT_h=3.0, dH_ddT_c=-4.0,
                          sigma=-1.0e-3)
        errors = q.MeasurementErrors(eps_alpha=0.1, eps_P=2.0, eps_dT=0.5)
        want = math.sqrt((2.0 * 0.1) ** 2 + (1.0 * 0.1) ** 2
                         + (0.5 * 2.0) ** 2 + (0.25 * 2.0) ** 2
                         + (3.0 * 0.5) ** 2 + (4.0 * 0.5) ** 2)
        assert q.measurement_error(p, errors) == pytest.approx(want, rel=1e-12)

    def test_against_monte_carlo(self):
        # moderate perturbations keep the quotient near-linear, where the
        # first-order propagation and the sample deviation must agree
        P_h, P_c, dT_h, dT_c = 2000.0, 0.0, 12.0, 7.0
        ah, ac = 3.0e-4, -2.0e-4
        eps = {"alpha": 2.0e-6, "P": 10.0, "dT": 0.06}
        p = q.partials(ah, ac, P_h, P_c, dT_h, dT_c)
        errors = q.MeasurementErrors(eps_alpha=eps["alpha"], eps_P=eps["P"],
                                     eps_dT=eps["dT"])
        propagated = q.measurement_error(p, errors)
        sampled = mc_measurement_sigma(P_h, P_c, dT_h, dT_c, ah, ac,
                                       eps, 200_000, seed=99)
        assert propagated == pytest.approx(sampled, rel=0.05)

    def test_negative_errors_rejected(self):
        with pytest.raises(q.QubdoeError):
            q.MeasurementErrors(eps_alpha=-1.0, eps_P=1.0, eps_dT=0.1)


class TestErrorPolicy:
    def fits(self, r2=0.999, n=40):
        h = q.SlopeFit(alpha=4.0e-4, dT0=8.0, t0=6000.0, r2=r2, n_samples=n)
        c = q.SlopeFit(alpha=-2.0e-4, dT0=5.0, t0=6000.0, r2=r2, n_samples=n)
        return h, c

    def test_defaults(self):
        policy = q.ErrorPolicy()
        fit_h, fit_c = self.fits()
        errors = policy.resolve(2000.0, fit_h, fit_c)
        assert errors.eps_dT == pytest.approx(0.5)
        assert errors.eps_P == pytest.approx(20.0)  # 1% of P_h
        worst = max(q.slope_standard_error(f.alpha, f.r2, f.n_samples)
                    for f in (fit_h, fit_c))
        assert errors.eps_alpha == pytest.approx(worst)

    def test_fixed_alpha_override(self):
        policy = q.ErrorPolicy(eps_alpha=7.0e-6)
        errors = policy.resolve(2000.0, *self.fits())
        assert errors.eps_alpha == pytest.approx(7.0e-6)

    def test_absolute_power_override(self):
        policy = q.ErrorPolicy(eps_P_abs=33.0)
        errors = policy.resolve(2000.0, *self.fits())
        assert errors.eps_P == pytest.approx(33.0)

    @pytest.mark.parametrize("field", ["eps_dT", "eps_P_rel", "eps_P_abs", "eps_alpha"])
    def test_negative_values_rejected(self, field):
        with pytest.raises(q.ModelError, match=field):
            q.ErrorPolicy(**{field: -0.01})
        q.ErrorPolicy(**{field: 0.0})

    @pytest.mark.parametrize("field", ["eps_dT", "eps_P_rel", "eps_P_abs", "eps_alpha"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(q.ModelError, match=f"{field} must be finite"):
            q.ErrorPolicy(**{field: value})


class TestBudget:
    def test_intrinsic(self):
        budget = q.assemble_budget(H_qub=61.2, H_ref=52.4, eps_Hm=0.0)
        assert budget.eps_qub == pytest.approx(8.8, abs=1e-12)
        assert budget.eps_qub_pct == pytest.approx(100.0 * 8.8 / 52.4)

    def test_intrinsic_sign_kept(self):
        budget = q.assemble_budget(H_qub=50.0, H_ref=52.4, eps_Hm=1.0)
        assert budget.eps_qub < 0.0 and budget.eps_qub_pct < 0.0

    def test_total_is_rss(self):
        budget = q.assemble_budget(H_qub=53.0, H_ref=50.0, eps_Hm=4.0)
        assert budget.eps_H == pytest.approx(5.0)
        assert budget.eps_H_pct == pytest.approx(10.0)

    def test_assemble_invariants(self):
        budget = q.assemble_budget(H_qub=55.0, H_ref=50.0, eps_Hm=2.0)
        assert budget.eps_qub == pytest.approx(5.0)
        assert budget.eps_qub_pct == pytest.approx(10.0)
        assert budget.eps_Hm == pytest.approx(2.0)
        assert budget.eps_H == pytest.approx(math.hypot(5.0, 2.0))
        assert budget.eps_H >= abs(budget.eps_qub)
        assert budget.eps_H >= budget.eps_Hm
        assert budget.eps_H_pct == pytest.approx(100.0 * budget.eps_H / 50.0)

    def test_bad_reference(self):
        for H_ref in (0.0, -1.0, float("nan")):
            with pytest.raises(q.ModelError, match="H_ref"):
                q.assemble_budget(H_qub=50.0, H_ref=H_ref, eps_Hm=1.0)
