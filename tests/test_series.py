import math
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from curverecon import affine, series
from curverecon.curvatures import MonomialCurvature
from curverecon.geometry import grid_distance


class TestTangent:
    def test_vanishing_coefficient_gives_linear_tangent(self):
        spec = MonomialCurvature(0.0, 3)
        a = np.linspace(0.0, 5.0, 21)
        t = series.tangent(spec, a)
        assert_allclose(t[:, 0], 1.0, atol=0.0)
        assert_allclose(t[:, 1], a, atol=0.0)

    def test_constant_positive_matches_trig_form(self):
        # k=0, c=mu>0: tangent is (cos(w a), sin(w a)/w), the derivative of
        # the closed-form ellipse
        mu = 2.0
        w = math.sqrt(mu)
        spec = MonomialCurvature(mu, 0)
        a = np.linspace(0.0, 3.0, 301)
        t = series.tangent(spec, a)
        assert np.abs(t[:, 0] - np.cos(w * a)).max() < 1e-10
        assert np.abs(t[:, 1] - np.sin(w * a) / w).max() < 1e-10

    def test_constant_negative_matches_hyperbolic_form(self):
        mu = -3.0
        lam = math.sqrt(-mu)
        spec = MonomialCurvature(mu, 0)
        a = np.linspace(0.0, 2.0, 201)
        t = series.tangent(spec, a)
        assert np.abs(t[:, 0] - np.cosh(lam * a)).max() < 1e-9
        assert np.abs(t[:, 1] - np.sinh(lam * a) / lam).max() < 1e-9

    def test_tol_loosens_the_round_off_refusal(self):
        # at alpha = 10 the largest term is ~10^3.4, so the sum's round-off passes 1e-14
        spec = MonomialCurvature(1.0, 0)
        a = np.linspace(0.0, 10.0, 5)
        with pytest.raises(ValueError, match=re.escape(
                "series round-off 2^-53 x 10^3.4 exceeds the term tolerance 1.0e-14 at alpha=10.0")):
            series.tangent(spec, a)
        t = series.tangent(spec, a, tol=1e-9)
        assert np.abs(t[:, 0] - np.cos(a)).max() < 1e-9
        assert np.abs(t[:, 1] - np.sin(a)).max() < 1e-9

    def test_matches_iterative_frame_row(self):
        spec = MonomialCurvature(1.0, 1)
        curve, res = affine.picard(lambda a: np.asarray(a, dtype=float), 1.0, tol=1e-12)
        t_series = series.tangent(spec, curve.params)
        gap = np.abs(t_series - res.frames[:, 0, :]).max()
        assert gap <= 1e-9

    def test_ode_residual(self):
        # T'' + c a^k T should vanish up to finite differencing error
        spec = MonomialCurvature(1.0, 2)
        a = np.linspace(0.0, 2.0, 4097)
        t = series.tangent(spec, a)
        d2 = np.gradient(np.gradient(t, a, axis=0, edge_order=2), a, axis=0, edge_order=2)
        residual = d2 + (a**2)[:, None] * t
        assert np.abs(residual[4:-4]).max() < 1e-4


class TestCurve:
    def test_zero_coefficient_gives_parabola(self):
        c = series.curve(MonomialCurvature(0.0, 1), 2.0, 101)
        assert_allclose(c.points[:, 0], c.params, atol=0.0)
        assert_allclose(c.points[:, 1], 0.5 * c.params**2, atol=0.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_iterative_solver(self, k):
        pc, _ = affine.picard(lambda a, kk=k: np.asarray(a, dtype=float) ** kk, 3.0, tol=1e-10)
        sc = series.curve(MonomialCurvature(1.0, k), 3.0, len(pc))
        assert grid_distance(sc, pc) <= 1e-6


class TestCoefficients:
    def test_recurrence_matches_gamma_closed_form(self):
        # u_i = (-c)^i / (K^(2i) i! (1 - 1/K)_i) and v_i the same with (1 + 1/K)_i, the rising
        # factorial (a)_i = Gamma(a + i) / Gamma(a), evaluated by mpmath at 40 digits
        with mpmath.workdps(40):
            for c in (1.0, -2.5, 0.3):
                for K in range(2, 9):
                    u, v = series.tangent_coefficients(MonomialCurvature(c, K - 2), 2.0)
                    assert u.size > 12
                    for i in range(u.size):
                        common = mpmath.mpf(-c) ** i / (mpmath.mpf(K) ** (2 * i) * mpmath.factorial(i))
                        for got, a in ((u[i], 1 - mpmath.mpf(1) / K), (v[i], 1 + mpmath.mpf(1) / K)):
                            want = common / mpmath.rf(a, i)
                            assert abs((got - want) / want) <= 1e-14

    def test_terms_eventually_decrease(self):
        u, v = series.tangent_coefficients(MonomialCurvature(3.0, 1), 2.5, tol=1e-14)
        mags = np.abs(u) * 2.5 ** (3 * np.arange(u.size))
        tail = mags[np.argmax(mags):]
        assert np.all(np.diff(tail) < 0.0)

    def test_truncation_count_examples(self):
        assert series.truncation_count(MonomialCurvature(0.0, 1), 10.0) == 0
        assert series.truncation_count(MonomialCurvature(1.0, 1), 0.0) == 0
        assert series.truncation_count(MonomialCurvature(1.0, 1), 3.0) > 5

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ValueError, match=re.escape(
                "term tolerance 1.0e-14 unreachable within 100000 terms at alpha=500.0")):
            series.truncation_count(MonomialCurvature(1.0, 0), 500.0, tol=1e-14)

    @pytest.mark.parametrize("alpha", [3.0, 6.0, 7.0, 10.0])
    def test_round_off_above_tol_is_refused(self, alpha):
        # the sum loses 2^-53 of its largest term, read here off a ladder built at a looser tolerance
        mu = MonomialCurvature(1.0, 0)
        u, v = series.tangent_coefficients(mu, alpha, tol=1e-3)
        K = 2 * np.arange(u.size)
        peak = max((np.abs(u) * alpha**K).max(), (np.abs(v) * alpha ** (K + 1)).max())
        if 2.0**-53 * peak > 1e-14:
            with pytest.raises(ValueError, match=re.escape(
                    f"series round-off 2^-53 x 10^{math.log10(peak):.1f} exceeds the term tolerance 1.0e-14 "
                    f"at alpha={alpha!r}")):
                series.tangent_coefficients(mu, alpha, tol=1e-14)
        else:
            assert series.tangent_coefficients(mu, alpha, tol=1e-14)[0].size > u.size
