"""Unit tests of ``demos/support.py``, the curve-to-invariant helpers that only the demos use.

The demos import the module as ``support`` from their own directory, which
is not a package, so this test loads it from its path.
"""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from curverecon.geometry import RigidMotion, SampledCurve

SUPPORT = Path(__file__).resolve().parent.parent / "demos" / "support.py"
PI = math.pi


def _support():
    spec = importlib.util.spec_from_file_location("demo_support", SUPPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


support = _support()


def random_rigid(rng):
    return RigidMotion.from_angle(rng.uniform(-np.pi, np.pi), rng.uniform(-3, 3, 2))


class TestArclength:
    def test_unit_speed_line_unchanged(self):
        t = np.linspace(0.0, 5.0, 128)
        line = SampledCurve(t, np.stack([t, np.zeros_like(t)], axis=1))
        out = support.arclength_reparametrize(line)
        assert_allclose(out.params, t, atol=1e-12)
        assert_allclose(out.points, line.points, atol=1e-12)

    def test_speed_two_line(self):
        t = np.linspace(0.0, 1.0, 128)
        out = support.arclength_reparametrize(
            SampledCurve(t, np.stack([2 * t, np.zeros_like(t)], axis=1))
        )
        assert abs(out.span - 2.0) < 1e-12

    def test_ellipse_length_matches_quadrature(self):
        # oracle computed first: adaptive quadrature of the analytic speed
        perimeter, err = quad(lambda u: np.hypot(-2 * np.sin(u), np.cos(u)), 0, 2 * PI,
                              epsabs=1e-13, limit=200)
        assert err < 1e-8
        t = np.linspace(0.0, 2 * PI, 4096)
        ell = SampledCurve(t, np.stack([2 * np.cos(t), np.sin(t)], axis=1))
        out = support.arclength_reparametrize(ell)
        assert abs(out.span - perimeter) < 1e-6
        speed = np.linalg.norm(np.gradient(out.points, out.params, axis=0), axis=1)
        assert np.abs(speed - 1.0).max() < 1e-4

    def test_zero_speed_rejected(self):
        t = np.linspace(-1.0, 1.0, 201)
        cusp = SampledCurve(t, np.stack([t**3, np.zeros_like(t)], axis=1))
        with pytest.raises(ValueError, match="zero-speed"):
            support.arclength_reparametrize(cusp)


class TestNormalization:
    def test_already_normalized_is_fixed(self):
        t = np.linspace(0, 1, 101)
        line = SampledCurve(t, np.stack([t, np.zeros_like(t)], axis=1))
        normed, g = support.normalize_to_standard_frame(line)
        assert_allclose(g.linear, np.eye(2), atol=1e-9)
        assert_allclose(g.translation, 0.0, atol=1e-9)
        assert_allclose(normed.points, line.points, atol=1e-9)

    def test_unit_circle_from_east_point(self):
        t = np.linspace(0, 2 * np.pi, 2049)
        circ = SampledCurve(t, np.stack([np.cos(t), np.sin(t)], axis=1))
        _, g = support.normalize_to_standard_frame(circ)
        # tangent (0,1), normal (-1,0) at the start: a -pi/2 rotation
        assert abs(g.angle + np.pi / 2) < 1e-6
        assert_allclose(g.translation, [0.0, 1.0], atol=1e-6)

    def test_recovers_inverse_of_random_motion(self):
        t = np.linspace(0, 2 * np.pi, 2049)
        base = SampledCurve(t, np.stack([np.sin(t), 0.5 * t], axis=1))
        base, _ = support.normalize_to_standard_frame(base)
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = random_rigid(rng)
            _, h = support.normalize_to_standard_frame(base.transformed(g))
            comp = h.compose(g)
            assert np.abs(comp.linear - np.eye(2)).max() < 1e-6
            assert np.abs(comp.translation).max() < 1e-6

    def test_recovers_inverse_on_non_uniform_parameters(self):
        u = np.linspace(0.0, 1.0, 2049)
        t = 2 * np.pi * u + 0.3 * np.sin(2 * np.pi * u)
        base = SampledCurve(t, np.stack([np.sin(t), 1.0 - np.cos(t)], axis=1))
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_rigid(rng)
            _, h = support.normalize_to_standard_frame(base.transformed(g))
            comp = h.compose(g)
            assert np.abs(comp.linear - np.eye(2)).max() < 1e-6
            assert np.abs(comp.translation).max() < 1e-6

    def test_zero_tangent_rejected(self):
        # the curve rests at its start for its first 4 samples, so its start tangent is 0
        t = np.linspace(0.5, 1.5, 51)
        resting = SampledCurve(t, np.stack([np.maximum(t - 0.6, 0.0), np.zeros_like(t)], axis=1))
        message = f"zero tangent at parameter {t[0]!r}: non-regular parametrization"
        with pytest.raises(ValueError, match=re.escape(message)):
            support.normalize_to_standard_frame(resting)


class TestGammaRatio:
    def test_single_factor_values(self):
        pm, pp, gm, gp = support.gamma_ratio_check(2, 1)
        assert pm == 1.0 and abs(pp - 1.0 / 3.0) < 1e-15
        assert abs(gm - 1.0) < 1e-12 and abs(gp - 1.0 / 3.0) < 1e-12

    def test_two_factor_product(self):
        pm, _, gm, _ = support.gamma_ratio_check(3, 2)
        assert abs(pm - 0.1) < 1e-15  # 1 / (2 * 5)
        assert abs(gm - 0.1) < 1e-12

    def test_agreement_sweep(self):
        for K in range(2, 9):
            for i in range(1, 21):
                pm, pp, gm, gp = support.gamma_ratio_check(K, i)
                assert abs(pm - gm) <= 1e-10 * pm
                assert abs(pp - gp) <= 1e-10 * pp

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            support.gamma_ratio_check(1, 1)
