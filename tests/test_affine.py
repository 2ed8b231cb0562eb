import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from curverecon import affine
from curverecon.curvatures import parse_spec
from curverecon.geometry import EquiAffineMap, SampledCurve, derivatives, grid_distance, hausdorff_distance
from curverecon.quadrature import cumulative_simpson

PI = math.pi
RNG = np.random.default_rng(11)


def const(v):
    return lambda t: np.full_like(np.asarray(t, dtype=float), v)


class TestAffineArclength:
    def test_parabola_already_parametrized(self):
        t = np.linspace(0.0, 2.0, 513)
        parab = SampledCurve(t, np.stack([t, 0.5 * t**2], axis=1))
        out = affine.arclength_reparametrize(parab)
        assert_allclose(out.params, t, atol=1e-10)
        assert_allclose(out.points, parab.points, atol=1e-8)

    def test_unit_circle_total_length(self):
        t = np.linspace(0.0, 2 * PI, 2049)
        circ = SampledCurve(t, np.stack([np.cos(t), np.sin(t)], axis=1))
        out = affine.arclength_reparametrize(circ)
        assert abs(out.span - 2 * PI) < 1e-8

    def test_ellipse_total_length_against_curvature_route(self):
        # oracle first: integral of kappa^(1/3) ds with the analytic ellipse
        # curvature; the integrand collapses to the constant 2^(1/3)
        def integrand(u):
            speed = np.hypot(-2 * np.sin(u), np.cos(u))
            kappa = 2.0 / speed**3
            return kappa ** (1.0 / 3.0) * speed

        oracle, err = quad(integrand, 0.0, 2 * PI, epsabs=1e-12, limit=200)
        assert err < 1e-9
        assert abs(oracle - 2.0 ** (1.0 / 3.0) * 2 * PI) < 1e-9

        t = np.linspace(0.0, 2 * PI, 4097)
        ell = SampledCurve(t, np.stack([2 * np.cos(t), np.sin(t)], axis=1))
        out = affine.arclength_reparametrize(ell)
        assert abs(out.span - oracle) < 1e-6

    def test_normalized_second_derivative_determinant(self):
        t = np.linspace(0.0, 2 * PI, 4097)
        ell = SampledCurve(t, np.stack([2 * np.cos(t), np.sin(t)], axis=1))
        out = affine.arclength_reparametrize(ell)
        d1 = np.gradient(out.points, out.params, axis=0, edge_order=2)
        d2 = np.gradient(d1, out.params, axis=0, edge_order=2)
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        assert np.abs(det[4:-4] - 1.0).max() < 2e-3

    def test_inflection_rejected(self):
        t = np.linspace(-1.0, 1.0, 513)
        wave = SampledCurve(t, np.stack([t, np.sin(t)], axis=1))
        with pytest.raises(ValueError, match="parameter"):
            affine.arclength_reparametrize(wave)


class TestCurvatureConversion:
    def test_unit_circle_gives_one(self):
        s = np.linspace(0.0, 2 * PI, 4097)
        alpha, mu = affine.curvature_from_euclidean(s, np.ones_like(s))
        assert np.abs(mu - 1.0).max() < 1e-10

    def test_constant_curvature_power_law(self):
        s = np.linspace(0.0, 3.0, 2049)
        for c in (0.5, 2.0):
            _, mu = affine.curvature_from_euclidean(s, np.full_like(s, c))
            assert np.abs(mu - c ** (4.0 / 3.0)).max() < 1e-9

    def test_sinusoid_matches_closed_form_at_every_node(self):
        # mu(s) in closed form for kappa = 0.5 + 0.2 sin s, read at the s of each
        # uniform affine arc-length node (alpha(s) from a 8x finer Simpson grid)
        s = np.linspace(0.0, 3.0, 2049)
        alpha, mu = affine.curvature_from_euclidean(s, 0.5 + 0.2 * np.sin(s))
        fine = np.linspace(0.0, 3.0, 16385)
        alpha_fine = cumulative_simpson(np.cbrt(0.5 + 0.2 * np.sin(fine)), fine[1] - fine[0])
        t = CubicSpline(alpha_fine, fine)(alpha)
        k, ks, kss = 0.5 + 0.2 * np.sin(t), 0.2 * np.cos(t), -0.2 * np.sin(t)
        exact = (3.0 * k * (kss + 3.0 * k**3) - 5.0 * ks**2) / (9.0 * k ** (8.0 / 3.0))
        assert np.abs(mu - exact).max() < 1e-6

    def test_ellipse_recovers_constant(self):
        # conic with mu=2 -> euclidean curvature samples -> back to mu; the
        # curvature formula is parametrization-invariant, so it reads off the
        # alpha-sampled points, and s comes from integrating the speed
        alpha, mu = affine.curvature_from_euclidean(*self._ellipse_samples())
        assert np.abs(mu[8:-8] - 2.0).max() < 1e-3

    @staticmethod
    def _ellipse_samples():
        from scipy.integrate import cumulative_trapezoid

        from curverecon import euclidean

        curve = affine.conic(2.0, 4.0, 4097)
        _, kappa = euclidean.curvature(curve)
        d1 = np.gradient(curve.points, curve.params, axis=0, edge_order=2)
        return cumulative_trapezoid(np.hypot(d1[:, 0], d1[:, 1]), curve.params, initial=0.0), kappa

    @pytest.mark.parametrize("case", ["circle", "const 0.5", "const 2", "sinusoid", "ellipse"])
    def test_running_integral_bitwise_equal_to_scipy_trapezoid(self, case):
        # the numpy trapezoid must give scipy's cumulative_trapezoid bits, so the
        # conversion returns what it did while it called scipy
        from scipy.integrate import cumulative_trapezoid
        from scipy.interpolate import PchipInterpolator

        s2, s3 = np.linspace(0.0, 2 * PI, 4097), np.linspace(0.0, 3.0, 2049)
        s, kappa = {
            "circle": lambda: (s2, np.ones_like(s2)),
            "const 0.5": lambda: (s3, np.full_like(s3, 0.5)),
            "const 2": lambda: (s3, np.full_like(s3, 2.0)),
            "sinusoid": lambda: (s3, 0.5 + 0.2 * np.sin(s3)),
            "ellipse": self._ellipse_samples,
        }[case]()
        rate = np.cbrt(kappa)
        running = np.concatenate(([0.0], np.cumsum(np.diff(s) * (rate[1:] + rate[:-1]) / 2.0)))
        reference = cumulative_trapezoid(rate, s, initial=0.0)
        assert np.array_equal(running, reference)

        alpha, mu = affine.curvature_from_euclidean(s, kappa)
        ks, kss = derivatives(s, kappa)
        mu_nodes = (3.0 * kappa * (kss + 3.0 * kappa**3) - 5.0 * ks**2) / (9.0 * kappa ** (8.0 / 3.0))
        assert np.array_equal(alpha, np.linspace(0.0, reference[-1], s.size))
        assert np.array_equal(mu, PchipInterpolator(reference, mu_nodes)(alpha))

    def test_nonpositive_curvature_rejected(self):
        s = np.linspace(0.0, 1.0, 65)
        with pytest.raises(ValueError, match="positive"):
            affine.curvature_from_euclidean(s, np.linspace(-0.1, 1.0, 65))


class TestConics:
    def test_parabola(self):
        c = affine.conic(0.0, 2.0, 257)
        assert_allclose(c.points[:, 1], 0.5 * c.params**2, atol=1e-14)

    def test_canonical_initial_data(self):
        for mu in (-3.0, 0.0, 2.0):
            c = affine.conic(mu, 1.0, 4097)
            assert_allclose(c.points[0], [0.0, 0.0], atol=1e-15)
            d1 = np.gradient(c.points, c.params, axis=0, edge_order=2)
            d2 = np.gradient(d1, c.params, axis=0, edge_order=2)
            assert_allclose(d1[0], [1.0, 0.0], atol=1e-5)
            assert_allclose(d2[0], [0.0, 1.0], atol=1e-3)

    def test_ellipse_lies_on_conic(self):
        # mu > 0: points satisfy mu*x^2 + (mu*y - 1)^2 = 1
        c = affine.conic(2.0, 4.0, 513)
        x, y = c.points.T
        assert np.abs(2.0 * x**2 + (2.0 * y - 1.0) ** 2 - 1.0).max() < 1e-12

    def test_hyperbola_lies_on_conic(self):
        # mu < 0: points satisfy -mu*x^2 - (mu*y - 1)^2 = -1
        mu = -3.0
        c = affine.conic(mu, 2.0, 513)
        x, y = c.points.T
        assert np.abs(-mu * x**2 - (mu * y - 1.0) ** 2 + 1.0).max() < 1e-9

    def test_frames_are_unimodular_and_solve_ode(self):
        for mu in (-3.0, 0.0, 2.0):
            a = np.linspace(0.0, 2.0, 1025)
            f = affine.conic_frames(mu, a)
            det = f[:, 0, 0] * f[:, 1, 1] - f[:, 0, 1] * f[:, 1, 0]
            assert np.abs(det - 1.0).max() < 1e-12
            # normal row is the derivative of the tangent row
            dT = np.gradient(f[:, 0, :], a, axis=0, edge_order=2)
            assert np.abs(dT[2:-2] - f[2:-2, 1, :]).max() < 1e-4


class TestPicard:
    def test_zero_curvature_exact_after_two_sweeps(self):
        curve, res = affine.picard(const(0.0), 2.0, n_grid=257, iterations=2)
        expect = np.stack([np.ones_like(curve.params), curve.params], axis=1)
        assert_allclose(res.frames[:, 0, :], expect, atol=1e-15)
        assert np.abs(res.frames[:, 1, :] - np.array([0.0, 1.0])).max() <= 1e-15
        assert_allclose(curve.points, np.stack([curve.params, 0.5 * curve.params**2], axis=1), atol=1e-15)
        assert res.step_gaps[1] == 0.0  # nilpotent: stationary after the first sweep

    def test_matches_closed_form_ellipse(self):
        curve, res = affine.picard(const(2.0), 4.0, tol=1e-10)
        oracle = affine.conic(2.0, 4.0, len(curve))
        assert grid_distance(curve, oracle) < 1e-8

    def test_tail_bound_honest_against_closed_form(self):
        for n in range(16):
            curve, res = affine.picard(const(1.0), 1.0, n_grid=4097, iterations=n)
            exact = affine.conic_frames(1.0, curve.params)
            measured = np.abs(res.frames - exact).max()
            assert measured <= affine.picard_bounds(1.0, 1.0, n)["bound_tail"] + 1e-12

    def test_step_gaps_below_factorial_bound(self):
        _, res = affine.picard(const(1.0), 1.0, n_grid=513, iterations=12)
        for n, gap in enumerate(res.step_gaps, start=1):
            assert gap <= 1.0 / math.factorial(n) + 1e-12

    def test_unimodular_along_grid(self):
        _, res = affine.picard(parse_spec("mun:2/5"), 2.0, tol=1e-10)
        det = affine.frame_determinants(res.frames)
        assert np.abs(det - 1.0).max() <= 10.0 * res.tail_bound + 1e-10

    def test_equivariance(self):
        mu = const(2.0)
        base_curve, base_res = affine.picard(mu, 2.0, n_grid=2049, tol=1e-10)
        for _ in range(5):
            a = RNG.uniform(0.5, 2.0)
            b, c = RNG.uniform(-1.0, 1.0, 2)
            m = np.array([[a, b], [c, (1.0 + b * c) / a]])
            g = EquiAffineMap(m, RNG.uniform(-2, 2, 2))
            moved, moved_res = affine.picard(mu, 2.0, n_grid=2049, tol=1e-10, pose=g)
            tol = 10.0 * max(base_res.tail_bound, moved_res.tail_bound)
            assert np.abs(base_curve.transformed(g).points - moved.points).max() <= tol

    def test_iteration_cap_refusal_is_a_plain_value_error(self):
        with pytest.raises(ValueError, match=re.escape(
                "tail tolerance 1.0e-10 unreachable within 10000 iterations")) as exc:
            affine.picard(const(2500.0), 2.0, tol=1e-10)
        assert type(exc.value) is ValueError

    def test_non_unimodular_frame_rejected(self):
        with pytest.raises(ValueError, match="determinant 1"):
            affine.picard(const(1.0), 1.0, pose=EquiAffineMap(np.diag([2.0, 1.0]), np.zeros(2)))


def _planned_sweeps(mu, grid, iterations, A0=np.eye(2), origin=np.zeros(2)):
    """Frames, points and step gaps of every planned sweep, with no early exit.

    The sweep loop on C-ordered ``(n, 2, 2)`` frames, kept as the independent
    reference for ``picard``'s entry-major frames.
    """
    h = grid[1] - grid[0]
    mu_vals = np.asarray(mu(grid), dtype=float)
    frames = np.broadcast_to(A0, (grid.size, 2, 2)).copy()
    gaps = []
    for _ in range(iterations):
        ca = np.stack([frames[:, 1, :], -mu_vals[:, None] * frames[:, 0, :]], axis=1)
        new = A0[None, :, :] + affine.cumulative_simpson(ca, h)
        gaps.append(float(np.abs(new - frames).max()))
        frames = new
    return frames, origin + affine.cumulative_simpson(frames[:, 0, :], h), gaps


@pytest.fixture
def simpson_calls(monkeypatch):
    """One entry per call of ``affine.cumulative_simpson``: each sweep run, then the points."""
    calls = []
    simpson = affine.cumulative_simpson

    def counted(*args):
        calls.append(1)
        return simpson(*args)

    monkeypatch.setattr(affine, "cumulative_simpson", counted)
    return calls


SHEAR = EquiAffineMap(np.array([[1.0, 0.75], [0.0, 1.0]]), np.array([0.5, -2.0]))


class TestFixedPointExit:
    @pytest.mark.parametrize("spec, length, kwargs, fixed_at", [
        ("mun:2/5", 2.0, {"tol": 1e-10}, 32),  # 59 planned sweeps
        ("const:2", 2.0, {"tol": 1e-10}, None),  # 26 planned sweeps, every gap positive
        ("mun:2/5", 2.0, {"iterations": 0}, None),
        ("mun:3/5", 4.0, {"tol": 1e-10}, 59),  # 10,985 nodes, 218 planned sweeps
        ("monomial:1,2", 3.0, {"tol": 1e-10}, 35),  # 111 planned sweeps
        ("const:-3", 2.0, {"tol": 1e-10}, 29),  # hyperbola, 34 planned sweeps
        ("mun:2/5", 22.0, {"iterations": 200}, None),  # the README curve: gaps cycle at ulp level, never 0
        ("mun:2/5", 2.0, {"tol": 1e-10, "pose": SHEAR}, 32),
    ], ids=["mun-fixed-point", "const-no-fixed-point", "zero-sweeps", "mun35-L4", "monomial12-L3", "hyperbola",
            "readme-L22-cycle", "sheared-pose"])
    def test_bitwise_equal_to_every_planned_sweep(self, spec, length, kwargs, fixed_at):
        mu = parse_spec(spec)
        curve, res = affine.picard(mu, length, **kwargs)
        pose = kwargs.get("pose")
        start = () if pose is None else (pose.inverse().linear, pose.translation)
        frames, points, gaps = _planned_sweeps(mu, curve.params, res.iterations, *start)
        assert res.frames.tobytes() == frames.tobytes()
        assert curve.points.tobytes() == points.tobytes()
        assert res.step_gaps == tuple(gaps)
        assert len(gaps) == res.iterations
        if fixed_at is None:
            assert all(g > 0.0 for g in gaps)
        else:
            assert gaps[fixed_at - 2] > 0.0 and set(gaps[fixed_at - 1:]) == {0.0}
            assert fixed_at < res.iterations

    def test_sweeps_after_the_fixed_point_are_skipped(self, simpson_calls):
        _, res = affine.picard(parse_spec("mun:2/5"), 2.0, tol=1e-10)
        assert res.iterations == 59
        # the 32 sweeps up to the fixed point, then one integration for the points
        assert len(simpson_calls) == 32 + 1

    def test_frames_are_entry_major(self):
        # each entry's n values contiguous: the layout that makes a sweep run over rows of n, not of 4
        for kwargs in ({"tol": 1e-10}, {"iterations": 0}):
            _, res = affine.picard(parse_spec("mun:2/5"), 2.0, **kwargs)
            assert res.frames.transpose(1, 2, 0).flags.c_contiguous

    def test_non_finite_sample_between_probe_nodes_refused_before_any_sweep(self, simpson_calls):
        # a NaN spike at 0.50015 falls between the probe's nodes k/4096 but on the grid's node 10,003
        def mu(t):
            return np.where(np.abs(t - 0.50015) < 1e-6, np.nan, 1.0)

        with pytest.raises(ValueError, match=r"^curvature nan at parameter 0\.50015 past the domain start is not finite$"):
            affine.picard(mu, 1.0, n_grid=20001, iterations=3)
        assert simpson_calls == []


class TestPicardBounds:
    def test_zero_argument(self):
        b = affine.picard_bounds(1.0, 0.0, 3, a0_norm=2.0)
        assert b["bound_a"] == 2.0
        assert b["bound_step"] == 0.0 and b["bound_tail"] == 0.0

    def test_tail_value_frozen(self):
        # e * 1 / 11! computed independently
        expect = math.e / math.factorial(11)
        assert abs(affine.picard_bounds(1.0, 1.0, 10)["bound_tail"] - expect) < 1e-18
        assert 6.80e-08 < expect < 6.82e-08

    def test_partial_sum_below_exponential(self):
        for n in (0, 3, 10, 40):
            b = affine.picard_bounds(1.5, 2.0, n)
            assert b["bound_n"] <= b["bound_a"] + 1e-12

    def test_large_arguments_stay_finite_in_log_domain(self):
        b = affine.picard_bounds(50.0, 10.0, 20)
        assert math.isfinite(b["bound_step"])
        assert b["bound_tail"] > 0

    @pytest.mark.parametrize("c, alpha, n", [(1000.0, 10.0, 5), (2.0, 400.0, 3)])
    def test_overflowing_parts_are_inf(self, c, alpha, n):
        # e^(c alpha) is past double range; the partial sum and the step are not
        b = affine.picard_bounds(c, alpha, n)
        assert b["bound_a"] == math.inf and b["bound_tail"] == math.inf
        x = c * alpha
        assert b["bound_n"] == pytest.approx(math.fsum(x**i / math.factorial(i) for i in range(n + 1)))
        assert b["bound_step"] == pytest.approx(x**n / math.factorial(n))

    def test_overflowing_peak_is_inf(self):
        b = affine.picard_bounds(1000.0, 10.0, 5000)
        assert b == dict.fromkeys(("bound_n", "bound_a", "bound_step", "bound_tail"), math.inf)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            affine.picard_bounds(0.5, 1.0, 1)


class TestFrameDivergence:
    def test_identical_curvatures(self):
        assert affine.frame_divergence_bound(const(1.0), const(1.0), 1.0) == 0.0

    def test_constant_pair_against_closed_forms(self):
        bound = affine.frame_divergence_bound(const(1.0), const(1.01), 1.0)
        assert abs(bound - 0.01 * 1.0 * math.exp(1.01)) < 1e-12
        a = np.linspace(0.0, 1.0, 1025)
        gap = np.abs(affine.conic_frames(1.0, a) - affine.conic_frames(1.01, a)).max()
        assert gap <= bound

    def test_picard_pair_within_bound(self):
        mu1 = parse_spec("mun:2/5")
        mu2 = lambda t: mu1(t) + 0.01
        bound = affine.frame_divergence_bound(mu1, mu2, 2.0)
        _, r1 = affine.picard(mu1, 2.0, n_grid=2049, tol=1e-11)
        _, r2 = affine.picard(mu2, 2.0, n_grid=2049, tol=1e-11)
        gap = np.abs(r1.frames - r2.frames).max()
        assert gap <= bound + 10.0 * (r1.tail_bound + r2.tail_bound)


class TestBoundCheck:
    def test_identical(self):
        rep = affine.bound_check(const(2.0), const(2.0), 2.0)
        assert rep.delta == 0.0
        assert rep.measured <= rep.solver_floor
        assert rep.satisfied

    def test_nearby_constants(self):
        rep = affine.bound_check(const(2.0), const(2.05), 2.0)
        assert abs(rep.delta - 0.05) < 1e-12
        assert rep.c_hat == 2.05
        # acceptance pins the bound with c_hat rounded down to 2
        assert rep.measured <= math.sqrt(2.0) * (0.05 * 2.0 / 2.0) * (math.exp(4.0) - 1.0)
        assert rep.satisfied

    def test_bump_perturbed_family(self):
        mu1 = parse_spec("mun:3/5")
        from curverecon.curvatures import bump

        mu2 = lambda t: mu1(t) + 0.01 * bump(np.mod(np.asarray(t, dtype=float), 2.0))
        rep = affine.bound_check(mu1, mu2, 4.0)
        assert abs(rep.delta - 0.01) < 1e-6
        assert rep.satisfied

    def test_measured_equals_hausdorff_on_acceptance_pairs(self, monkeypatch):
        # c07 pairs: the curves stay in phase, so the pointwise sup on the
        # shared grid coincides with the polyline Hausdorff distance
        from curverecon.curvatures import bump

        rebuilt = []

        def recording(c1, c2):
            rebuilt.append((c1, c2))
            return grid_distance(c1, c2)

        monkeypatch.setattr(affine, "grid_distance", recording)
        mu1 = parse_spec("mun:3/5")
        mu2 = lambda t: mu1(t) + 0.01 * bump(np.mod(np.asarray(t, dtype=float), 2.0))
        for pair, length in (((parse_spec("const:2"), parse_spec("const:2.05")), 2.0), ((mu1, mu2), 4.0)):
            rep = affine.bound_check(*pair, length)
            c1, c2 = rebuilt.pop()
            assert abs(rep.measured - hausdorff_distance(c1, c2)) <= 1e-12

    def test_measured_is_pointwise_conic_gap(self):
        # the two ellipses drift out of phase: their Hausdorff distance is
        # only ~0.18, while the gap at equal affine arc length grows to 0.567
        # at alpha = L, a node of every grid on [0, L]
        rep = affine.bound_check(parse_spec("const:1"), parse_spec("const:1.1"), 10.0)
        gap = affine.conic(1.0, 10.0, 20001).points - affine.conic(1.1, 10.0, 20001).points
        exact = float(np.hypot(gap[:, 0], gap[:, 1]).max())
        assert abs(rep.measured - exact) <= 1e-8
        assert rep.satisfied
