import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curverecon import affine
from curverecon.curvatures import parse_spec
from curverecon.geometry import EquiAffineMap, grid_distance, hausdorff_distance
from curverecon.quadrature import cumulative_simpson

PI = math.pi
RNG = np.random.default_rng(11)


def const(v):
    return lambda t: np.full_like(np.asarray(t, dtype=float), v)


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
            assert res.tail_bound == pytest.approx(math.e / math.factorial(n + 1), rel=1e-15)
            assert measured <= res.tail_bound + 1e-12

    def test_step_gaps_below_factorial_bound(self):
        _, res = affine.picard(const(1.0), 1.0, n_grid=513, iterations=12)
        for n, gap in enumerate(res.step_gaps, start=1):
            assert gap <= 1.0 / math.factorial(n) + 1e-12

    def test_unimodular_along_grid(self):
        _, res = affine.picard(parse_spec("mun:2/5"), 2.0, tol=1e-10)
        det = np.linalg.det(res.frames)
        assert np.abs(det - 1.0).max() <= 1e-10

    def test_equivariance(self):
        mu = const(2.0)
        base_curve, _ = affine.picard(mu, 2.0, n_grid=2049)
        for _ in range(5):
            a = RNG.uniform(0.5, 2.0)
            b, c = RNG.uniform(-1.0, 1.0, 2)
            m = np.array([[a, b], [c, (1.0 + b * c) / a]])
            g = EquiAffineMap(m, RNG.uniform(-2, 2, 2))
            moved, _ = affine.picard(mu, 2.0, n_grid=2049, pose=g)
            # a direct solve has no truncation, so only round-off separates the two curves
            assert np.abs(base_curve.transformed(g).points - moved.points).max() <= 1e-12

    def test_iteration_cap_refusal_is_a_plain_value_error(self):
        with pytest.raises(ValueError, match=re.escape("10001 sweeps exceed the cap of 10000")) as exc:
            affine.picard(const(2500.0), 2.0, iterations=10_001)
        assert type(exc.value) is ValueError

    def test_iterations_with_tol_is_refused(self, simpson_calls):
        # a tol run solves for the fixed point, so a sweep count beside it would certify sweeps that never ran
        with pytest.raises(ValueError, match="^iterations and tol exclude each other$") as exc:
            affine.picard(const(1.0), 1.0, iterations=3, tol=1e-10)
        assert type(exc.value) is ValueError
        assert simpson_calls == []

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
    # a given n_grid is the grid that tol=1e-10 sizes for the same curvature and length
    @pytest.mark.parametrize("spec, length, kwargs, fixed_at", [
        ("mun:2/5", 2.0, {"n_grid": 3773, "iterations": 59}, 32),
        ("const:2", 2.0, {"n_grid": 2831, "iterations": 26}, None),  # every gap positive
        ("mun:2/5", 2.0, {"iterations": 0}, None),
        ("mun:3/5", 4.0, {"n_grid": 10985, "iterations": 218}, 59),
        ("monomial:1,2", 3.0, {"n_grid": 6841, "iterations": 111}, 35),
        ("const:-3", 2.0, {"n_grid": 3133, "iterations": 34}, 29),  # hyperbola
        ("mun:2/5", 22.0, {"iterations": 200}, None),  # the README curve: gaps cycle at ulp level, never 0
        ("mun:2/5", 2.0, {"n_grid": 3773, "iterations": 59, "pose": SHEAR}, 32),
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

    def test_simpson_calls_per_path(self, simpson_calls):
        # a direct solve integrates once, for the points; a sweeps-only run once per sweep and once more
        _, res = affine.picard(parse_spec("mun:2/5"), 2.0, tol=1e-10)
        assert (res.iterations, len(simpson_calls)) == (0, 1)
        simpson_calls.clear()
        affine.picard(parse_spec("mun:2/5"), 2.0, n_grid=3773, iterations=59)
        assert len(simpson_calls) == 59 + 1

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


class TestDirectSolve:
    # each sweep count takes the sweeps to within 1e-10 of their fixed point, by the a-priori tail bound
    @pytest.mark.parametrize("spec, length, sweeps, pose", [
        ("mun:2/5", 2.0, 59, None),
        ("const:2", 2.0, 26, None),
        ("mun:3/5", 4.0, 218, None),
        ("monomial:1,2", 3.0, 111, None),
        ("const:-3", 2.0, 34, None),
        ("mun:2/5", 2.0, 59, SHEAR),
    ], ids=["mun", "const", "mun35-L4", "monomial12-L3", "hyperbola", "sheared-pose"])
    def test_returns_the_fixed_point_of_the_sweeps(self, spec, length, sweeps, pose):
        mu = parse_spec(spec)
        curve, res = affine.picard(mu, length, tol=1e-10, pose=pose)
        A0, origin = (np.eye(2), np.zeros(2)) if pose is None else (pose.inverse().linear, pose.translation)
        grid = curve.params
        h = grid[1] - grid[0]
        ca = np.stack([res.frames[:, 1, :], -mu(grid)[:, None] * res.frames[:, 0, :]], axis=1)
        assert np.abs(A0 + cumulative_simpson(ca, h) - res.frames).max() <= 1e-11
        frames, points, _ = _planned_sweeps(mu, grid, sweeps, A0, origin)
        assert np.abs(res.frames - frames).max() <= 1e-11
        assert np.abs(curve.points - points).max() <= 1e-11
        assert np.abs(np.linalg.det(res.frames) - 1.0).max() <= 1e-11
        assert res.frames.transpose(1, 2, 0).flags.c_contiguous
        assert (res.iterations, res.tail_bound, res.step_gaps) == (0, 0.0, ())

    def test_non_finite_sample_between_probe_nodes_refused_before_any_integration(self, simpson_calls):
        # the spike of the sweep-path test above, on the direct path
        def mu(t):
            return np.where(np.abs(t - 0.50015) < 1e-6, np.nan, 1.0)

        with pytest.raises(ValueError, match=r"^curvature nan at parameter 0\.50015 past the domain start is not finite$"):
            affine.picard(mu, 1.0, n_grid=20001)
        assert simpson_calls == []

    @pytest.mark.parametrize("spec, s", [("sinusoid:9,0,0", "8.99991"), ("sinusoid:50,0,0", "49.9995")])
    def test_grid_where_the_sweeps_diverge_is_refused(self, simpson_calls, spec, s):
        # h = 1 on [0, 16]; the node t = 11 has |sin t| = 0.99999
        with pytest.raises(ValueError, match=re.escape(f"h^2 max|mu| = {s} on 17 nodes is at least 1.8541,")):
            affine.picard(parse_spec(spec), 16.0, n_grid=17)
        assert simpson_calls == []

    def test_past_the_sweep_caps_matches_the_conic(self):
        # 186,701 nodes; the 5,400 sweeps whose tail bound is below 1e-10 would exceed the work cap
        curve, res = affine.picard(const(50.0), 30.0)
        assert res.grid_size == 186_701
        assert grid_distance(curve, affine.conic(50.0, 30.0, len(curve))) <= 1e-11

    def test_long_oscillating_domain_runs_on_the_capped_grid(self):
        # 3,558 sweeps with tail bound below 1e-10 on this grid would exceed the work cap
        curve, res = affine.picard(parse_spec("mun:1/2"), 100.0)
        assert res.grid_size == 300_001
        assert np.isfinite(curve.points).all()
        assert np.abs(np.linalg.det(res.frames) - 1.0).max() <= 1e-10

    def test_grid_just_below_the_limit_matches_converged_sweeps(self):
        # h^2 max|mu| = 1.85398, under (3 sqrt 5 - 3) / 2 = 1.85410
        mu = parse_spec("sinusoid:1.854,0,0")
        curve, _ = affine.picard(mu, 16.0, n_grid=17)
        swept, _ = affine.picard(mu, 16.0, n_grid=17, iterations=1000)
        assert np.abs(curve.points - swept.points).max() <= 1e-9 * np.abs(swept.points).max()


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

    @pytest.mark.parametrize("specs, length", [
        (("const:2", "const:2.05"), 2.0),
        (("mun:3/5", "mun:2/5"), 4.0),
        (("const:-3", "monomial:1,2"), 1.5),
    ])
    def test_curves_equal_the_direct_solves_of_picard(self, monkeypatch, specs, length):
        # the report solves on its own samples, so its curves must stay those of the public entry
        rebuilt = []

        def recording(c1, c2):
            rebuilt.append((c1, c2))
            return grid_distance(c1, c2)

        monkeypatch.setattr(affine, "grid_distance", recording)
        mus = [parse_spec(s) for s in specs]
        affine.bound_check(*mus, length)
        for mu, got in zip(mus, rebuilt.pop()):
            want, _ = affine.picard(mu, length, n_grid=len(got))
            assert got.params.tobytes() == want.params.tobytes()
            assert got.points.tobytes() == want.points.tobytes()

    def test_samples_each_curvature_on_the_probe_and_the_grid(self, monkeypatch, counting):
        plans = []
        plan = affine._plan

        def recording(*args, **kwargs):
            plans.append(plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(affine, "_plan", recording)
        mu1, mu2 = counting(parse_spec("mun:3/5")), counting(parse_spec("const:2"))
        affine.bound_check(mu1, mu2, 4.0)
        assert len(plans) == 1
        assert mu1.sizes == mu2.sizes == [4097, plans[0]]

    def test_measured_is_pointwise_conic_gap(self):
        # the two ellipses drift out of phase: their Hausdorff distance is
        # only ~0.18, while the gap at equal affine arc length grows to 0.567
        # at alpha = L, a node of every grid on [0, L]
        rep = affine.bound_check(parse_spec("const:1"), parse_spec("const:1.1"), 10.0)
        gap = affine.conic(1.0, 10.0, 20001).points - affine.conic(1.1, 10.0, 20001).points
        exact = float(np.hypot(gap[:, 0], gap[:, 1]).max())
        assert abs(rep.measured - exact) <= 1e-8
        assert rep.satisfied
