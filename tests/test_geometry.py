import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from curverecon import affine
from curverecon.curvatures import parse_spec
from curverecon.geometry import (
    EquiAffineMap,
    RigidMotion,
    SampledCurve,
    grid_distance,
    hausdorff_distance,
    sup_norm,
)

RNG = np.random.default_rng(0)

finite_angles = st.floats(min_value=-10.0, max_value=10.0)
finite_coords = st.floats(min_value=-50.0, max_value=50.0)


def random_rigid(rng):
    return RigidMotion.from_angle(rng.uniform(-np.pi, np.pi), rng.uniform(-3, 3, 2))


def polyline(points):
    """The points as a curve on params 0, 1, 2, ..."""
    return SampledCurve(np.arange(len(points), dtype=float), points)


def random_equi_affine(rng):
    a = rng.uniform(0.5, 2.0)
    b, c = rng.uniform(-1.0, 1.0, 2)
    return EquiAffineMap(np.array([[a, b], [c, (1.0 + b * c) / a]]), rng.uniform(-3, 3, 2))


class TestGroupLaws:
    def test_quarter_turns_compose_to_half_turn(self):
        g = RigidMotion.from_angle(np.pi / 2)
        gg = g.compose(g)
        assert_allclose(gg.linear, RigidMotion.from_angle(np.pi).linear, atol=1e-15)
        assert_allclose(gg.translation, 0.0, atol=1e-15)

    def test_translations_add(self):
        g1 = RigidMotion(np.eye(2), (1.0, 2.0))
        g2 = RigidMotion(np.eye(2), (3.0, 4.0))
        assert_allclose(g1.compose(g2).translation, [4.0, 6.0])

    def test_inverse_composes_to_identity(self):
        pts = RNG.uniform(-5, 5, (10, 2))
        for _ in range(20):
            g = random_rigid(RNG)
            assert_allclose(g.compose(g.inverse()).apply(pts), pts, atol=1e-12)
            h = random_equi_affine(RNG)
            assert_allclose(h.compose(h.inverse()).apply(pts), pts, atol=1e-12)

    def test_associativity_on_points(self):
        pts = RNG.uniform(-5, 5, (10, 2))
        for _ in range(10):
            g1, g2, g3 = (random_equi_affine(RNG) for _ in range(3))
            left = g1.compose(g2).compose(g3).apply(pts)
            right = g1.compose(g2.compose(g3)).apply(pts)
            assert np.abs(left - right).max() < 1e-12

    def test_composition_matches_sequential_application(self):
        pts = RNG.uniform(-5, 5, (10, 2))
        for _ in range(10):
            g1, g2 = random_rigid(RNG), random_rigid(RNG)
            assert_allclose(g1.compose(g2).apply(pts), g1.apply(g2.apply(pts)), atol=1e-12)

    def test_rigid_motion_is_an_equi_affine_map(self):
        g = random_rigid(np.random.default_rng(1))
        assert isinstance(g, EquiAffineMap)

    def test_only_rigid_products_stay_rigid(self):
        rng = np.random.default_rng(2)  # own stream: the module RNG feeds later tests
        pts = rng.uniform(-5, 5, (10, 2))
        for _ in range(10):
            g1, g2, h = random_rigid(rng), random_rigid(rng), random_equi_affine(rng)
            assert type(g1.compose(g2)) is RigidMotion
            assert type(g1.inverse()) is RigidMotion
            assert type(h.inverse()) is EquiAffineMap
            for a, b in ((g1, h), (h, g1)):
                ab = a.compose(b)
                assert type(ab) is EquiAffineMap
                assert_allclose(ab.apply(pts), a.apply(b.apply(pts)), atol=1e-12)


class TestActions:
    def test_quarter_turn_moves_e1_to_e2(self):
        g = RigidMotion.from_angle(np.pi / 2)
        assert_allclose(g.apply(np.array([1.0, 0.0])), [0.0, 1.0], atol=1e-15)

    def test_identity_fixes_points(self):
        p = np.array([2.5, -1.25])
        assert_allclose(RigidMotion(np.eye(2), np.zeros(2)).apply(p), p)
        assert_allclose(EquiAffineMap(np.eye(2), np.zeros(2)).apply(p), p)

    def test_diagonal_stretch_with_translation(self):
        # (1,1) @ inv([[2,0],[0,1/2]]) + (1,1) = (0.5, 2) + (1,1) = (1.5, 3)
        g = EquiAffineMap(np.array([[2.0, 0.0], [0.0, 0.5]]), (1.0, 1.0))
        assert_allclose(g.apply(np.array([1.0, 1.0])), [1.5, 3.0])

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            EquiAffineMap(np.array([[2.0, 0.0], [0.0, 1.0]]), (0.0, 0.0))
        with pytest.raises(ValueError):
            RigidMotion(np.array([[1.0, 0.1], [0.0, 1.0]]), (0.0, 0.0))


def shear_product(t):
    """[[1, t], [0, 1]] @ [[1, 0], [t, 1]] = [[1 + t^2, t], [t, 1]]: unimodular, and a d - b c is exactly 1."""
    return np.array([[1.0, t], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [t, 1.0]])


@pytest.mark.parametrize("t", [1e3, 12345.678, 1e5])
class TestUnimodularWithLargeEntries:
    """np.linalg.det of the shear product misses 1 by 2.3e-8 at t = 12345.678, far above a fixed 1e-9."""

    def test_accepted(self, t):
        m = shear_product(t)
        assert_allclose(EquiAffineMap(m, (0.5, -1.0)).linear, m, rtol=0, atol=0)

    def test_inverse(self, t):
        g = EquiAffineMap(shear_product(t), (0.5, -1.0))
        inverse = g.inverse()
        assert_allclose(inverse.linear, [[1.0, -t], [-t, 1.0 + t * t]], rtol=0, atol=0)
        assert_allclose(inverse.inverse().linear, g.linear, rtol=0, atol=0)
        assert_allclose(inverse.apply(g.translation), [0.0, 0.0], atol=0)

    def test_picard_pose(self, t):
        g = EquiAffineMap(shear_product(t), (0.5, -1.0))
        curve, result = affine.picard(parse_spec("const:1"), 1.0, pose=g)
        canonical, _ = affine.picard(parse_spec("const:1"), 1.0)
        assert_allclose(result.frames[0], g.inverse().linear, rtol=0, atol=0)
        assert_allclose(curve.points[0], g.translation, rtol=0, atol=0)
        assert np.abs(curve.points - g.apply(canonical.points)).max() <= 1e-14 * t * t


class TestNorms:
    def test_max_norm_examples(self):
        assert sup_norm(np.array([[1.0, -2.0], [0.5, 0.0]])) == 2.0
        assert sup_norm(np.zeros((2, 2))) == 0.0

    def test_sup_norm_of_sine_grid(self):
        t = np.linspace(0.0, 2.0 * np.pi, 4097)
        assert abs(sup_norm(np.sin(t)) - 1.0) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sup_norm(np.array([]))

    @settings(max_examples=200, deadline=None)
    @given(finite_coords, finite_coords)
    def test_euclidean_norm_vs_max_component(self, x, y):
        v = np.array([x, y])
        assert np.hypot(x, y) <= math.sqrt(2.0) * max(abs(x), abs(y)) + 1e-12


class TestHausdorff:
    def test_identical_curves(self):
        t = np.linspace(0, 1, 50)
        pts = np.stack([t, t**2], axis=1)
        assert hausdorff_distance(polyline(pts), polyline(pts.copy())) == 0.0

    def test_translated_circle(self):
        th = np.linspace(0, 2 * np.pi, 1025)
        c1 = np.stack([np.cos(th), np.sin(th)], axis=1)
        c2 = c1 + np.array([0.1, 0.0])
        d = hausdorff_distance(polyline(c1), polyline(c2))
        assert abs(d - 0.1) < 1e-4
        # brute-force point-to-point oracle is an upper bound of the
        # segment-based value and converges to the same limit
        from scipy.spatial.distance import cdist

        dd = cdist(c1, c2)
        brute = max(dd.min(axis=0).max(), dd.min(axis=1).max())
        assert d <= brute + 1e-12
        assert abs(brute - 0.1) < 1e-4

    def test_symmetry_and_triangle_inequality(self):
        for _ in range(10):
            a, b, c = (polyline(RNG.uniform(-2, 2, (30, 2))) for _ in range(3))
            dab, dba = hausdorff_distance(a, b), hausdorff_distance(b, a)
            assert abs(dab - dba) < 1e-12
            assert hausdorff_distance(a, c) <= dab + hausdorff_distance(b, c) + 1e-12

    def test_rigid_motion_invariance(self):
        for _ in range(10):
            a, b = polyline(RNG.uniform(-2, 2, (40, 2))), polyline(RNG.uniform(-2, 2, (40, 2)))
            g = random_rigid(RNG)
            d0 = hausdorff_distance(a, b)
            d1 = hausdorff_distance(a.transformed(g), b.transformed(g))
            assert abs(d0 - d1) < 1e-9

    def test_component_sup_bound_on_common_grid(self):
        # d(P, Q) <= sqrt(2) * sup over the grid of the max component gap
        t = np.linspace(0, 1, 64)
        for _ in range(10):
            p = np.stack([t, RNG.uniform(-1, 1) * t**2 + RNG.uniform(-1, 1)], axis=1)
            q = p + RNG.uniform(-0.3, 0.3, p.shape)
            bound = math.sqrt(2.0) * np.abs(p - q).max()
            assert hausdorff_distance(polyline(p), polyline(q)) <= bound + 1e-12


class TestGridDistance:
    def test_known_gap(self):
        t = np.linspace(0, 1, 11)
        c1 = SampledCurve(t, np.stack([t, t**2], axis=1))
        shift = np.zeros_like(c1.points)
        shift[7] = (3.0, 4.0)
        assert grid_distance(c1, SampledCurve(t, c1.points + shift)) == 5.0
        assert grid_distance(c1, c1) == 0.0

    def test_mismatched_grids_rejected(self):
        def line(t):
            return SampledCurve(t, np.stack([t, t], axis=1))

        base = line(np.linspace(0, 1, 11))
        for other in (line(np.linspace(0, 1, 12)), line(np.linspace(0, 2, 11))):
            with pytest.raises(ValueError, match="same parameter grid"):
                grid_distance(base, other)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=30).flatmap(
        lambda n: st.tuples(arrays(float, (n, 2), elements=finite_coords),
                            arrays(float, (n, 2), elements=finite_coords))))
    def test_never_below_hausdorff(self, pair):
        p, q = pair
        t = np.arange(p.shape[0], dtype=float)
        c1, c2 = SampledCurve(t, p), SampledCurve(t, q)
        assert grid_distance(c1, c2) >= hausdorff_distance(c1, c2) - 1e-12


class TestSampledCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledCurve([0.0, 0.0], [[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            SampledCurve([0.0, 1.0], [[0, 0]])
        with pytest.raises(ValueError):
            SampledCurve([0.0], [[0, 0]])

    def test_span_and_gap(self):
        c = SampledCurve([0.0, 1.0, 3.0], [[0, 0], [1, 0], [3, 4]])
        assert c.span == 3.0
        assert c.endpoint_gap == 5.0
