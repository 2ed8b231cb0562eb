import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from curverecon import euclidean
from curverecon.curvatures import parse_spec
from curverecon.geometry import RigidMotion, SampledCurve, grid_distance, hausdorff_distance

PI = math.pi
RNG = np.random.default_rng(3)


class TestReconstruct:
    def test_zero_curvature_gives_segment(self):
        c = euclidean.reconstruct(parse_spec("const:0"), 1.0, 101)
        assert_allclose(c.points[0], [0.0, 0.0])
        assert_allclose(c.points[-1], [1.0, 0.0], atol=1e-14)
        assert np.abs(c.points[:, 1]).max() < 1e-14

    def test_unit_circle_closes(self):
        c = euclidean.reconstruct(parse_spec("const:1"), 2 * PI, 4096)
        assert c.endpoint_gap <= 1e-8

    def test_unit_speed(self):
        c = euclidean.reconstruct(parse_spec("sinusoid:1,1,1/3"), 2 * PI, 4097)
        speed = np.linalg.norm(np.gradient(c.points, c.params, axis=0), axis=1)
        assert np.abs(speed - 1.0).max() < 1e-4

    def test_pose_sets_start_point_and_heading(self):
        g = RigidMotion.from_angle(PI / 2, (2.0, 3.0))
        c = euclidean.reconstruct(parse_spec("const:0"), 1.0, 101, pose=g)
        assert_allclose(c.points[0], [2.0, 3.0])
        assert_allclose(c.points[-1], [2.0, 4.0], atol=1e-14)

    def test_rigid_equivariance(self):
        kappa = parse_spec("sinusoid:1,1,1/3")
        base = euclidean.reconstruct(kappa, 2 * PI, 1025)
        for _ in range(5):
            ang = RNG.uniform(-PI, PI)
            g = RigidMotion.from_angle(ang, RNG.uniform(-2, 2, 2))
            via_pose = euclidean.reconstruct(kappa, 2 * PI, 1025, pose=g)
            assert np.abs(base.transformed(g).points - via_pose.points).max() < 1e-9


class TestCurvature:
    def test_circle_radius_two(self):
        t = np.linspace(0.0, 4 * PI, 2048)  # arc length on radius 2
        curve = SampledCurve(t, np.stack([2 * np.cos(t / 2), 2 * np.sin(t / 2)], axis=1))
        _, k = euclidean.curvature(curve)
        assert np.abs(k - 0.5).max() < 1e-4

    def test_straight_line(self):
        t = np.linspace(0.0, 5.0, 256)
        _, k = euclidean.curvature(SampledCurve(t, np.stack([t, np.zeros_like(t)], axis=1)))
        assert np.abs(k).max() < 1e-12

    def test_clockwise_circle_is_negative(self):
        t = np.linspace(0.0, 2 * PI, 2048)
        curve = SampledCurve(t, np.stack([np.cos(-t), np.sin(-t)], axis=1))
        _, k = euclidean.curvature(curve)
        assert np.abs(k + 1.0).max() < 1e-4

    def test_circle_on_non_uniform_parameters(self):
        u = np.linspace(0.0, 1.0, 2049)
        t = 2 * PI * u + 0.3 * np.sin(2 * PI * u)
        _, k = euclidean.curvature(SampledCurve(t, np.stack([np.cos(t), np.sin(t)], axis=1)))
        assert np.abs(k - 1.0).max() < 1e-4

    def test_round_trip_against_spec(self):
        spec = parse_spec("sinusoid:1,0,0")
        c = euclidean.reconstruct(spec, 2 * PI, 4097)
        s, k = euclidean.curvature(c)
        assert np.abs(k - spec(s)).max() <= 1e-3


class TestRationalize:
    def test_exact_values(self):
        assert euclidean.rationalize(0.0) == Fraction(0, 1)
        assert euclidean.rationalize(0.5) == Fraction(1, 2)
        assert euclidean.rationalize(-0.6) == Fraction(-3, 5)

    def test_noisy_third(self):
        assert euclidean.rationalize(1.0 / 3.0 + 1e-12) == Fraction(1, 3)

    def test_prefers_smallest_denominator(self):
        assert euclidean.rationalize(1.0 / 3.0 + 1e-9) == Fraction(1, 3)

    def test_out_of_reach(self):
        # within the denominator cap nothing approximates this to 1e-8
        assert euclidean.rationalize(1.0 / 3.0 + 1e-7) is None


@pytest.fixture
def threefold_table(tmp_path):
    """``sinusoid:1,1,1/3`` tabulated at 2001 rows over one period, read back as a periodic table."""
    from curverecon.curveio import write_table_csv

    g = np.linspace(0.0, 2 * PI, 2001)
    write_table_csv(g, parse_spec("sinusoid:1,1,1/3")(g), tmp_path / "k.csv")
    return parse_spec(f"table:{tmp_path / 'k.csv'},periodic")


@pytest.fixture
def scipy_calls():
    """Modules of the scipy functions, Python or compiled, called while the test runs."""
    calls = []

    def record(frame, event, arg):
        module = frame.f_globals.get("__name__", "") if event == "call" else getattr(arg, "__module__", None)
        if event in ("call", "c_call") and isinstance(module, str) and module.startswith("scipy"):
            calls.append(module)

    sys.setprofile(record)
    yield calls
    sys.setprofile(None)


class TestClassify:
    def test_threefold_sinusoid(self):
        rep = euclidean.classify_closure(parse_spec("sinusoid:1,1,1/3"), period=2 * PI)
        assert rep.ratio == Fraction(1, 3)
        assert rep.predicted_closed and rep.symmetry_index == 3 and rep.turning_number == 1
        assert abs(rep.minimal_period - 6 * PI) < 1e-9

    def test_integer_mean_not_covered(self):
        rep = euclidean.classify_closure(parse_spec("sinusoid:1,1,1"), period=2 * PI)
        assert rep.ratio == Fraction(1, 1)
        assert not rep.predicted_closed

    def test_fractional_bump_family(self):
        rep = euclidean.classify_closure(parse_spec("kn:5/3"), period=2 * PI)
        assert rep.ratio == Fraction(3, 5)
        assert rep.turning_number == 3 and rep.symmetry_index == 5
        assert abs(rep.minimal_period - 10 * PI) < 1e-9

    def test_negative_family(self):
        rep = euclidean.classify_closure(parse_spec("kn:-5/3"), period=2 * PI)
        assert rep.ratio == Fraction(-3, 5)
        assert rep.turning_number == -3 and rep.symmetry_index == 5

    def test_zero_constant(self):
        rep = euclidean.classify_closure(parse_spec("const:0"), period=1.0)
        assert rep.ratio == Fraction(0, 1)
        assert not rep.predicted_closed

    def test_table_at_its_span_takes_the_trapezoid_hook(self, threefold_table):
        assert threefold_table.turning_ratio(2 * PI) is not None
        rep = euclidean.classify_closure(threefold_table, period=2 * PI)
        assert rep.ratio == Fraction(1, 3)

    def test_table_within_1e8_of_its_span_takes_the_hook(self, threefold_table):
        # one natural-period rule for every spec: a period within 1e-8 of the span takes the hook
        period = 2 * PI * (1 + 5e-9)
        assert threefold_table.turning_ratio(period) is not None
        assert euclidean.classify_closure(threefold_table, period).ratio == Fraction(1, 3)

    # no hook at these periods, so the ratio is the composite Simpson sum of the probe's samples
    @pytest.mark.parametrize("spec, period, ratio", [
        ("sinusoid:1,1,1/3", 10 * PI, Fraction(5, 3)),
        ("<table>", 4 * PI, Fraction(2, 3)),
        ("kn:5/3", 100 * PI, Fraction(30)),
        ("kn:10", 100 * PI, Fraction(5)),
        ("monomial:1,1", 5e-324, Fraction(0)),  # a step that would round to 0
    ], ids=["sinusoid-5-periods", "table-2-spans", "kn5/3-50-periods", "kn10-50-periods", "subnormal-period"])
    def test_quadrature_fallback(self, threefold_table, scipy_calls, spec, period, ratio):
        kappa = threefold_table if spec == "<table>" else parse_spec(spec)
        assert kappa.turning_ratio(period) is None
        assert euclidean.classify_closure(kappa, period).ratio == ratio
        assert scipy_calls == []


class TestTurningNumber:
    def test_unit_circle(self):
        c = euclidean.reconstruct(parse_spec("const:1"), 2 * PI, 2049)
        assert euclidean.turning_number(c) == 1

    def test_clockwise_circle(self):
        c = euclidean.reconstruct(parse_spec("const:-1"), 2 * PI, 2049)
        assert euclidean.turning_number(c) == -1

    def test_bump_family_three_over_five(self):
        c = euclidean.reconstruct(parse_spec("kn:3/5"), 6 * PI, 12289)
        assert euclidean.turning_number(c) == 5

    def test_open_curve_rejected(self):
        c = euclidean.reconstruct(parse_spec("const:0"), 1.0, 101)
        with pytest.raises(ValueError, match=re.escape("endpoint gap 1.000e+00 exceeds tolerance 1.0e-03")):
            euclidean.turning_number(c)


class TestBoundCheck:
    def test_identical_specs(self):
        spec = parse_spec("sinusoid:1,0,0")
        rep = euclidean.bound_check(spec, spec, 2 * PI)
        assert rep.delta == 0.0
        assert rep.measured <= 1e-9
        assert rep.satisfied

    def test_constant_shift(self):
        sin = parse_spec("sinusoid:1,0,0")
        shifted = parse_spec("sinusoid:1,0,0.01")
        rep = euclidean.bound_check(sin, shifted, 2 * PI, norm="linf")
        assert abs(rep.delta - 0.01) < 1e-12
        certified = 0.01 * (2 * PI) ** 2 / 2.0
        assert abs(rep.bound - certified) < 1e-9
        assert rep.measured <= certified

    def test_bump_perturbation(self):
        rep = euclidean.bound_check(parse_spec("sinusoid:1,0,0"), parse_spec("kn:40"), 2 * PI)
        assert rep.delta <= 2 * PI / 40 + 1e-12
        assert rep.satisfied

    def test_l1_norm_route(self):
        rep = euclidean.bound_check(parse_spec("sinusoid:1,0,0"), parse_spec("kn:40"), 2 * PI, norm="l1")
        # integral of the bump perturbation is exactly 2*pi/40
        assert abs(rep.delta - 2 * PI / 40) < 1e-6
        assert abs(rep.bound - rep.delta * 2 * PI) < 1e-12
        assert rep.satisfied

    @pytest.mark.parametrize("norm", ["linf", "l1"])
    def test_measured_equals_hausdorff_on_acceptance_pairs(self, norm, monkeypatch):
        # c03 / c04 pairs: the curves stay in phase, so the pointwise sup on
        # the shared grid coincides with the polyline Hausdorff distance
        rebuilt = []

        def recording(c1, c2):
            rebuilt.append((c1, c2))
            return grid_distance(c1, c2)

        monkeypatch.setattr(euclidean, "grid_distance", recording)
        sin = parse_spec("sinusoid:1,0,0")
        for n in (10, 20, 40):
            rep = euclidean.bound_check(sin, parse_spec(f"kn:{n}"), 2 * PI, norm=norm)
            c1, c2 = rebuilt.pop()
            assert abs(rep.measured - hausdorff_distance(c1, c2)) <= 1e-12


    @pytest.mark.parametrize("specs", [("sinusoid:1,0,0", "kn:40"), ("const:2", "sinusoid:1,1,1/3")])
    def test_curves_equal_reconstruct(self, monkeypatch, specs):
        # the report integrates its own samples, so its curves must stay those of the public entry
        rebuilt = []

        def recording(c1, c2):
            rebuilt.append((c1, c2))
            return grid_distance(c1, c2)

        monkeypatch.setattr(euclidean, "grid_distance", recording)
        kappas = [parse_spec(s) for s in specs]
        euclidean.bound_check(*kappas, 2 * PI)
        for kappa, got in zip(kappas, rebuilt.pop()):
            want = euclidean.reconstruct(kappa, 2 * PI, len(got))
            assert got.params.tobytes() == want.params.tobytes()
            assert got.points.tobytes() == want.points.tobytes()

    @pytest.mark.parametrize("norm", ["linf", "l1"])
    def test_samples_each_curvature_on_the_probe_and_the_grid(self, counting, norm):
        k1, k2 = counting(parse_spec("sinusoid:1,0,0")), counting(parse_spec("kn:40"))
        euclidean.bound_check(k1, k2, 2 * PI, norm=norm)
        # the probe, then the default grid's floor of 1025 nodes
        assert k1.sizes == k2.sizes == [4097, 1025]


class TestSampleCap:
    def test_cap_admits_a_million_samples(self):
        assert euclidean.SAMPLE_CAP >= 1_000_001

    @pytest.mark.parametrize("sup", [math.inf, math.nan, 1e300])
    def test_default_count_refused(self, sup):
        with pytest.raises(ValueError, match="samples"):
            euclidean.default_sample_count(10.0, sup)

    def test_explicit_count_refused(self, monkeypatch):
        monkeypatch.setattr(euclidean, "SAMPLE_CAP", 1025)
        one = parse_spec("const:1")
        assert len(euclidean.reconstruct(one, 1.0, 1025)) == 1025
        with pytest.raises(ValueError, match="cap"):
            euclidean.reconstruct(one, 1.0, 1027)


def test_reconstruction_peak_memory_is_at_most_seven_and_a_half_doubles_per_node():
    # s, kappa, two entry-major direction rows, two point columns and one Simpson scratch array (7.0);
    # a full-size temporary in either Simpson pass or in the direction array pushes it to 8 or more
    n = 200_001
    kappa = parse_spec("sinusoid:1,1,1/3")
    tracemalloc.start()
    try:
        euclidean.reconstruct(kappa, 6 * PI, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 8 * n


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_chord_not_longer_than_arc(t1, t2):
    chord = abs(complex(math.cos(t1), math.sin(t1)) - complex(math.cos(t2), math.sin(t2)))
    assert chord <= abs(t1 - t2) + 1e-12


def test_closure_gap_over_minimal_period():
    for text in ("kn:7/2", "kn:10"):
        spec = parse_spec(text)
        rep = euclidean.classify_closure(spec, period=2 * PI)
        n = 4096 * rep.symmetry_index + 1
        c = euclidean.reconstruct(spec, rep.minimal_period, n)
        assert c.endpoint_gap <= 1e-5
