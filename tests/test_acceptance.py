"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py``; a one-line PASS/FAIL summary
per criterion is printed at the end of the session (see conftest.py).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from curverecon import affine, euclidean, series
from curverecon.curvatures import bump, parse_spec
from curverecon.geometry import EquiAffineMap, RigidMotion, grid_distance

PI = math.pi
REPO = Path(__file__).resolve().parents[1]


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.budget, f"runtime {self.elapsed:.2f}s over budget {self.budget}s"
        return False


def test_c01_circle_round_trip():
    with Stopwatch(1.0):
        curve = euclidean.reconstruct(parse_spec("const:1"), 2 * PI, 4096)
        assert curve.endpoint_gap <= 1e-8
        _, kappa = euclidean.curvature(curve)
        assert np.abs(kappa - 1.0).max() <= 1e-4
        speed = np.linalg.norm(np.gradient(curve.points, curve.params, axis=0), axis=1)
        assert np.abs(speed - 1.0).max() <= 1e-4


def test_c02_closedness_suite():
    with Stopwatch(5.0):
        k1 = parse_spec("sinusoid:1,1,1/3")
        c1 = euclidean.reconstruct(k1, 6 * PI, 3 * 4096 + 1)
        assert c1.endpoint_gap <= 1e-5
        rep1 = euclidean.classify_closure(k1, period=2 * PI)
        assert rep1.symmetry_index == 3
        assert euclidean.turning_number(c1) == 1

        k2 = parse_spec("sinusoid:1,1,1")
        c2 = euclidean.reconstruct(k2, 6 * PI, 3 * 4096 + 1)
        assert c2.endpoint_gap > 0.1

        kf = parse_spec("kn:5/3")
        cf = euclidean.reconstruct(kf, 10 * PI, 5 * 4096 + 1)
        assert cf.endpoint_gap <= 1e-5
        repf = euclidean.classify_closure(kf, period=2 * PI)
        assert repf.symmetry_index == 5
        assert euclidean.turning_number(cf) == 3


def test_c03_sup_norm_estimate():
    with Stopwatch(5.0):
        sin = parse_spec("sinusoid:1,0,0")
        measured = []
        for n in (10, 20, 40):
            rep = euclidean.bound_check(sin, parse_spec(f"kn:{n}"), 2 * PI, norm="linf")
            delta = 2 * PI / n
            assert rep.measured <= math.sqrt(2.0) * delta * (2 * PI) ** 2 / 2.0
            measured.append(rep.measured)
        assert measured[0] > measured[1] > measured[2]


def test_c04_l1_estimate():
    with Stopwatch(5.0):
        sin = parse_spec("sinusoid:1,0,0")
        for n in (10, 20, 40):
            rep = euclidean.bound_check(sin, parse_spec(f"kn:{n}"), 2 * PI, norm="l1")
            assert rep.measured <= rep.delta * 2 * PI
            # the sup-norm inequality holds for the same pair as well
            assert rep.measured <= math.sqrt(2.0) * (2 * PI / n) * (2 * PI) ** 2 / 2.0


def test_c05_conic_oracle():
    with Stopwatch(10.0):
        for mu in (-3.0, 0.0, 2.0):
            curve, result = affine.picard(parse_spec(f"const:{mu:g}"), 2.0, tol=1e-10)
            oracle = affine.conic(mu, 2.0, len(curve))
            assert grid_distance(curve, oracle) <= 1e-8
            det = np.linalg.det(result.frames)
            assert np.abs(det - 1.0).max() <= 1e-8


def test_c06_iteration_bound_ladder():
    with Stopwatch(2.0):
        one = parse_spec("const:1")
        prev_frames = None
        for n in range(16):
            curve, result = affine.picard(one, 1.0, n_grid=4097, iterations=n)
            exact = affine.conic_frames(1.0, curve.params)
            measured = np.abs(result.frames - exact).max()
            assert measured <= math.e / math.factorial(n + 1)
            if prev_frames is not None:
                # consecutive-iterate gap per grid point, with a small
                # additive floor where the factorial bound underflows the
                # quadrature round-off
                per_alpha = np.abs(result.frames - prev_frames).max(axis=(1, 2))
                bound = curve.params**n / math.factorial(n)
                assert np.all(per_alpha <= bound + 1e-12)
            prev_frames = result.frames


def test_c07_affine_estimate():
    with Stopwatch(30.0):
        rep = affine.bound_check(parse_spec("const:2"), parse_spec("const:2.05"), 2.0)
        assert rep.measured <= math.sqrt(2.0) * (0.05 * 2.0 / 2.0) * (math.exp(4.0) - 1.0)
        assert rep.satisfied

        mu1 = parse_spec("mun:3/5")
        mu2 = lambda t: mu1(t) + 0.01 * bump(np.mod(np.asarray(t, dtype=float), 2.0))
        rep2 = affine.bound_check(mu1, mu2, 4.0)
        assert rep2.satisfied


def test_c08_power_series():
    with Stopwatch(5.0):
        for k in (1, 2):
            mu = parse_spec(f"monomial:1,{k}")
            pc, _ = affine.picard(mu, 3.0, tol=1e-10)
            sc = series.curve(mu, 3.0, len(pc))
            assert grid_distance(sc, pc) <= 1e-6


def test_c09_equivariance_100_random_elements():
    rng = np.random.default_rng(2024)
    kappa = parse_spec("sinusoid:1,1,1/3")
    base = euclidean.reconstruct(kappa, 2 * PI, 2049)
    for _ in range(100):
        ang = rng.uniform(-PI, PI)
        g = RigidMotion.from_angle(ang, rng.uniform(-2.0, 2.0, 2))
        via_pose = euclidean.reconstruct(kappa, 2 * PI, 2049, pose=g)
        assert np.abs(base.transformed(g).points - via_pose.points).max() <= 1e-8

    mu = parse_spec("const:2")
    base_curve, _ = affine.picard(mu, 2.0, n_grid=2049)
    for _ in range(100):
        a = rng.uniform(0.5, 2.0)
        b, c = rng.uniform(-1.0, 1.0, 2)
        m = np.array([[a, b], [c, (1.0 + b * c) / a]])
        g = EquiAffineMap(m, rng.uniform(-2.0, 2.0, 2))
        moved, _ = affine.picard(mu, 2.0, n_grid=2049, pose=g)
        # a direct solve has no truncation, so only round-off separates the two curves
        assert np.abs(base_curve.transformed(g).points - moved.points).max() <= 1e-12


def _run_figures(outdir: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, str(REPO / "demos" / "figures.py"), "--outdir", str(outdir)],
        check=True, env=env, capture_output=True,
    )


def test_c10_figure_regeneration_is_deterministic(tmp_path):
    first, second = tmp_path / "run1", tmp_path / "run2"
    _run_figures(first)
    _run_figures(second)
    names = sorted(p.name for p in first.glob("*.svg"))
    assert len(names) == 8
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    # single-curve figures through the command line are golden too
    from curverecon import cli

    for args, out1, out2 in [
        (("reconstruct", "affine", "--curvature", "mun:2/5", "--domain", "0:22",
          "--iterations", "200"), tmp_path / "p1.svg", tmp_path / "p2.svg"),
        (("reconstruct", "series", "--curvature", "monomial:1,1", "--domain", "0:3"),
         tmp_path / "s1.svg", tmp_path / "s2.svg"),
    ]:
        assert cli.main([*args, "--svg", str(out1)]) == 0
        assert cli.main([*args, "--svg", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
