#!/usr/bin/env python3
"""Reconstruct curves from equi-affine curvature with certified truncation.

Constant affine curvature gives conics in closed form (parabola / ellipse /
hyperbola for zero / positive / negative values).  For general curvature the
frame is the fixed point of the sweeps A_n = A0 + integral(C A_{n-1}): a
tol-driven run solves for it in one pass, a run given a sweep count applies
that many sweeps.  The factorial tail bound of the planned sweep count is a
guaranteed frame error.
"""

import numpy as np

from curverecon import affine, parse_spec
from curverecon.curveio import report_json
from curverecon.geometry import grid_distance

# closed forms vs the iterative solver
for mu in (-3.0, 0.0, 2.0):
    spec = parse_spec(f"const:{mu:g}")
    curve, result = affine.picard(spec, 2.0, tol=1e-10)
    oracle = affine.conic(mu, 2.0, len(curve))
    f = result.frames
    det = f[:, 0, 0] * f[:, 1, 1] - f[:, 0, 1] * f[:, 1, 0]
    print(f"mu={mu:+.0f}: planned sweeps={result.iterations:3d} tail={result.tail_bound:.2e} "
          f"dist-to-closed-form={grid_distance(curve, oracle):.2e} "
          f"max|det-1|={np.abs(det - 1).max():.2e}")

# the iteration bounds in action: against the exact mu=1 frames
print("\nsweep-by-sweep gap to the exact frames (mu=1 on [0,1]):")
for n in (2, 5, 10, 15):
    curve, result = affine.picard(parse_spec("const:1"), 1.0, n_grid=4097, iterations=n)
    exact = affine.conic_frames(1.0, curve.params)
    gap = np.abs(result.frames - exact).max()
    print(f"  n={n:2d}: measured={gap:.3e} <= certified {result.tail_bound:.3e}")

# distance bound for two nearby constant curvatures
rep = affine.bound_check(parse_spec("const:2"), parse_spec("const:2.05"), 2.0)
print(f"\nmu=2 vs mu=2.05 on [0,2]: measured={rep.measured:.4f} bound={rep.bound:.4f} "
      f"satisfied={rep.satisfied}")

# an oscillating curvature, fixed sweep count, solver metadata as JSON
curve, result = affine.picard(parse_spec("mun:2/5"), 22.0, iterations=200)
summary = {"iterations": result.iterations, "c": result.c, "tail_bound": result.tail_bound,
           "grid_size": result.grid_size}
print("\nmun:2/5 on [0,22]:", report_json(summary))
print(f"endpoint gap {curve.endpoint_gap:.4f} over span {curve.span:.1f}")
