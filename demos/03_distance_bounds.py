#!/usr/bin/env python3
"""Certify how far apart two curves with nearby curvatures can end up.

After registering both curves to the same start pose, the pointwise
distance |gamma1(s) - gamma2(s)| at equal arc length is bounded by
sqrt(2) * delta * L^2 / 2 when the curvatures stay within delta of each
other, and by delta_L1 * L for the integrated gap.  The bound checker
rebuilds both curves on one shared grid, measures the largest pointwise
gap there (the reported ``measured``), and compares.
"""

import math

from curverecon import euclidean, parse_spec
from curverecon.curveio import bound_report_json

PI = math.pi

sin = parse_spec("sinusoid:1,0,0")
print("sup-norm bound, sin vs bump-perturbed sin over one period:")
for n in (10, 20, 40):
    rep = euclidean.bound_check(sin, parse_spec(f"kn:{n}"), 2 * PI, norm="linf")
    print(f"  n={n:3d}: delta={rep.delta:.4f} measured={rep.measured:.4f} "
          f"certified={rep.bound:.4f} satisfied={rep.satisfied}")

print("\nsame pairs in the L1 norm (bound delta_L1 * L):")
for n in (10, 20, 40):
    rep = euclidean.bound_check(sin, parse_spec(f"kn:{n}"), 2 * PI, norm="l1")
    print(f"  n={n:3d}: delta={rep.delta:.4f} measured={rep.measured:.4f} "
          f"bound={rep.bound:.4f} satisfied={rep.satisfied}")

print("\nfull report as emitted by the CLI:")
print(bound_report_json(euclidean.bound_check(sin, parse_spec("kn:40"), 2 * PI)))
