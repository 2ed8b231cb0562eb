#!/usr/bin/env python3
"""Rebuild curves from their Euclidean curvature and check the round trip.

A curve is determined by its curvature-vs-arc-length profile up to a rigid
motion: integrate the curvature once to get the tangent angle, then
integrate the unit tangent to get the curve.
"""

import math

import numpy as np

from curverecon import SampledCurve, euclidean, hausdorff_distance, parse_spec
from curverecon.geometry import normalize_to_standard_frame

PI = math.pi

# a circle: constant curvature 1 over one full turn
circle = euclidean.reconstruct(parse_spec("const:1"), 2 * PI, 4097)
print(f"circle endpoint gap     : {circle.endpoint_gap:.3e}")

s, kappa = euclidean.curvature(circle)
print(f"recovered curvature err : {np.abs(kappa - 1.0).max():.3e}")

speed = np.linalg.norm(np.gradient(circle.points, circle.params, axis=0), axis=1)
print(f"unit-speed deviation    : {np.abs(speed - 1.0).max():.3e}")

# an arbitrary-speed ellipse, reparametrized to arc length
t = np.linspace(0.0, 2 * PI, 4097)
ellipse = SampledCurve(t, np.stack([2 * np.cos(t), np.sin(t)], axis=1))
unit = euclidean.arclength_reparametrize(ellipse)
print(f"ellipse perimeter       : {unit.span:.6f}")

# full round trip: sample the curvature of the unit-speed ellipse, rebuild a
# curve from it, and register both to the standard start frame; the images
# should coincide
s2, k2 = euclidean.curvature(unit)
from curverecon.curvatures import TableCurvature

rebuilt = euclidean.reconstruct(TableCurvature(s2, k2), unit.span, len(unit))
registered, _ = normalize_to_standard_frame(unit)
print(f"round-trip distance     : {hausdorff_distance(rebuilt, registered):.3e}")
