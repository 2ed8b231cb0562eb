"""Curve-to-invariant helpers that only the demos use.

The package runs one direction, curvature in and curve out.  Demo 01 runs
the other direction too (arc length and start-frame registration of a given
curve) and demo 05 prints the gamma-function form of the series
coefficients; those helpers live here.  A script in ``demos/`` imports them
as ``support``, since Python puts the script's directory on ``sys.path``.
"""

import math

import numpy as np

from curverecon.geometry import RigidMotion, SampledCurve, derivatives

__all__ = ["arclength_reparametrize", "gamma_ratio_check", "normalize_to_standard_frame"]


def arclength_reparametrize(curve: SampledCurve) -> SampledCurve:
    """Resample a curve uniformly in Euclidean arc length (same sample count).

    The arc length accumulates the 5-point Gauss-Legendre integral, over each
    grid interval, of the speed of the interpolating cubic spline, which must
    be at least 1e-9 at every node; the points are then re-read at uniform
    steps of it by monotone cubic interpolation.
    """
    from scipy.interpolate import CubicSpline, PchipInterpolator

    t, p = curve.params, curve.points
    dspline = CubicSpline(t, p, axis=0).derivative()
    speed_nodes = np.hypot(*dspline(t).T)
    if speed_nodes.min() < 1e-9:
        bad = t[int(np.argmin(speed_nodes))]
        raise ValueError(f"zero-speed segment near parameter {bad!r}")
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(5)
    a, b = t[:-1], t[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * gl_nodes[None, :]
    speed = np.hypot(*dspline(nodes.ravel()).T).reshape(nodes.shape)
    s = np.concatenate([[0.0], np.cumsum(half * (speed @ gl_weights))])
    s_uniform = np.linspace(0.0, s[-1], t.size)
    x = PchipInterpolator(s, p[:, 0])(s_uniform)
    y = PchipInterpolator(s, p[:, 1])(s_uniform)
    return SampledCurve(s_uniform, np.stack([x, y], axis=1))


def normalize_to_standard_frame(curve: SampledCurve):
    """Move an arc-length parametrized curve to the origin with the standard start frame.

    Returns ``(normalized_curve, g)`` where ``g`` is the unique rigid motion
    with ``g . curve`` starting at (0,0) with unit tangent (1,0).
    """
    d1 = derivatives(curve.params[:4], curve.points[:4])[0][0]
    speed = float(np.hypot(*d1))
    if speed < 1e-9:
        raise ValueError(f"zero tangent at parameter {curve.params[0]!r}: non-regular parametrization")
    tang = d1 / speed
    frame = np.array([tang, [-tang[1], tang[0]]])
    # move the start point to the origin, then turn the start tangent onto +x
    g = RigidMotion(frame, (0.0, 0.0)).compose(RigidMotion(np.eye(2), -curve.points[0]))
    return curve.transformed(g), g


def gamma_ratio_check(K: int, i: int):
    """Product and log-gamma evaluations of the two coefficient factors.

    Returns (psi_minus, psi_plus, gamma_form_minus, gamma_form_plus), where
    psi_minus = prod_j 1/(j K - 1) and psi_plus = prod_j 1/(j K + 1) for
    j = 1..i, and the gamma forms evaluate the same quantities through
    rising factorials written as gamma-function ratios.
    """
    if K < 2 or i < 1:
        raise ValueError("need K >= 2 and i >= 1")
    j = np.arange(1, i + 1, dtype=float)
    psi_minus = float(np.prod(1.0 / (j * K - 1.0)))
    psi_plus = float(np.prod(1.0 / (j * K + 1.0)))
    x = 1.0 / K
    # Gamma(-1/K) is negative on (-1, 0); that sign cancels the closed form's
    # leading minus, so both gamma forms come out positive
    gamma_minus = math.exp(math.lgamma(-x) - math.lgamma(i + 1.0 - x) - (i + 1.0) * math.log(K))
    gamma_plus = math.exp(math.lgamma(x) - math.lgamma(i + 1.0 + x) - (i + 1.0) * math.log(K))
    return psi_minus, psi_plus, gamma_minus, gamma_plus
