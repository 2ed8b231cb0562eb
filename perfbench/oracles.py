"""Reference values the benchmark checks CLI outputs against.

Everything here is computed independently of ``curverecon``: the curvature
families are re-derived from their definitions, reference curves come from
an adaptive high-order ODE solve (scipy's DOP853), and conics from their
closed forms.  These run on the first pass only, outside the timed region.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi


def _phi(x: float) -> float:
    return math.exp(-1.0 / x) if x > 0.0 else 0.0


def bump(s: float) -> float:
    """The spec grammar's bump: smooth step up on [0, 1], down on [1, 2], else 0."""
    if s <= 0.0 or s >= 2.0:
        return 0.0
    u = s if s <= 1.0 else 2.0 - s
    return _phi(u) / (_phi(u) + _phi(1.0 - u))


def kn(r: Fraction):
    """kn:<r> -- sin(t) plus a (2 pi / r)-scaled bump, bump 2 pi-periodic."""
    amp = TWO_PI / float(r)
    return lambda t: math.sin(t) + amp * bump(t % TWO_PI)


def mun(r: Fraction):
    """mun:<r> -- (r pi)^2 (bump(t) + 1)^2, bump 2-periodic."""
    scale = (float(r) * math.pi) ** 2
    return lambda t: scale * (bump(t % 2.0) + 1.0) ** 2


def sinusoid(a, b, c):
    a, b, c = float(a), float(b), float(c)
    return lambda t: a * math.sin(t) + b * math.cos(t) + c


def monomial(c, k: int):
    c = float(c)
    return lambda t: c * t**k


def euclid_curve(kappa, start: float, s_eval: np.ndarray) -> np.ndarray:
    """Points of the unit-speed curve with curvature ``kappa(start + s)``, canonical pose."""

    def rhs(s, y):
        return (kappa(start + s), math.cos(y[0]), math.sin(y[0]))

    sol = solve_ivp(rhs, (0.0, float(s_eval[-1])), (0.0, 0.0, 0.0), method="DOP853",
                    t_eval=s_eval, rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[1:3].T


def affine_endpoint(mu, start: float, length: float) -> np.ndarray:
    """Endpoint of the equi-affine curve with curvature ``mu(start + a)``, canonical frame.

    Integrates gamma' = T, T' = N, N' = -mu T from T = (1, 0), N = (0, 1).
    """

    def rhs(a, y):
        m = mu(start + a)
        return (y[2], y[3], y[4], y[5], -m * y[2], -m * y[3])

    sol = solve_ivp(rhs, (0.0, length), (0.0, 0.0, 1.0, 0.0, 0.0, 1.0), method="DOP853",
                    rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[0:2, -1]


def conic(mu: float, alpha: np.ndarray) -> np.ndarray:
    """Closed-form curve of constant equi-affine curvature ``mu``, canonical frame."""
    if mu == 0.0:
        return np.stack([alpha, 0.5 * alpha**2], axis=1)
    if mu > 0.0:
        w = math.sqrt(mu)
        return np.stack([np.sin(w * alpha) / w, (1.0 - np.cos(w * alpha)) / mu], axis=1)
    w = math.sqrt(-mu)
    return np.stack([np.sinh(w * alpha) / w, (np.cosh(w * alpha) - 1.0) / (-mu)], axis=1)


def closure(ratio: Fraction, period: float) -> dict:
    """The classify JSON implied by an exact closure ratio (1/2 pi) * integral over a period."""
    m = ratio.denominator
    return {
        "ratio": f"{ratio.numerator}/{m}",
        "closed": m > 1,
        "turning": ratio.numerator,
        "symmetry": m,
        "minimal_period": m * period,
    }


def read_curve_csv(data: bytes) -> np.ndarray:
    """Rows of an ``s,x,y`` curve CSV; raises ValueError on any other layout."""
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "s,x,y":
        raise ValueError("curve CSV header is not 's,x,y'")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def svg_polyline_points(data: bytes) -> list:
    """Point counts of each polyline in an SVG document the CLI wrote."""
    text = data.decode("utf-8")
    if not text.startswith('<?xml version="1.0"') or not text.rstrip().endswith("</svg>"):
        raise ValueError("not a complete SVG document")
    counts = []
    for chunk in text.split('points="')[1:]:
        counts.append(len(chunk.split('"', 1)[0].split()))
    return counts
