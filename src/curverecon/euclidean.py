"""Euclidean curvature, reconstruction, closedness, and distance bounds.

Reconstruction integrates the curvature twice: the tangent angle is the
running integral of the curvature, and the curve is the running integral of
(cos, sin) of that angle, starting from the requested pose.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import BoundReport, RigidMotion, SampledCurve, derivatives, grid_distance, sup_norm
from .geometry import hausdorff_distance  # noqa: F401  perfbench/tracer.py wraps this attribute
from .quadrature import cumulative_simpson, finite_values, odd_sample_count, probe

__all__ = [
    "ClosureReport",
    "SAMPLE_CAP",
    "bound_check",
    "classify_closure",
    "curvature",
    "default_sample_count",
    "rationalize",
    "reconstruct",
    "turning_number",
]

TWO_PI = 2.0 * math.pi
SAMPLE_CAP = 2_000_001


def default_sample_count(length: float, kappa_sup: float) -> int:
    """Grid size that keeps the tangent angle step below pi/4 per sample, at least 1025."""
    steps = 4.0 * length * max(kappa_sup, 1e-12) / math.pi
    if not steps <= SAMPLE_CAP:  # refuses inf and nan as well
        raise ValueError(
            f"curvature sup {kappa_sup:.6g} over length {length:.6g} needs more than {SAMPLE_CAP} samples"
        )
    return odd_sample_count(max(1024, math.ceil(steps)))


def reconstruct(kappa, length: float, n: int | None = None, pose: RigidMotion | None = None) -> SampledCurve:
    """Curve with prescribed Euclidean curvature, unit-speed parametrized on [0, length].

    Without ``pose`` the curve starts at the origin heading along +x, the
    canonical registration used by the distance bounds; with it, the curve
    starts at ``pose``'s translation heading at its angle, which is ``pose``
    applied to the canonical curve.  More than :data:`SAMPLE_CAP` samples are
    refused.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if n is None:
        n = default_sample_count(length, sup_norm(probe(kappa, length)))
    n = odd_sample_count(max(int(n), 16))
    if n > SAMPLE_CAP:
        raise ValueError(f"{n} samples exceed the cap of {SAMPLE_CAP}")
    theta0, origin = (0.0, np.zeros(2)) if pose is None else (pose.angle, pose.translation)
    s = np.linspace(0.0, length, n)
    theta = theta0 + cumulative_simpson(finite_values(kappa, s), s[1] - s[0])
    direction = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = origin + cumulative_simpson(direction, s[1] - s[0])
    return SampledCurve(s, pts)


def curvature(curve: SampledCurve):
    """Signed curvature samples from a curve: det(g', g'') / |g'|^3.

    Derivatives by :func:`~curverecon.geometry.derivatives`; positive sign for
    counterclockwise turning.  A sample with speed below 1e-9 is refused.
    """
    t = curve.params
    d1, d2 = derivatives(t, curve.points)
    speed = np.hypot(d1[:, 0], d1[:, 1])
    if speed.min() < 1e-9:
        bad = t[int(np.argmin(speed))]
        raise ValueError(f"zero-speed sample at parameter {bad!r}")
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    return t, det / speed**3


def rationalize(x: float) -> Fraction | None:
    """Smallest-denominator continued-fraction convergent of ``x`` within 1e-8.

    Returns None when no convergent with denominator <= 10^6 comes within 1e-8.
    """
    if not math.isfinite(x):
        return None
    p0, q0, p1, q1 = 0, 1, 1, 0
    r = x
    for _ in range(64):
        a = math.floor(r)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > 10**6:
            return None
        if abs(x - p1 / q1) <= 1e-8:
            return Fraction(p1, q1)
        frac = r - a
        if frac == 0.0:
            return None
        r = 1.0 / frac
    return None


@dataclass(frozen=True)
class ClosureReport:
    """Closedness prediction from the mean of a periodic curvature.

    ``ratio`` is the reduced rational (1/2pi) * integral of the curvature
    over one period.  A denominator m > 1 predicts a closed curve of minimal
    period m * ell with turning number equal to the numerator; m is the
    symmetry index when the curve is simple.
    """

    ratio: Fraction | None
    predicted_closed: bool
    minimal_period: float | None
    turning_number: int | None
    symmetry_index: int | None

    @property
    def ratio_string(self) -> str | None:
        if self.ratio is None:
            return None
        return f"{self.ratio.numerator}/{self.ratio.denominator}"


def classify_closure(kappa, period: float) -> ClosureReport:
    """Predict closedness of the curve reconstructed from a periodic curvature spec.

    The turning ratio is ``kappa.turning_ratio(period)``, or when that is None (1/2pi) times the
    composite Simpson integral of the :func:`~curverecon.quadrature.probe` values over [0, period]
    (the probe refuses a non-finite sample); a ratio that is not a ``Fraction`` is refused when
    not finite and otherwise rationalized with denominator <= 10^6 and tolerance 1e-8.
    """
    if period <= 0:
        raise ValueError("a positive period is required")
    ratio = kappa.turning_ratio(period)
    if ratio is None:
        values = probe(kappa, period)
        # unit step, scaled after: a subnormal period's step would round to 0
        ratio = float(cumulative_simpson(values, 1.0)[-1]) * (period / (values.size - 1)) / TWO_PI
    if not isinstance(ratio, Fraction):
        if not math.isfinite(ratio):
            raise ValueError(f"turning ratio {ratio} over period {period!r} is not finite")
        ratio = rationalize(ratio)

    if ratio is None:
        return ClosureReport(None, False, None, None, None)
    m = ratio.denominator
    xi = ratio.numerator
    return ClosureReport(ratio, m > 1, m * period, xi, m)


def turning_number(curve: SampledCurve) -> int:
    """Net count of full tangent turns along a closed curve (endpoint gap at most 1e-3)."""
    gap = curve.endpoint_gap
    if gap > 1e-3:
        raise ValueError(f"endpoint gap {gap:.3e} exceeds tolerance 1.0e-03")
    d1, _ = derivatives(curve.params, curve.points)
    angles = np.unwrap(np.arctan2(d1[:, 1], d1[:, 0]))
    return round((angles[-1] - angles[0]) / TWO_PI)


def bound_check(kappa1, kappa2, length: float, norm: str = "linf") -> BoundReport:
    """Certify the reconstruction-distance bound for two curvature functions.

    Both curves are rebuilt from the canonical pose (which realizes the
    registering rigid motion) on one grid, the curvature gap delta is
    measured on that grid, and the pointwise distance max_s |c1(s) - c2(s)|
    on it is compared against the certified bound: delta * L^2 / 2 for the
    sup norm, or delta * L for the L1 norm.  Proof: |e^(ia) - e^(ib)| <= |a - b|
    gives |c1(s) - c2(s)| <= integral_0^s |theta1 - theta2|, and |theta1 - theta2|
    is at most delta * s (sup norm) or delta (L1 norm) at s.
    """
    if norm not in ("linf", "l1"):
        raise ValueError("norm must be 'linf' or 'l1'")
    sup = max(sup_norm(probe(kappa1, length)), sup_norm(probe(kappa2, length)))
    n = default_sample_count(length, sup)
    c1 = reconstruct(kappa1, length, n)
    c2 = reconstruct(kappa2, length, n)
    s = c1.params
    diff = np.abs(np.asarray(kappa1(s), dtype=float) - np.asarray(kappa2(s), dtype=float))
    if norm == "linf":
        delta = float(diff.max())
        bound = delta * length**2 / 2.0
    else:
        delta = float(cumulative_simpson(diff, s[1] - s[0])[-1])
        bound = delta * length
    return BoundReport(
        mode="euclidean",
        norm=norm,
        delta=delta,
        length=length,
        c_hat=None,
        bound=bound,
        measured=grid_distance(c1, c2),
        solver_floor=1e-9,
    )
