"""Equi-affine arc length and curvature, conic solutions, Picard reconstruction.

The frame rows (affine tangent and normal) satisfy a linear ODE whose
coefficient matrix holds the affine curvature.  Reconstruction runs the
fixed-point iteration ``A_n = A0 + integral(C * A_{n-1})`` with a certified
a-priori tail bound, so the returned frames carry a guaranteed error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundReport, EquiAffineMap, SampledCurve, derivatives, grid_distance, resample_by_rate
from .geometry import sup_norm
from .geometry import hausdorff_distance  # noqa: F401  perfbench/tracer.py wraps this attribute
from .quadrature import cumulative_simpson, finite_values, odd_sample_count, probe

__all__ = [
    "PicardResult",
    "arclength_reparametrize",
    "bound_check",
    "conic",
    "conic_frames",
    "curvature_from_euclidean",
    "frame_determinants",
    "frame_divergence_bound",
    "picard",
    "picard_bounds",
]

ITERATION_CAP = 10_000
GRID_CAP = 300_001
WORK_CAP = 50_000_000


def arclength_reparametrize(curve: SampledCurve) -> SampledCurve:
    """Resample a curve uniformly in equi-affine arc length.

    Requires det(g', g'') >= 1e-9 at the nodes and > 0 between them (convex,
    counterclockwise);
    the new parameter accumulates det(g', g'')^(1/3) of the interpolating
    cubic spline, via :func:`~curverecon.geometry.resample_by_rate`.
    """
    from scipy.interpolate import CubicSpline

    t = curve.params
    spline = CubicSpline(t, curve.points, axis=0)
    d1 = spline.derivative()
    d2 = spline.derivative(2)

    def det_of(ts):
        v1, v2 = d1(ts), d2(ts)
        return v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]

    det_nodes = det_of(t)
    if det_nodes.min() < 1e-9:
        bad = t[int(np.argmin(det_nodes))]
        raise ValueError(
            f"det(tangent, second derivative) = {det_nodes.min():.3e} at parameter {bad!r}; "
            "curve must be convex and counterclockwise"
        )

    def density(ts):
        d = det_of(ts)
        if d.min() <= 0.0:
            raise ValueError("det(tangent, second derivative) must stay positive between samples")
        return np.cbrt(d)

    return resample_by_rate(curve, density)


def curvature_from_euclidean(s, kappa):
    """Affine curvature samples from Euclidean curvature of arc length.

    Applies mu = (3*k*(k_ss + 3*k^3) - 5*k_s^2) / (9*k^(8/3)) and re-grids the
    result onto uniform affine arc length alpha(s) = integral of k^(1/3).
    Requires kappa > 0 throughout (the fractional power needs it).
    """
    from scipy.interpolate import PchipInterpolator

    s = np.asarray(s, dtype=float)
    k = np.asarray(kappa, dtype=float)
    if k.min() <= 0.0:
        raise ValueError(f"curvature must be positive; min {k.min():.3e} at s={s[int(np.argmin(k))]!r}")
    ks, kss = derivatives(s, k)
    mu = (3.0 * k * (kss + 3.0 * k**3) - 5.0 * ks**2) / (9.0 * k ** (8.0 / 3.0))
    rate = np.cbrt(k)
    alpha = np.concatenate(([0.0], np.cumsum(np.diff(s) * (rate[1:] + rate[:-1]) / 2.0)))
    alpha_uniform = np.linspace(0.0, alpha[-1], s.size)
    mu_uniform = PchipInterpolator(alpha, mu)(alpha_uniform)
    return alpha_uniform, mu_uniform


def conic(mu: float, length: float, n: int) -> SampledCurve:
    """Closed-form curve of constant affine curvature, canonical initial data.

    Zero curvature gives a parabola, positive an ellipse arc, negative a
    hyperbola arc; all start at the origin with tangent (1,0), normal (0,1).
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    a = np.linspace(0.0, length, n)
    frames = conic_frames(mu, a)
    # abs keeps the hyperbola's y at a = 0 a +0.0 instead of -0.0
    y = 0.5 * a**2 if mu == 0.0 else np.abs((1.0 - frames[:, 0, 0]) / mu)
    return SampledCurve(a, np.stack([frames[:, 0, 1], y], axis=1))


def conic_frames(mu: float, alpha) -> np.ndarray:
    """Exact frame matrices (tangent row, normal row) of the constant-mu curve."""
    a = np.asarray(alpha, dtype=float)
    frames = np.empty(a.shape + (2, 2))
    if mu == 0.0:
        frames[..., 0, 0] = 1.0
        frames[..., 0, 1] = a
        frames[..., 1, 0] = 0.0
        frames[..., 1, 1] = 1.0
    elif mu > 0.0:
        w = math.sqrt(mu)
        frames[..., 0, 0] = np.cos(w * a)
        frames[..., 0, 1] = np.sin(w * a) / w
        frames[..., 1, 0] = -w * np.sin(w * a)
        frames[..., 1, 1] = np.cos(w * a)
    else:
        lam = math.sqrt(-mu)
        frames[..., 0, 0] = np.cosh(lam * a)
        frames[..., 0, 1] = np.sinh(lam * a) / lam
        frames[..., 1, 0] = lam * np.sinh(lam * a)
        frames[..., 1, 1] = np.cosh(lam * a)
    return frames


@dataclass(frozen=True)
class PicardResult:
    """Converged frames plus the certified truncation data of the run.

    The frames sit on the grid of the returned curve, ``curve.params``.
    ``iterations`` is the planned sweep count that ``tail_bound`` certifies, and
    ``step_gaps`` has one entry per planned sweep.  When a sweep returned its
    input bit for bit the run stopped there; the zero gaps after it are exact,
    since each skipped sweep would have returned the same frames.  ``frames`` is entry-major, an
    ``(n, 2, 2)`` view of a C-ordered ``(2, 2, n)`` array, so each sweep works on runs of n nodes.
    """

    frames: np.ndarray
    iterations: int
    c: float
    tail_bound: float
    step_gaps: tuple = field(default=(), compare=False)

    @property
    def grid_size(self) -> int:
        return int(self.frames.shape[0])


def _log_tail(c: float, length: float, n: int, a0_norm: float) -> float:
    """log of a0_norm * e^(c L) * (c L)^(n+1) / (n+1)!"""
    x = c * length
    return math.log(a0_norm) + x + (n + 1) * math.log(x) - math.lgamma(n + 2)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _tail_bound(c: float, length: float, n: int, a0_norm: float) -> float:
    return _exp_or_inf(_log_tail(c, length, n, a0_norm))


def _iterations_for_tol(c: float, length: float, tol: float, a0_norm: float) -> int:
    log_tol = math.log(tol)
    for n in range(ITERATION_CAP + 1):
        if _log_tail(c, length, n, a0_norm) <= log_tol:
            return n
    raise ValueError(f"tail tolerance {tol:.1e} unreachable within {ITERATION_CAP} iterations")


def _plan(c: float, length: float, a0_norm: float, n_grid=None, iterations=None, tol=None):
    """``(iterations, n_grid)`` of one Picard run, fixed before any sweep.

    Sweeps: ``iterations``, else the first count whose tail bound is below ``tol`` (1e-10).
    Grid: ``n_grid``, else 32 L sqrt(c) / pi nodes when only ``iterations`` is given, else
    enough that h^4 c L <= 0.01 tol (GRID_CAP when h underflows to 0) and at least
    4 L sqrt(c) / pi; a derived grid is clamped to [1025, GRID_CAP], and every grid is
    made odd and at least 17.  Refused (``ValueError``):
    ``n_grid`` > GRID_CAP, ``iterations`` > ITERATION_CAP, and more than WORK_CAP node-sweeps.
    """
    if n_grid is not None and n_grid > GRID_CAP:
        raise ValueError(f"{n_grid} grid nodes exceed the cap of {GRID_CAP}")
    if iterations is not None and iterations > ITERATION_CAP:
        raise ValueError(f"{iterations} sweeps exceed the cap of {ITERATION_CAP}")
    sweeps_only = iterations is not None and tol is None
    tol = 1e-10 if tol is None else tol
    if iterations is None:
        iterations = _iterations_for_tol(c, length, tol, a0_norm)
    if n_grid is None:
        if sweeps_only:
            n_grid = math.ceil(min(32.0 * length * math.sqrt(c) / math.pi, GRID_CAP))
        else:
            h = (0.01 * tol / (c * length)) ** 0.25
            steps = math.ceil(length / h) if h > 0.0 else GRID_CAP
            n_grid = max(steps + 1, math.ceil(4.0 * length * math.sqrt(c) / math.pi))
        n_grid = min(GRID_CAP, max(1025, n_grid))
    n_grid = odd_sample_count(max(int(n_grid), 17))
    if iterations * n_grid > WORK_CAP:
        raise ValueError(f"{iterations} sweeps x {n_grid} nodes exceed the work cap of {WORK_CAP}")
    return iterations, n_grid


def picard(
    mu,
    length: float,
    n_grid: int | None = None,
    iterations: int | None = None,
    tol: float | None = None,
    pose: EquiAffineMap | None = None,
):
    """Reconstruct a curve from its affine curvature by fixed-point sweeps.

    Stops after ``iterations`` sweeps when given, otherwise at the first
    count whose a-priori tail bound drops below ``tol`` (default 1e-10);
    :func:`_plan` sets the sweeps and grid and refuses over-cap runs before
    any work.  A sweep is a pure function of the frames, so once one returns
    its input bit for bit (a fixed point) the remaining sweeps are skipped:
    they would return the same bytes, and their gaps are recorded as the
    exact zeros they are.  Without ``pose`` the curve has canonical initial
    data (origin, identity frame); with it, the initial frame is the inverse
    of ``pose``'s linear part and the curve starts at its translation, which
    is ``pose`` applied to the canonical curve.  Returns the curve and a
    :class:`PicardResult` carrying the certified ``tail_bound`` of the planned count.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    A0, origin = (np.eye(2), np.zeros(2)) if pose is None else (pose.inverse().linear, pose.translation)
    a0_norm = sup_norm(A0)

    c = max(1.0, sup_norm(probe(mu, length)))
    iterations, n_grid = _plan(c, length, a0_norm, n_grid, iterations, tol)

    grid = np.linspace(0.0, length, n_grid)
    h = grid[1] - grid[0]
    mu_vals = finite_values(mu, grid)  # a NaN can sit between the probe's nodes
    c = max(1.0, float(np.abs(mu_vals).max()), c)

    frames = np.empty((2, 2, n_grid)).transpose(2, 0, 1)
    frames[...] = A0
    base = A0[None, :, :]
    gaps = []
    ca = np.empty_like(frames)
    for _ in range(iterations):
        ca[:, 0, :] = frames[:, 1, :]
        ca[:, 1, :] = -mu_vals[:, None] * frames[:, 0, :]
        new = base + cumulative_simpson(ca, h)
        gaps.append(float(np.abs(new - frames).max()))
        if gaps[-1] == 0.0 and np.array_equal(new.view(np.int64), frames.view(np.int64)):
            break  # a fixed point: every later sweep returns these bytes
        frames = new
    gaps.extend([0.0] * (iterations - len(gaps)))

    pts = origin + cumulative_simpson(frames[:, 0, :], h)
    result = PicardResult(
        frames=frames,
        iterations=iterations,
        c=c,
        tail_bound=_tail_bound(c, length, iterations, a0_norm),
        step_gaps=tuple(gaps),
    )
    return SampledCurve(grid, pts), result


def frame_determinants(frames: np.ndarray) -> np.ndarray:
    return frames[:, 0, 0] * frames[:, 1, 1] - frames[:, 0, 1] * frames[:, 1, 0]


def picard_bounds(c: float, alpha: float, n: int, a0_norm: float = 1.0) -> dict:
    """The four closed-form iteration bounds, evaluated overflow-safely.

    Keys: ``bound_n`` (n-th iterate size), ``bound_a`` (limit size),
    ``bound_step`` (gap between consecutive iterates), ``bound_tail``
    (gap between the n-th iterate and the limit).  A bound past double
    range is ``inf``.
    """
    if c < 1.0 or alpha < 0.0 or n < 0:
        raise ValueError("need c >= 1, alpha >= 0, n >= 0")
    x = c * alpha
    if x == 0.0:
        return {
            "bound_n": a0_norm,
            "bound_a": a0_norm,
            "bound_step": a0_norm if n == 0 else 0.0,
            "bound_tail": 0.0,
        }
    log_terms = [i * math.log(x) - math.lgamma(i + 1) for i in range(n + 1)]
    peak = max(log_terms)
    partial = a0_norm * _exp_or_inf(peak) * math.fsum(math.exp(t - peak) for t in log_terms)
    step = a0_norm * _exp_or_inf(n * math.log(x) - math.lgamma(n + 1))
    return {
        "bound_n": partial,
        "bound_a": a0_norm * _exp_or_inf(x),
        "bound_step": step,
        "bound_tail": _tail_bound(c, alpha, n, a0_norm),
    }


def _probe_gap(mu1, mu2, length: float):
    """(delta, c_hat) on a 4097-point probe: sup |mu1 - mu2| and max(1, sup |mu1|, sup |mu2|)."""
    v1, v2 = probe(mu1, length), probe(mu2, length)
    return sup_norm(v1 - v2), max(1.0, sup_norm(v1), sup_norm(v2))


def frame_divergence_bound(mu1, mu2, length: float) -> float:
    """Guaranteed max-entry gap between frames grown from the identity frame by two curvatures."""
    delta, c_hat = _probe_gap(mu1, mu2, length)
    if delta == 0.0:
        return 0.0
    if c_hat * length > 700.0:
        return math.inf
    return delta * length * math.exp(c_hat * length)


def bound_check(mu1, mu2, length: float) -> BoundReport:
    """Certify the affine reconstruction-distance bound for two curvatures.

    Both curves are rebuilt with canonical initial data (realizing the
    registering map) on one grid; their pointwise distance
    max_alpha |c1(alpha) - c2(alpha)| on it is compared against
    sqrt(2) * (delta L / c_hat) * (e^(c_hat L) - 1).
    """
    delta, c_hat = _probe_gap(mu1, mu2, length)
    if delta == 0.0:
        bound = 0.0
    else:
        with np.errstate(over="ignore"):
            grow = float(np.expm1(c_hat * length))  # inf is fine: the bound is then vacuous
        bound = math.sqrt(2.0) * delta * length / c_hat * grow

    tol = max(1e-13, min(1e-10, 0.01 * bound)) if bound > 0 else 1e-13
    n_iter, n_grid = _plan(c_hat, length, 1.0, tol=tol)
    c1, r1 = picard(mu1, length, n_grid=n_grid, iterations=n_iter)
    c2, r2 = picard(mu2, length, n_grid=n_grid, iterations=n_iter)
    measured = grid_distance(c1, c2)
    floor = max(1e-12, 2.0 * length * (r1.tail_bound + r2.tail_bound))
    return BoundReport(
        mode="affine",
        norm="linf",
        delta=delta,
        length=length,
        c_hat=c_hat,
        bound_stated=bound,
        bound=bound,
        measured=measured,
        solver_floor=floor,
    )
