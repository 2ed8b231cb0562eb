"""Equi-affine conic solutions, Picard reconstruction from affine curvature, distance bounds.

The frame rows (affine tangent and normal) satisfy a linear ODE whose
coefficient matrix holds the affine curvature.  Reconstruction targets the
fixed point of the iteration ``A_n = A0 + integral(C * A_{n-1})`` (Simpson
on the grid) with a certified a-priori tail bound, so the returned frames
carry a guaranteed error.  A tol-driven run solves for that fixed point in
one pass; a run given only a sweep count applies exactly that many sweeps.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundReport, EquiAffineMap, SampledCurve, grid_distance, sup_norm
from .geometry import hausdorff_distance  # noqa: F401  perfbench/tracer.py wraps this attribute
from .quadrature import GRID_CAP, cumulative_simpson, finite_values, odd_sample_count, probe

__all__ = [
    "PicardResult",
    "bound_check",
    "conic",
    "conic_frames",
    "frame_determinants",
    "picard",
]

ITERATION_CAP = 10_000
WORK_CAP = 50_000_000


def conic(mu: float, length: float, n: int) -> SampledCurve:
    """Closed-form curve of constant affine curvature, canonical initial data.

    Zero curvature gives a parabola, positive an ellipse arc, negative a
    hyperbola arc; all start at the origin with tangent (1,0), normal (0,1).
    """
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
    ``iterations`` is the planned sweep count whose a-priori ``tail_bound`` covers
    the truncation.  A run that sweeps records one ``step_gaps`` entry per sweep; a
    direct solve of the sweeps' fixed point runs none and leaves ``step_gaps`` empty.
    ``frames`` is entry-major, an ``(n, 2, 2)`` view of a C-ordered ``(2, 2, n)``
    array, so each sweep works on runs of n nodes.
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


def _exp_or_inf(x: float, exp=math.exp) -> float:
    try:
        return exp(x)
    except OverflowError:
        return math.inf


def _iterations_for_tol(c: float, length: float, tol: float, a0_norm: float) -> int:
    log_tol = math.log(tol)
    for n in range(ITERATION_CAP + 1):
        if _log_tail(c, length, n, a0_norm) <= log_tol:
            return n
    raise ValueError(f"tail tolerance {tol:.1e} unreachable within {ITERATION_CAP} iterations")


def _plan(c: float, length: float, a0_norm: float, n_grid=None, iterations=None, tol=None):
    """``(iterations, n_grid, sweeps_only)`` of one Picard run, fixed before any work.

    ``sweeps_only`` (``iterations`` given, ``tol`` not) asks for exactly that many sweeps;
    every other run solves for their fixed point directly.

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
    return iterations, n_grid, sweeps_only


# the sweeps converge while h^2 max|mu| stays below this root of 9 - 3s - s^2 (see _fixed_point_frames)
_STEP_CURVATURE_LIMIT = (3.0 * math.sqrt(5.0) - 3.0) / 2.0


def _fixed_point_frames(mu_vals: np.ndarray, h: float, A0: np.ndarray) -> np.ndarray:
    """The frames that Picard's Simpson sweeps converge to, in one pass, entry-major.

    The fixed point solves, on each node pair (2j, 2j+1, 2j+2), the 3-stage
    Lobatto IIIA collocation equations with step 2h (Hairer & Wanner, *Solving
    ODEs II*, IV.5), which are linear: A_{2j+2} = T_j A_{2j} and A_{2j+1} = S_j A_{2j}
    in closed form, with D = h^4 mu1 mu2 + 3 h^2 mu1 + 9.  Below
    _STEP_CURVATURE_LIMIT every D >= 9 - 3s - s^2 > 0 (s = h^2 max|mu|).  The even
    frames are the prefix products T_j ... T_0 A0, by doubling (Blelloch 1990).
    """
    p0, p1, p2 = (h * h) * mu_vals[0:-2:2], (h * h) * mu_vals[1:-1:2], (h * h) * mu_vals[2::2]
    d = p1 * p2 + 3.0 * p1 + 9.0
    # pair maps T as a (2, 2, m) array; T_0 carries A0, so the products are the frames themselves
    maps = np.empty((2, 2, d.size))
    maps[0, 0] = (p0 * p1 - 6.0 * p0 - 9.0 * p1 + 9.0) / d
    maps[0, 1] = -6.0 * h * (p1 - 3.0) / d
    maps[1, 0] = (2.0 * (p0 * p1 + p0 * p2 + p1 * p2) - 3.0 * p0 - 12.0 * p1 - 3.0 * p2) / (h * d)
    maps[1, 1] = (p1 * p2 - 9.0 * p1 - 6.0 * p2 + 9.0) / d
    maps[:, :, 0] = maps[:, :, 0] @ A0
    k = 1
    while k < d.size:  # inclusive prefix products: each later map multiplies from the left
        prod = maps[:, 0:1, k:] * maps[0, :, :-k]
        prod += maps[:, 1:2, k:] * maps[1, :, :-k]
        maps[:, :, k:] = prod
        k *= 2

    frames = np.empty((2, 2, mu_vals.size))
    frames[:, :, 0] = A0
    frames[:, :, 2::2] = maps
    before = frames[:, :, 0:-1:2]
    s00 = (36.0 - 2.0 * p0 * p2 - 9.0 * p0 + 3.0 * p2) / (4.0 * d)
    s01 = 1.5 * h * (p2 + 6.0) / d
    s10 = (p0 * p1 - 2.0 * p0 * p2 - 5.0 * p1 * p2 - 15.0 * p0 - 24.0 * p1 + 3.0 * p2) / (4.0 * h * d)
    s11 = (3.0 - p1) * (p2 + 6.0) / (2.0 * d)
    frames[0, :, 1::2] = s00 * before[0] + s01 * before[1]
    frames[1, :, 1::2] = s10 * before[0] + s11 * before[1]
    return frames.transpose(2, 0, 1)


def picard(
    mu,
    length: float,
    n_grid: int | None = None,
    iterations: int | None = None,
    tol: float | None = None,
    pose: EquiAffineMap | None = None,
):
    """Reconstruct a curve from its affine curvature by Picard iteration.

    With ``iterations`` and no ``tol``, applies exactly that many sweeps.
    Otherwise returns the sweeps' fixed point, solved in one pass by
    :func:`_fixed_point_frames`; ``iterations`` is then the count whose a-priori
    tail bound drops below ``tol`` (default 1e-10), given or planned, and a grid
    with h^2 max|mu| >= _STEP_CURVATURE_LIMIT, on which the sweeps would diverge,
    is refused.  :func:`_plan` sets the sweeps and grid and refuses over-cap runs
    before any work.  Without ``pose`` the curve has canonical initial data
    (origin, identity frame); with it, the initial frame is the inverse of
    ``pose``'s linear part and the curve starts at its translation, which is
    ``pose`` applied to the canonical curve.  Returns the curve and a
    :class:`PicardResult` carrying the certified ``tail_bound`` of the planned count.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    A0, origin = (np.eye(2), np.zeros(2)) if pose is None else (pose.inverse().linear, pose.translation)
    a0_norm = sup_norm(A0)

    c = max(1.0, sup_norm(probe(mu, length)))
    iterations, n_grid, sweeps_only = _plan(c, length, a0_norm, n_grid, iterations, tol)

    grid = np.linspace(0.0, length, n_grid)
    h = grid[1] - grid[0]
    mu_vals = finite_values(mu, grid)  # a NaN can sit between the probe's nodes
    mu_max = float(np.abs(mu_vals).max())
    c = max(1.0, mu_max, c)

    gaps = []
    if sweeps_only:
        frames = np.empty((2, 2, n_grid)).transpose(2, 0, 1)
        frames[...] = A0
        base = A0[None, :, :]
        ca = np.empty_like(frames)
        for _ in range(iterations):
            ca[:, 0, :] = frames[:, 1, :]
            ca[:, 1, :] = -mu_vals[:, None] * frames[:, 0, :]
            new = base + cumulative_simpson(ca, h)
            gaps.append(float(np.abs(new - frames).max()))
            frames = new
    else:
        s = h * h * mu_max
        if s >= _STEP_CURVATURE_LIMIT:
            raise ValueError(
                f"h^2 max|mu| = {s:.6g} on {n_grid} nodes is at least {_STEP_CURVATURE_LIMIT:.6g}, "
                "where Picard sweeps diverge; use more samples"
            )
        frames = _fixed_point_frames(mu_vals, h, A0)

    pts = origin + cumulative_simpson(frames[:, 0, :], h)
    result = PicardResult(
        frames=frames,
        iterations=iterations,
        c=c,
        tail_bound=_exp_or_inf(_log_tail(c, length, iterations, a0_norm)),
        step_gaps=tuple(gaps),
    )
    return SampledCurve(grid, pts), result


def frame_determinants(frames: np.ndarray) -> np.ndarray:
    return frames[:, 0, 0] * frames[:, 1, 1] - frames[:, 0, 1] * frames[:, 1, 0]


def bound_check(mu1, mu2, length: float) -> BoundReport:
    """Certify the affine reconstruction-distance bound for two curvatures.

    Both curves are rebuilt with canonical initial data (realizing the
    registering map) on one grid; their pointwise distance
    max_alpha |c1(alpha) - c2(alpha)| on it is compared against
    sqrt(2) * (delta L / c_hat) * (e^(c_hat L) - 1), with delta = sup |mu1 - mu2|
    and c_hat = max(1, sup |mu1|, sup |mu2|) on the 4097-node probe.
    """
    v1, v2 = probe(mu1, length), probe(mu2, length)
    delta, c_hat = sup_norm(v1 - v2), max(1.0, sup_norm(v1), sup_norm(v2))
    if delta == 0.0:
        bound = 0.0
    else:
        grow = _exp_or_inf(c_hat * length, math.expm1)  # inf is fine: the bound is then vacuous
        bound = math.sqrt(2.0) * delta * length / c_hat * grow

    tol = max(1e-13, min(1e-10, 0.01 * bound)) if bound > 0 else 1e-13
    n_iter, n_grid, _ = _plan(c_hat, length, 1.0, tol=tol)
    c1, r1 = picard(mu1, length, n_grid=n_grid, iterations=n_iter, tol=tol)
    c2, r2 = picard(mu2, length, n_grid=n_grid, iterations=n_iter, tol=tol)
    measured = grid_distance(c1, c2)
    floor = max(1e-12, 2.0 * length * (r1.tail_bound + r2.tail_bound))
    return BoundReport(
        mode="affine",
        norm="linf",
        delta=delta,
        length=length,
        c_hat=c_hat,
        bound=bound,
        measured=measured,
        solver_floor=floor,
    )
