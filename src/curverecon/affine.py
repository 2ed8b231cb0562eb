"""Equi-affine conic solutions, Picard reconstruction from affine curvature, distance bounds.

The frame rows (affine tangent and normal) satisfy a linear ODE whose
coefficient matrix holds the affine curvature.  Reconstruction targets the
fixed point of the iteration ``A_n = A0 + integral(C * A_{n-1})`` (Simpson
on the grid).  A run given a sweep count applies exactly that many sweeps and
certifies their truncation with an a-priori tail bound; every other run solves
for the fixed point in one pass, on a grid sized by its tolerance.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundReport, EquiAffineMap, SampledCurve, grid_distance, sup_norm
from .geometry import hausdorff_distance  # noqa: F401  perfbench/tracer.py wraps this attribute
from .quadrature import GRID_CAP, cumulative_simpson, finite_values, odd_sample_count, probe, require_positive

__all__ = [
    "PicardResult",
    "bound_check",
    "conic",
    "conic_frames",
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
    """Frames of one Picard run plus the certified truncation data of its sweeps.

    The frames sit on the grid of the returned curve, ``curve.params``.  A run
    that sweeps records one ``step_gaps`` entry per sweep, and its a-priori
    ``tail_bound`` covers the truncation after them; a direct solve of the sweeps'
    fixed point runs none, leaves ``step_gaps`` empty and has ``tail_bound`` 0.0.
    ``frames`` is entry-major, an ``(n, 2, 2)`` view of a C-ordered ``(2, 2, n)``
    array, so each sweep works on runs of n nodes.
    """

    frames: np.ndarray
    c: float
    tail_bound: float
    step_gaps: tuple = field(default=(), compare=False)

    @property
    def iterations(self) -> int:
        """The number of sweeps run."""
        return len(self.step_gaps)

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


def _plan(c: float, length: float, n_grid=None, iterations=None, tol=None) -> int:
    """The grid size of one Picard run, fixed before any work.

    ``n_grid``, else 32 L sqrt(c) / pi nodes for a sweeps-only run (``iterations``
    given), else enough that h^4 c L <= 0.01 tol (tol 1e-10 by default) and at least
    4 L sqrt(c) / pi; a derived grid is clamped to [1025, GRID_CAP], and every grid is
    made odd.  Refused (``ValueError``): ``n_grid`` < 16 or > GRID_CAP and,
    for a sweeps-only run, ``iterations`` > ITERATION_CAP or more than WORK_CAP
    node-sweeps.
    """
    if n_grid is not None and n_grid < 16:
        raise ValueError(f"n_grid must be at least 16, got {n_grid}")
    if n_grid is not None and n_grid > GRID_CAP:
        raise ValueError(f"{n_grid} grid nodes exceed the cap of {GRID_CAP}")
    if iterations is not None and iterations > ITERATION_CAP:
        raise ValueError(f"{iterations} sweeps exceed the cap of {ITERATION_CAP}")
    if n_grid is None:
        if iterations is not None:
            n_grid = math.ceil(min(32.0 * length * math.sqrt(c) / math.pi, GRID_CAP))
        else:
            h = (0.01 * (1e-10 if tol is None else tol) / (c * length)) ** 0.25
            steps = math.ceil(min(length / h, GRID_CAP)) if h > 0.0 else GRID_CAP
            n_grid = max(steps + 1, math.ceil(min(4.0 * length * math.sqrt(c) / math.pi, GRID_CAP)))
        n_grid = min(GRID_CAP, max(1025, n_grid))
    n_grid = odd_sample_count(int(n_grid))
    if iterations is not None and iterations * n_grid > WORK_CAP:
        raise ValueError(f"{iterations} sweeps x {n_grid} nodes exceed the work cap of {WORK_CAP}")
    return n_grid


# the sweeps converge while h^2 max|mu| stays below this root of 9 - 3s - s^2 (see _fixed_point_frames)
_STEP_CURVATURE_LIMIT = (3.0 * math.sqrt(5.0) - 3.0) / 2.0


def _fixed_point_frames(mu_vals: np.ndarray, h: float, A0: np.ndarray, mu_max: float) -> np.ndarray:
    """The frames that Picard's Simpson sweeps converge to, in one pass, entry-major.

    The fixed point solves, on each node pair (2j, 2j+1, 2j+2), the 3-stage
    Lobatto IIIA collocation equations with step 2h (Hairer & Wanner, *Solving
    ODEs II*, IV.5), which are linear: A_{2j+2} = T_j A_{2j} and A_{2j+1} = S_j A_{2j}
    in closed form, with D = h^4 mu1 mu2 + 3 h^2 mu1 + 9.  Below _STEP_CURVATURE_LIMIT every
    D >= 9 - 3s - s^2 > 0 (s = h^2 mu_max, mu_max = max|mu_vals|), and a grid at or above it is
    refused.  The even frames are the prefix products T_j ... T_0 A0, by doubling (Blelloch 1990).
    """
    if (s := h * h * mu_max) >= _STEP_CURVATURE_LIMIT:
        raise ValueError(f"h^2 max|mu| = {s:.6g} on {mu_vals.size} nodes is at least {_STEP_CURVATURE_LIMIT:.6g}, "
                         "where Picard sweeps diverge; use more samples")
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

    With ``iterations``, applies exactly that many sweeps, and the returned
    :class:`PicardResult` carries the certified ``tail_bound`` of their truncation.
    Otherwise returns the sweeps' fixed point, solved in one pass by
    :func:`_fixed_point_frames` on a grid sized by ``tol`` (default 1e-10); a grid
    with h^2 max|mu| >= _STEP_CURVATURE_LIMIT, on which the sweeps would diverge,
    is refused.  ``tol`` excludes ``iterations`` and ``n_grid``, and must be positive and
    finite, as the length must; ``iterations`` must not be negative.  :func:`_plan` sets
    the grid and refuses over-cap runs before any work.  Without ``pose`` the curve
    has canonical initial data (origin, identity frame); with it, the initial frame
    is the inverse of ``pose``'s linear part and the curve starts at its
    translation, which is ``pose`` applied to the canonical curve.
    """
    require_positive(length, "length must be positive")
    if iterations is not None and tol is not None:
        raise ValueError("iterations and tol exclude each other")
    if tol is not None:
        if n_grid is not None:
            raise ValueError("n_grid and tol exclude each other")
        require_positive(tol, "tol must be a positive finite number")
    if iterations is not None and iterations < 0:
        raise ValueError(f"iterations must be at least 0, got {iterations}")
    A0, origin = (np.eye(2), np.zeros(2)) if pose is None else (pose.inverse().linear, pose.translation)

    c = max(1.0, sup_norm(probe(mu, length)))
    n_grid = _plan(c, length, n_grid, iterations, tol)

    grid = np.linspace(0.0, length, n_grid)
    h = grid[1] - grid[0]
    mu_vals = finite_values(mu, grid)  # a NaN can sit between the probe's nodes
    mu_max = float(np.abs(mu_vals).max())
    c = max(1.0, mu_max, c)

    gaps = []
    if iterations is not None:
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
        tail_bound = _exp_or_inf(_log_tail(c, length, iterations, sup_norm(A0)))
    else:
        frames = _fixed_point_frames(mu_vals, h, A0, mu_max)
        tail_bound = 0.0

    pts = cumulative_simpson(frames[:, 0, :], h)
    pts += origin
    result = PicardResult(frames=frames, c=c, tail_bound=tail_bound, step_gaps=tuple(gaps))
    return SampledCurve(grid, pts), result


def bound_check(mu1, mu2, length: float) -> BoundReport:
    """Certify the affine reconstruction-distance bound for two curvatures.

    Both curves are rebuilt by direct solves with canonical initial data
    (realizing the registering map) on one grid; their pointwise distance
    max_alpha |c1(alpha) - c2(alpha)| on it is compared against
    sqrt(2) * (delta L / c_hat) * (e^(c_hat L) - 1), with delta = sup |mu1 - mu2|
    and c_hat = max(1, sup |mu1|, sup |mu2|) on the 4097-node probe.  The shared
    grid is sized as :func:`picard` sizes a direct run, from c_hat and a tol of
    0.01 bound clamped to [1e-13, 1e-10], and each curvature is sampled on it once.
    ``solver_floor`` is a stated round-off floor of 1e-12: a direct solve has no
    truncation, and its discretization error is not yet bounded.
    """
    require_positive(length, "length must be positive")
    v1, v2 = probe(mu1, length), probe(mu2, length)
    delta, c_hat = sup_norm(v1 - v2), max(1.0, sup_norm(v1), sup_norm(v2))
    if delta == 0.0:
        bound = 0.0
    else:
        grow = _exp_or_inf(c_hat * length, math.expm1)  # inf is fine: the bound is then vacuous
        bound = math.sqrt(2.0) * delta * length / c_hat * grow

    tol = max(1e-13, min(1e-10, 0.01 * bound)) if bound > 0 else 1e-13
    grid = np.linspace(0.0, length, _plan(c_hat, length, tol=tol))
    h, curves = grid[1] - grid[0], []
    for mu in (mu1, mu2):  # the direct solve of picard(mu, length, n_grid=grid.size)
        mu_vals = finite_values(mu, grid)
        frames = _fixed_point_frames(mu_vals, h, np.eye(2), float(np.abs(mu_vals).max()))
        curves.append(SampledCurve(grid, cumulative_simpson(frames[:, 0, :], h)))
    return BoundReport(
        mode="affine",
        norm="linf",
        delta=delta,
        length=length,
        c_hat=c_hat,
        bound=bound,
        measured=grid_distance(*curves),
        solver_floor=1e-12,
    )
