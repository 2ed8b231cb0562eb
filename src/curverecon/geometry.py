"""Planar group elements, finite differences, norms, and curve distances.

The group elements are equi-affine maps: a unimodular linear part ``M`` plus a
translation ``v``.  A rigid motion is an equi-affine map whose linear part is
orthogonal, so :class:`RigidMotion` subclasses :class:`EquiAffineMap` and
inherits its action, inverse and composition.  Points and vectors are rows;
a map acts by ``p -> p @ inv(M) + v`` and composition is
``(M1, v1) * (M2, v2) = (M1 @ M2, v2 @ inv(M1) + v1)``.  Keeping the inverse
in the action makes composition associative for non-commuting matrix parts.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EquiAffineMap",
    "RigidMotion",
    "SampledCurve",
    "BoundReport",
    "derivatives",
    "grid_distance",
    "hausdorff_distance",
    "sup_norm",
]


def _inv2(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


@dataclass(frozen=True)
class EquiAffineMap:
    """Area- and orientation-preserving affine map: unimodular part (det 1 within 1e-9) plus translation."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.linear, dtype=float).reshape(2, 2)
        v = np.asarray(self.translation, dtype=float).reshape(2)
        if not (np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValueError("map entries must be finite")
        if abs(np.linalg.det(m) - 1.0) > 1e-9:
            raise ValueError("linear part must have determinant 1")
        object.__setattr__(self, "linear", m)
        object.__setattr__(self, "translation", v)

    def apply(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return p @ _inv2(self.linear) + self.translation

    def inverse(self) -> "EquiAffineMap":
        return type(self)(_inv2(self.linear), -self.translation @ self.linear)

    def compose(self, other: "EquiAffineMap") -> "EquiAffineMap":
        """Applying the result equals applying ``other`` then ``self``; rigid iff both are."""
        rigid = isinstance(self, RigidMotion) and isinstance(other, RigidMotion)
        return (RigidMotion if rigid else EquiAffineMap)(
            self.linear @ other.linear,
            other.translation @ _inv2(self.linear) + self.translation,
        )


class RigidMotion(EquiAffineMap):
    """Orientation-preserving rigid motion: an equi-affine map with orthogonal (within 1e-9) linear part."""

    def __post_init__(self):
        super().__post_init__()
        if np.abs(self.linear @ self.linear.T - np.eye(2)).max() > 1e-9:
            raise ValueError("rotation part is not orthogonal")

    @classmethod
    def from_angle(cls, theta: float, translation=(0.0, 0.0)) -> "RigidMotion":
        c, s = np.cos(theta), np.sin(theta)
        return cls(np.array([[c, -s], [s, c]]), np.asarray(translation, dtype=float))

    @property
    def angle(self) -> float:
        return float(np.arctan2(self.linear[1, 0], self.linear[0, 0]))


@dataclass(frozen=True)
class SampledCurve:
    """A curve as a strictly increasing parameter grid plus 2D sample points."""

    params: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.params, dtype=float).reshape(-1)
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if t.shape[0] != p.shape[0]:
            raise ValueError("params and points must have the same length")
        if t.shape[0] < 2:
            raise ValueError("a curve needs at least 2 samples")
        if not (np.isfinite(t).all() and np.isfinite(p).all()):
            raise ValueError("curve data must be finite")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("params must be strictly increasing")
        object.__setattr__(self, "params", t)
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return self.params.shape[0]

    @property
    def span(self) -> float:
        """Parameter length, params[-1] - params[0]."""
        return float(self.params[-1] - self.params[0])

    @property
    def endpoint_gap(self) -> float:
        return float(np.hypot(*(self.points[-1] - self.points[0])))

    def transformed(self, g) -> "SampledCurve":
        return SampledCurve(self.params, g.apply(self.points))


def sup_norm(values) -> float:
    """Max absolute value over grid samples (a lower bound of the continuum sup)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("sup_norm of an empty grid")
    return float(np.abs(v).max())


def _min_dist_to_segments(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each point, min distance to any segment [a_j, b_j]; ``a`` and ``b`` are
    (segments, 2), shared by every point, or (points, segments, 2), one set per point."""
    ab = b - a
    denom = np.einsum("...d,...d->...", ab, ab)
    ap = pts[:, None, :] - a
    t = np.einsum("...d,...d->...", ap, ab) / np.where(denom > 0.0, denom, 1.0)
    t = np.where(denom == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    d = ap - t[:, :, None] * ab
    return np.sqrt(np.einsum("psd,psd->ps", d, d).min(axis=1))


def _directed_hausdorff(p: np.ndarray, q: np.ndarray) -> float:
    from scipy.spatial import cKDTree

    # the distance to the two segments at a point's nearest vertex bounds its distance
    # to the polyline from above, so points are processed in decreasing order of that
    # bound and dropped once they cannot exceed the running maximum
    j = cKDTree(q).query(p)[1]
    lo, hi = np.maximum(j - 1, 0), np.minimum(j + 1, q.shape[0] - 1)
    near = _min_dist_to_segments(p, np.stack([q[lo], q[j]], axis=1), np.stack([q[j], q[hi]], axis=1))
    a, b = q[:-1], q[1:]
    order = np.argsort(-near)
    best = -1.0
    for start in range(0, order.size, 256):
        idx = order[start : start + 256]
        idx = idx[near[idx] > best]
        if idx.size == 0:
            break
        best = max(best, float(_min_dist_to_segments(p[idx], a, b).max()))
    return max(best, 0.0)


def hausdorff_distance(c1: SampledCurve, c2: SampledCurve) -> float:
    """Hausdorff distance between the polylines of two curves (point-to-segment both ways)."""
    return max(_directed_hausdorff(c1.points, c2.points), _directed_hausdorff(c2.points, c1.points))


def grid_distance(c1: SampledCurve, c2: SampledCurve) -> float:
    """Pointwise sup distance max_i |c1.points[i] - c2.points[i]| on a shared grid.

    This is the quantity the reconstruction-distance theorems bound, and it is
    never below the Hausdorff distance of the two polylines.  Curves on
    different parametrizations need :func:`hausdorff_distance` instead.
    """
    if not np.array_equal(c1.params, c2.params):
        raise ValueError("grid_distance needs two curves on the same parameter grid")
    d = c1.points - c2.points
    return float(np.sqrt(np.einsum("nd,nd->n", d, d)).max())


def derivatives(params: np.ndarray, values: np.ndarray):
    """First and second derivatives of samples ``values`` along axis 0 of ``params``.

    The first comes from ``np.gradient`` (central inside, one-sided second
    order at the ends).  On a uniform grid of at least 4 nodes the second is
    the pure second difference, with one-sided 4-point stencils at the ends;
    on any other grid it is ``np.gradient`` of the first.
    """
    t, v = params, np.asarray(values, dtype=float)
    d1 = np.gradient(v, t, axis=0, edge_order=2)
    steps = np.diff(t)
    if v.shape[0] >= 4 and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        # iterating np.gradient would lose an order at the ends
        h2 = steps[0] ** 2
        d2 = np.empty_like(v)
        d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
        d2[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        d2[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    else:
        d2 = np.gradient(d1, t, axis=0, edge_order=2)
    return d1, d2


@dataclass(frozen=True)
class BoundReport:
    """A guaranteed reconstruction-distance bound next to the measured distance.

    ``measured`` is the pointwise sup distance of the two rebuilt curves on
    their shared grid (:func:`grid_distance`), and ``bound`` is the certified
    value the ``satisfied`` verdict checks it against.  ``solver_floor`` is the
    numerical allowance added to ``bound`` so that a zero theoretical bound
    does not flag quadrature round-off as a violation.  The verdict is
    computed from these numbers, never stored.
    """

    mode: str
    norm: str
    delta: float
    length: float
    c_hat: float | None
    bound: float
    measured: float
    solver_floor: float

    @property
    def satisfied(self) -> bool:
        return self.measured <= self.bound + self.solver_floor
