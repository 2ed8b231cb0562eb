"""Cumulative quadrature on uniform grids.

Both reconstruction paths integrate twice (curvature -> tangent -> curve),
so the running integral must be available at every grid node, not just the
endpoint.  Composite Simpson gives the values at even nodes; odd nodes get
the integral of the local quadratic over the leading half of the pair.
"""

import numpy as np

GRID_CAP = 300_001  # the most nodes an affine (Picard or series) grid may have


def odd_sample_count(n: int) -> int:
    """Smallest odd count >= n (Simpson pairs need an even interval count)."""
    if n < 3:
        raise ValueError("need at least 3 samples")
    return n if n % 2 == 1 else n + 1


def finite_values(f, nodes: np.ndarray) -> np.ndarray:
    """Values of ``f`` at ``nodes``, as floats; the first non-finite one is refused (``ValueError``)."""
    values = np.asarray(f(nodes), dtype=float)
    if not np.isfinite(values).all():
        i = np.argmin(np.isfinite(values))
        raise ValueError(f"curvature {values[i]} at parameter {float(nodes[i])!r} past the domain start is not finite")
    return values


def probe(f, length: float) -> np.ndarray:
    """Values of ``f`` at 4097 uniform nodes of [0, length], as finite floats.

    Sizes a curvature before any grid is chosen: the sample counts, sweep
    counts and bounds built on it take its ``sup_norm``, so a NaN is refused (``max(1.0, nan)`` is 1.0).
    """
    return finite_values(f, np.linspace(0.0, length, 4097))


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running integral of uniformly sampled ``y`` along axis 0.

    ``y`` may be scalar- or array-valued per node (shape ``(n, ...)``).
    Requires an odd node count; exact for cubics at even nodes, for
    quadratics at odd nodes, O(h^4) accurate overall.  The output keeps ``y``'s memory layout
    (``empty_like`` and the ufuncs follow it); :func:`~curverecon.affine.picard` relies on that.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError(f"cumulative Simpson needs an odd sample count >= 3, got {n}")
    if dx <= 0:
        raise ValueError("dx must be positive")

    out = np.empty_like(y)
    out[0] = 0.0
    y0, y1, y2 = y[0:-2:2], y[1:-1:2], y[2::2]
    even = np.cumsum((y0 + 4.0 * y1 + y2) * (dx / 3.0), axis=0)
    out[2::2] = even
    # integral over the first half of each pair: quadratic through the 3 nodes
    half = (5.0 * y0 + 8.0 * y1 - y2) * (dx / 12.0)
    out[1] = half[0]
    out[3::2] = even[:-1] + half[1:]
    return out
