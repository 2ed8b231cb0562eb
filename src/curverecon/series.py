"""Power-series reconstruction for affine curvature c * alpha^k.

The tangent solves T'' = -c a^k T, so its series coefficients obey a gapped
two-term recurrence with step K = k + 2: only powers congruent to 0 or 1
mod K survive, tied to the initial tangent and normal respectively.  The
coefficients are built by the multiplicative recurrence (stable, exactly
what the curve obeys); the rising-factorial / log-gamma closed form is kept
as an independent cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .affine import GRID_CAP
from .geometry import SampledCurve

__all__ = [
    "MonomialSeries",
    "SeriesTruncationError",
    "b_coefficients",
    "curve",
    "gamma_ratio_check",
    "tangent",
    "tangent_coefficients",
    "truncation_count",
]

TERM_CAP = 100_000


class SeriesTruncationError(RuntimeError):
    """Requested term tolerance unreachable within the term cap."""


@dataclass(frozen=True)
class MonomialSeries:
    """Series data for affine curvature c * alpha^k from the canonical frame T0 = (1, 0), N0 = (0, 1)."""

    c: float
    k: int
    term_tol: float = 1e-14

    def __post_init__(self):
        if self.k < 0 or int(self.k) != self.k:
            raise ValueError("exponent k must be a non-negative integer")

    @property
    def K(self) -> int:
        return self.k + 2


def truncation_count(ms: MonomialSeries, alpha_max: float) -> int:
    """Number of retained block terms so the next term bound is below tol.

    The i-th block term is bounded by |c|^i * a^(K i + 1) / (i! K^(2 i)); the
    count is the first index past the bound's peak where it drops below
    ``term_tol``.
    """
    a = abs(float(alpha_max))
    if ms.c == 0.0 or a == 0.0:
        return 0
    K = ms.K
    log_c, log_a = math.log(abs(ms.c)), math.log(a)
    peak = abs(ms.c) * a**K / K**2 if (K * log_a + log_c) < 700 else math.inf
    log_tol = math.log(ms.term_tol)
    for i in range(1, TERM_CAP + 1):
        log_term = i * log_c + (K * i + 1) * log_a - math.lgamma(i + 1) - 2 * i * math.log(K)
        if log_term < log_tol and i >= peak:
            return i
    raise SeriesTruncationError(
        f"term tolerance {ms.term_tol:.1e} unreachable within {TERM_CAP} terms at alpha={a!r}"
    )


def tangent_coefficients(ms: MonomialSeries, alpha_max: float):
    """Scalar coefficient ladders (u_i, v_i) of the two surviving power lines.

    u_i multiplies T0 * alpha^(K i), v_i multiplies N0 * alpha^(K i + 1);
    both start at 1 and follow u_i = -c u_(i-1) / (K i (K i - 1)) and
    v_i = -c v_(i-1) / (K i (K i + 1)).
    """
    m = truncation_count(ms, alpha_max)
    K = ms.K
    u = np.empty(m + 1)
    v = np.empty(m + 1)
    u[0] = v[0] = 1.0
    for i in range(1, m + 1):
        u[i] = -ms.c * u[i - 1] / ((K * i) * (K * i - 1))
        v[i] = -ms.c * v[i - 1] / ((K * i) * (K * i + 1))
    return u, v


def _eval_lines(alpha, K, coeffs, shift):
    """sum_i coeffs[i] * alpha^(K i + shift), vectorized via Horner in alpha^K."""
    a = np.asarray(alpha, dtype=float)
    z = a**K
    acc = np.zeros_like(a)
    for ci in coeffs[::-1]:
        acc = acc * z + ci
    return acc * a**shift


def tangent(ms: MonomialSeries, alpha):
    """Affine tangent T(alpha) of the monomial-curvature curve (truncated series)."""
    a = np.asarray(alpha, dtype=float)
    u, v = tangent_coefficients(ms, float(np.abs(a).max()))
    out = np.stack([_eval_lines(a, ms.K, u, 0), _eval_lines(a, ms.K, v, 1)], axis=-1)
    return out if a.ndim else out.reshape(2)


def curve(ms: MonomialSeries, length: float, n: int) -> SampledCurve:
    """Curve from termwise integration of the tangent series, origin (0,0), n <= affine.GRID_CAP."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    if n > GRID_CAP:
        raise ValueError(f"{n} samples exceed the cap of {GRID_CAP}")
    a = np.linspace(0.0, length, n)
    u, v = tangent_coefficients(ms, length)
    K = ms.K
    # float aranges: an exponent K beyond int64 would overflow an integer product
    iu = u / (K * np.arange(u.size, dtype=float) + 1.0)
    iv = v / (K * np.arange(v.size, dtype=float) + 2.0)
    pts = np.stack([_eval_lines(a, K, iu, 1), _eval_lines(a, K, iv, 2)], axis=1)
    return SampledCurve(a, pts)


def b_coefficients(c: float, k: int, n_max: int) -> np.ndarray:
    """Raw vector coefficients b_0..b_n of the tangent series from b_0 = T0, b_1 = N0 (direct recurrence)."""
    K = k + 2
    b = np.zeros((n_max + 1, 2))
    b[0] = (1.0, 0.0)
    if n_max >= 1:
        b[1] = (0.0, 1.0)
    for n in range(K, n_max + 1):
        b[n] = -c * b[n - K] / (n * (n - 1))
    return b


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
