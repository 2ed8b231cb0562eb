"""Power-series reconstruction for affine curvature c * alpha^k.

The tangent solves T'' = -c a^k T, so its series coefficients obey a gapped
two-term recurrence with step K = k + 2: only powers congruent to 0 or 1
mod K survive, tied to the initial tangent and normal respectively.  The
coefficients are built by the multiplicative recurrence, which is stable and
is exactly what the curve obeys; the tests check it against the
rising-factorial closed form.
"""

import math

import numpy as np

from .curvatures import MonomialCurvature
from .geometry import SampledCurve
from .quadrature import GRID_CAP

__all__ = [
    "curve",
    "tangent",
    "tangent_coefficients",
    "truncation_count",
]

TERM_CAP = 100_000


def truncation_count(mu: MonomialCurvature, alpha_max: float, tol: float = 1e-14) -> int:
    """Number of retained block terms so the next term bound is below ``tol``.

    With K = k + 2, the i-th block term is bounded by
    |c|^i * a^(K i + 1) / (i! K^(2 i)); the count is the first index past the
    bound's peak where it drops below ``tol``.
    """
    a = abs(float(alpha_max))
    c = float(mu.c)
    if c == 0.0 or a == 0.0:
        return 0
    K = mu.k + 2
    log_c, log_a = math.log(abs(c)), math.log(a)
    with np.errstate(over="ignore"):  # np.float64: a peak past double range is inf, which no count reaches
        peak = abs(c) * np.float64(a) ** K / K**2
    log_tol = math.log(tol)
    for i in range(1, TERM_CAP + 1):
        log_term = i * log_c + (K * i + 1) * log_a - math.lgamma(i + 1) - 2 * i * math.log(K)
        if log_term < log_tol and i >= peak:
            return i
    raise ValueError(f"term tolerance {tol:.1e} unreachable within {TERM_CAP} terms at alpha={a!r}")


def tangent_coefficients(mu: MonomialCurvature, alpha_max: float, tol: float = 1e-14):
    """Scalar coefficient ladders (u_i, v_i) of the two surviving power lines.

    u_i multiplies T0 * alpha^(K i), v_i multiplies N0 * alpha^(K i + 1);
    both start at 1 and follow u_i = -c u_(i-1) / (K i (K i - 1)) and
    v_i = -c v_(i-1) / (K i (K i + 1)).  The alternating sum loses every digit
    below 2^-53 times its largest term, so a round-off above ``tol`` is refused.
    """
    m = truncation_count(mu, alpha_max, tol)
    K = mu.k + 2
    c = float(mu.c)
    a = abs(float(alpha_max))
    # log |u_i| a^(K i) and log |v_i| a^(K i + 1): the ladder underflows long before its terms do
    j = K * np.arange(1.0, m + 1.0)
    with np.errstate(divide="ignore"):  # a zero c or alpha leaves log 0 = -inf
        log_step = np.log(abs(c)) + K * np.log(a)
        log_terms = np.concatenate([[0.0, np.log(a)], np.cumsum(log_step - np.log(j * (j - 1.0))),
                                    np.log(a) + np.cumsum(log_step - np.log(j * (j + 1.0)))])
    if log_terms.max() - 53.0 * math.log(2.0) > math.log(tol):
        raise ValueError(f"series round-off 2^-53 x 10^{log_terms.max() / math.log(10.0):.1f} "
                         f"exceeds the term tolerance {tol:.1e} at alpha={a!r}")
    u = np.empty(m + 1)
    v = np.empty(m + 1)
    u[0] = v[0] = 1.0
    for i in range(1, m + 1):
        u[i] = -c * u[i - 1] / ((K * i) * (K * i - 1))
        v[i] = -c * v[i - 1] / ((K * i) * (K * i + 1))
    return u, v


def _eval_lines(alpha, K, coeffs, shift):
    """sum_i coeffs[i] * alpha^(K i + shift), by Horner's rule in alpha^K."""
    a = np.asarray(alpha, dtype=float)
    return np.polynomial.polynomial.polyval(a**K, coeffs) * a**shift


def tangent(mu: MonomialCurvature, alpha, tol: float = 1e-14):
    """Affine tangent T(alpha) from T(0) = (1, 0), T'(0) = (0, 1) (truncated series)."""
    a = np.asarray(alpha, dtype=float)
    u, v = tangent_coefficients(mu, float(np.abs(a).max()), tol)
    K = mu.k + 2
    return np.stack([_eval_lines(a, K, u, 0), _eval_lines(a, K, v, 1)], axis=-1)


def curve(mu: MonomialCurvature, length: float, n: int, tol: float = 1e-14) -> SampledCurve:
    """Curve from termwise integration of the tangent series, origin (0,0), n <= GRID_CAP."""
    if n > GRID_CAP:
        raise ValueError(f"{n} samples exceed the cap of {GRID_CAP}")
    u, v = tangent_coefficients(mu, length, tol)
    a = np.linspace(0.0, length, n)
    K = mu.k + 2
    # float aranges: an exponent K beyond int64 would overflow an integer product
    iu = u / (K * np.arange(u.size, dtype=float) + 1.0)
    iv = v / (K * np.arange(v.size, dtype=float) + 2.0)
    pts = np.stack([_eval_lines(a, K, iu, 1), _eval_lines(a, K, iv, 2)], axis=1)
    return SampledCurve(a, pts)
