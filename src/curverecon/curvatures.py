"""Curvature-function specifications: a small grammar, exact parameters, evaluation.

Grammar (one line, case-sensitive)::

    const:<c> | sinusoid:<a>,<b>,<c> | kn:<p>/<q> | mun:<p>/<q>
    | monomial:<c>,<k> | table:<path.csv>[,periodic]

Numbers are decimal or ``<int>/<int>`` (reduced).  Integers parse as exact
rationals; decimals as floats.  The ``kn``/``mun`` families require an exact
rational parameter so closedness arithmetic stays exact.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, pi

import numpy as np

__all__ = [
    "SpecParseError",
    "CurvatureSpec",
    "ConstantCurvature",
    "SinusoidCurvature",
    "SinePlusBump",
    "BumpPlusOneSquared",
    "MonomialCurvature",
    "TableCurvature",
    "bump",
    "parse_spec",
]

TWO_PI = 2.0 * pi

Number = Fraction | float


class SpecParseError(ValueError):
    """Malformed curvature-spec text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def bump(s):
    """Smooth bump: 0 for s <= 0, 1 at s = 1, 0 for s >= 2, C-infinity throughout.

    The bump is symmetric about 1, so the right piece is the left one at
    ``2 - s`` (exact, like ``1 - u``: Sterbenz).  The open piece is evaluated as
    a logistic sigmoid of the exponent difference, which keeps the values
    exact 0/1 once the exponent leaves double range instead of overflowing.
    """
    arr = np.asarray(s, dtype=float)
    out = np.zeros_like(arr)
    inside = (arr > 0.0) & (arr < 2.0) & (arr != 1.0)
    if inside.any():
        u = arr[inside]
        u = np.where(u > 1.0, 2.0 - u, u)
        g = 1.0 / u - 1.0 / (1.0 - u)  # e^{1/(1-s)} / (e^{1/s} + e^{1/(1-s)})
        out[inside] = 1.0 / (1.0 + np.exp(np.clip(g, -700.0, 700.0)))
    out[arr == 1.0] = 1.0
    return out


class CurvatureSpec:
    """Base class: callable curvature function with optional exact structure."""

    def __call__(self, t):
        raise NotImplementedError

    def turning_ratio(self, period: float) -> Fraction | float | None:
        """(1/2pi) * integral of the curvature over [0, period], computed as (mean * period) / 2pi.

        A ``Fraction`` when exact, a float when in closed form, ``None`` when quadrature is needed.
        """
        return None


def _is_natural_period(period: float, natural: float) -> bool:
    return abs(period - natural) <= 1e-8 * natural


@dataclass(frozen=True)
class ConstantCurvature(CurvatureSpec):
    value: Number

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), float(self.value))

    def turning_ratio(self, period):
        return float(self.value) * period / TWO_PI


@dataclass(frozen=True)
class SinusoidCurvature(CurvatureSpec):
    """a*sin(t) + b*cos(t) + c, natural period 2*pi."""

    a: Number
    b: Number
    c: Number

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return float(self.a) * np.sin(t) + float(self.b) * np.cos(t) + float(self.c)

    def turning_ratio(self, period):
        if not _is_natural_period(period, TWO_PI):
            return None
        return self.c if isinstance(self.c, Fraction) else float(self.c) * period / TWO_PI


@dataclass(frozen=True)
class SinePlusBump(CurvatureSpec):
    """sin(t) plus a (2*pi/r)-scaled bump on [0, 2], extended 2*pi-periodically.

    The bump integrates to exactly 1, so the mean over one period is exactly
    1/r, which makes the closedness ratio exact rational arithmetic.
    """

    r: Fraction

    def __post_init__(self):
        if self.r == 0:
            raise ValueError("kn ratio must be nonzero")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.sin(t) + (TWO_PI / float(self.r)) * bump(np.mod(t, TWO_PI))

    def turning_ratio(self, period):
        if _is_natural_period(period, TWO_PI):
            return Fraction(self.r.denominator, self.r.numerator)
        return None


@dataclass(frozen=True)
class BumpPlusOneSquared(CurvatureSpec):
    """(r*pi)^2 * (bump(t) + 1)^2 on [0, 2], extended 2-periodically."""

    r: Fraction

    def __call__(self, t):
        return (float(self.r) * pi) ** 2 * (bump(np.mod(np.asarray(t, dtype=float), 2.0)) + 1.0) ** 2


@dataclass(frozen=True)
class MonomialCurvature(CurvatureSpec):
    """c * t**k with integer k >= 0."""

    c: Number
    k: int

    def __post_init__(self):
        if self.k < 0 or int(self.k) != self.k:
            raise ValueError("monomial exponent must be a non-negative integer")

    def __call__(self, t):
        return float(self.c) * np.asarray(t, dtype=float) ** self.k


@dataclass(frozen=True, eq=False)
class TableCurvature(CurvatureSpec):
    """Tabulated curvature, linearly interpolated between the grid nodes."""

    grid: np.ndarray
    values: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float).reshape(-1)
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if g.size != v.size or g.size < 2:
            raise ValueError("table needs matching grid/value columns with >= 2 rows")
        if np.any(np.diff(g) <= 0):
            raise ValueError("table grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def turning_ratio(self, period):
        span = float(self.grid[-1] - self.grid[0])
        if abs(period - span) <= 1e-9 * span:
            # trapezoid is exact for a linearly interpolated table
            return float(np.trapezoid(self.values, self.grid)) / span * period / TWO_PI
        return None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.grid[0], self.grid[-1]
        if self.periodic:
            u = np.mod(t - lo, hi - lo) + lo
        else:
            if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
                raise ValueError(f"value outside table range [{lo}, {hi}] and table is not periodic")
            u = np.clip(t, lo, hi)
        return np.interp(u, self.grid, self.values)


_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_RATIONAL_RE = re.compile(r"^([+-]?\d+)/(\d+)$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_int(text: str, offset: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than Python's int-from-string limit
        raise SpecParseError(f"integer of {len(text)} characters is too long", offset) from None


def _parse_number(text: str, offset: int, rational_only: bool = False) -> Number:
    m = _RATIONAL_RE.match(text)
    if m:
        p, q = _parse_int(m.group(1), offset), _parse_int(m.group(2), offset)
        if q == 0:
            raise SpecParseError("zero denominator", offset)
        if gcd(abs(p), q) != 1:
            raise SpecParseError(f"rational {text!r} is not reduced", offset)
        value = Fraction(p, q)
    elif _INT_RE.match(text):
        value = Fraction(_parse_int(text, offset))
    elif _DECIMAL_RE.match(text):
        if rational_only:
            raise SpecParseError(
                f"{text!r}: this kind requires an exact rational (<int> or <int>/<int>)", offset
            )
        value = float(text)
    else:
        raise SpecParseError(f"cannot parse number {text!r}", offset)
    try:
        finite = isfinite(float(value))
    except OverflowError:
        finite = False
    if not finite:
        raise SpecParseError(f"number {text!r} does not fit a finite float", offset)
    return value


def _split_args(body: str, base_offset: int):
    parts = []
    pos = 0
    for piece in body.split(","):
        parts.append((piece, base_offset + pos))
        pos += len(piece) + 1
    return parts


def parse_spec(text: str) -> CurvatureSpec:
    """Parse one line of the spec grammar into a curvature object."""
    if ":" not in text:
        raise SpecParseError("expected '<kind>:<args>'", 0)
    kind, body = text.split(":", 1)
    body_off = len(kind) + 1
    if kind == "const":
        return ConstantCurvature(_parse_number(body, body_off))
    if kind == "sinusoid":
        args = _split_args(body, body_off)
        if len(args) != 3:
            raise SpecParseError("sinusoid takes exactly 3 numbers", body_off)
        a, b, c = (_parse_number(s, o) for s, o in args)
        return SinusoidCurvature(a, b, c)
    if kind == "kn" or kind == "mun":
        r = _parse_number(body, body_off, rational_only=True)
        if kind == "kn":
            if r == 0:
                raise SpecParseError("kn ratio must be nonzero", body_off)
            return SinePlusBump(r)
        return BumpPlusOneSquared(r)
    if kind == "monomial":
        args = _split_args(body, body_off)
        if len(args) != 2:
            raise SpecParseError("monomial takes '<c>,<k>'", body_off)
        c = _parse_number(*args[0])
        k_text, k_off = args[1]
        if not re.match(r"^\d+$", k_text):
            raise SpecParseError(f"monomial exponent must be a non-negative integer, got {k_text!r}", k_off)
        return MonomialCurvature(c, _parse_int(k_text, k_off))
    if kind == "table":
        periodic = False
        path = body
        if body.endswith(",periodic"):
            periodic = True
            path = body[: -len(",periodic")]
        if not path:
            raise SpecParseError("table needs a CSV path", body_off)
        from .curveio import read_table_csv

        grid, values = read_table_csv(path)
        return TableCurvature(grid, values, periodic=periodic)
    raise SpecParseError(f"unknown kind {kind!r}", 0)


def parse_spec_cli(text: str) -> CurvatureSpec:
    """Like :func:`parse_spec` but also accepts the shorthand ``sin``."""
    if text == "sin":
        return SinusoidCurvature(Fraction(1), Fraction(0), Fraction(0))
    return parse_spec(text)
