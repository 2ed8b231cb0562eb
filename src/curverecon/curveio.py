"""CSV persistence, JSON reports, and deterministic SVG plots.

CSV schemas: curves are ``s,x,y`` (``t,x,y`` accepted on read), sampled
functions are ``t,value`` or ``s,kappa``.  Floats round-trip at 17
significant digits.  SVG output is a pure function of its input, so
repeated runs are byte-identical.

A CSV cell is the text of ``format(x, ".17g")``, made by numpy a chunk of
rows at a time.  For 1e-5 <= |x| < 1e16 with decimal exponent e,
|x| * 10**(16 - e) lies in [1e16, 1e17) and 10**(16 - e) is an exact
double, so Dekker's product gives it exactly as ``hi + lo``.  ``hi`` is an
even integer (above 2**53), so ``hi + rint(lo)`` is the 17-digit
significand rounded half to even, as CPython's correctly rounded
conversion rounds it.  ``log10`` may put e one off near a power of ten,
which way depending on the CPU kernel, so a significand outside
[1e16, 1e17) is computed again with e moved by one.  No double in range
lies within half a unit of the 17th digit below a power of ten, so an e
one too large always shows, and a significand of 1e17 is 1e16 at the next
exponent.  The digits are laid out as ``%g`` lays them out: fixed notation
for -4 <= e < 17, ``d.ddde-05`` below, trailing fraction zeros and a bare
point dropped.  Zeros, |x| < 1e-5 and |x| >= 1e16 are formatted by ``%``
itself, cell by cell.  SVG coordinates are ``%.3f``, one ``%`` format of a
row template per chunk of rows, which gives the bytes of ``f"{x:.3f}"``
cell by cell.  The chunk bound keeps a write's memory to a few megabytes
whatever the row count.
"""

import csv
import functools
import html
import json
import math

import numpy as np

from .geometry import BoundReport, SampledCurve

__all__ = [
    "CsvFormatError",
    "bound_report_json",
    "closure_report_json",
    "emit_svg",
    "read_curve_csv",
    "read_table_csv",
    "report_json",
    "write_curve_csv",
    "write_table_csv",
]


class CsvFormatError(ValueError):
    """Malformed CSV, read or about to be written; message carries the file and line number."""


def _parse_float(text: str, path, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise CsvFormatError(f"{path}:{line_no}: cannot parse number {text!r}") from None


def _refuse_non_finite(path, data, header, line_nos) -> None:
    not_finite = np.argwhere(~np.isfinite(data))
    if len(not_finite):
        r, c = not_finite[0]
        raise CsvFormatError(f"{path}:{line_nos[r]}: column {header[c]!r} reads as {float(data[r, c])}, "
                             "not a finite number")


def _read_rows(path, expected_headers):
    """Finite float rows under one of ``expected_headers``; the first column must strictly increase.

    A cell that does not parse is refused as its row is read, a cell that is not finite once every row has
    parsed; either way the message names the file line.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}:1: empty file") from None
        header = [h.strip() for h in header]
        for expect in expected_headers:
            if header == expect:
                break
        else:
            wanted = " or ".join(",".join(e) for e in expected_headers)
            missing = [c for c in expected_headers[0] if c not in header]
            what = f"missing column(s) {missing}" if missing else f"got {','.join(header)!r}"
            raise CsvFormatError(f"{path}:1: expected header {wanted!r}; {what}")
        rows, line_nos = [], []
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num  # a quoted field may span lines: count lines, not records
            if len(row) != len(header):
                raise CsvFormatError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append(list(map(float, row)))
            except ValueError:  # the slow path names the cell that does not parse
                rows.append([_parse_float(cell, path, line_no) for cell in row])
            line_nos.append(line_no)
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    _refuse_non_finite(path, data, header, line_nos)
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need at least 2 data rows")
    steps = np.diff(data[:, 0])
    if np.any(steps <= 0):
        bad = int(np.argmax(steps <= 0))
        raise CsvFormatError(f"{path}:{line_nos[bad + 1]}: parameter column not strictly increasing")
    return data


def read_curve_csv(path) -> SampledCurve:
    data = _read_rows(path, [["s", "x", "y"], ["t", "x", "y"]])
    return SampledCurve(data[:, 0], data[:, 1:3])


_CHUNK_ROWS = 8192


def _formatted_chunks(row_template: str, table):
    """``row_template`` filled from each row of the 2-D float ``table``, one ``%`` format per chunk of rows."""
    for start in range(0, len(table), _CHUNK_ROWS):
        block = table[start:start + _CHUNK_ROWS]
        yield (row_template * len(block)) % tuple(block.ravel().tolist())


_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles


def _veltkamp(v):
    """``v`` split exactly into ``hi + lo``, each of at most 26 significant bits."""
    c = 134217729.0 * v  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _significand(a, e):
    """``a * 10**(16 - e)`` rounded half to even to an int64, from Dekker's exact product ``hi + lo``."""
    k = 16 - e
    hi = a * _POW10[k]
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


# A cell is a row of 32 bytes: the sign, "0." and zeros for 1e-4 <= |x| < 1 (bytes 1-5), a free byte, the 17 digits
# (bytes 7-23), "e-05" (24-27) and the separator (28); NUL elsewhere.  The digits before the point move one byte left
# and the point takes the byte after them.  Tables below are indexed by e + 5 for e in [-5, 15].
_INT_DIGITS = np.array([1, 0, 0, 0, 0, *range(1, 17)])
_PREFIX = np.frombuffer(b"".join(b"\0" + (b"0." + b"0" * (-e - 1) if -5 < e < 0 else b"").ljust(7, b"\0")
                                 for e in range(-5, 16)), np.uint64)
_SUFFIX = np.frombuffer(b"e-05".ljust(84, b"\0"), np.uint32)
_SHIFTED = (255 * ((np.arange(32) >= 6) & (np.arange(32) < 6 + _INT_DIGITS[:, None]))).astype(np.uint8)


@functools.cache
def _digit_words():
    """Four ASCII digits per ``uint32``: ``%04d`` of 0-9999, the same with trailing zeros as NUL, then NUL NUL NUL d."""
    four = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    stripped = np.where(np.cumprod(four[:, ::-1] == 48, axis=1)[:, ::-1], 0, four)
    single = np.pad(np.arange(48, 58, dtype=np.uint8)[:, None], ((0, 0), (3, 0)))
    return np.concatenate([four, stripped, single]).view(np.uint32).ravel()


def _csv_text(block) -> bytes:
    """The 2-D float ``block`` as ``%.17g`` cells, comma-separated rows ending in newlines."""
    x = block.ravel()
    a = np.abs(x)
    exact = (a >= 1e-5) & (a < 1e16)
    a[~exact] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    d = _significand(a, e)
    off = (d < 10 ** 16) | (d >= 10 ** 17)
    e[off] += np.where(d[off] < 10 ** 16, -1, 1)
    d[off] = _significand(a[off], e[off])
    key = e + 5
    groups = np.empty((5, len(x)), np.intp)  # the first digit, then four groups of four digits
    zeros_after = True  # a group followed by zero groups only is written without its trailing zeros
    for i in (4, 3, 2, 1):
        q = d // 10 ** 4
        groups[i] = d - q * 10 ** 4 + 10000 * zeros_after
        zeros_after, d = groups[i] == 10000, q
    groups[0] = d + 20000
    cells = np.zeros((len(x), 8), np.uint32)
    cells[:, 1:6] = np.take(_digit_words(), groups).T
    cells[:, 6] = np.take(_SUFFIX, key)
    cells.view(np.uint64)[:, 0] |= np.take(_PREFIX, key)
    row = cells.view(np.uint8)
    row[:, 0] = 45 * (x < 0)
    flat = row.reshape(-1)
    # the integer digits move one byte left; "| 48" writes a dropped integer zero as "0" again
    flat ^= (flat ^ (np.roll(flat, -1) | 48)) & np.take(_SHIFTED, key, axis=0).reshape(-1)
    n_int = np.take(_INT_DIGITS, key)
    point = np.arange(6, flat.size, 32) + n_int
    flat[point] = np.where((n_int > 0) & (flat[point + 1] != 0), 46, 0)
    row.reshape(*block.shape, 32)[:, :, 28] = np.frombuffer(b"," * (block.shape[1] - 1) + b"\n", np.uint8)
    other = np.flatnonzero(~exact)
    row[other, :28] = np.array([b"%.17g" % v for v in x[other].tolist()], "S28").view(np.uint8).reshape(-1, 28)
    return row.tobytes().translate(None, b"\0")


def _write_rows(path, header: str, *columns) -> None:
    """Write the rows, or refuse a non-finite cell, which the readers would refuse, before opening ``path``."""
    table = np.column_stack(columns).astype(float)
    _refuse_non_finite(path, table, header.split(","), range(2, len(table) + 2))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            fh.write(_csv_text(table[start:start + _CHUNK_ROWS]))


def write_curve_csv(curve: SampledCurve, path) -> None:
    _write_rows(path, "s,x,y", curve.params, curve.points[:, 0], curve.points[:, 1])


def read_table_csv(path):
    """Sampled function from a ``t,value`` (or ``s,kappa``) CSV."""
    data = _read_rows(path, [["t", "value"], ["s", "kappa"]])
    return data[:, 0], data[:, 1]


def write_table_csv(grid, values, path) -> None:
    _write_rows(path, "t,value", grid, values)


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf", "#8c564b"]
_WIDTH, _HEIGHT, _MARGIN, _STROKE_WIDTH = 640, 480, 40, 1.5


def _svg_coords(points, scale, x0, y0, xmin, ymax):
    xs = x0 + (points[:, 0] - xmin) * scale
    ys = y0 + (ymax - points[:, 1]) * scale
    return "".join(_formatted_chunks("%.3f,%.3f ", np.column_stack([xs, ys])))[:-1]


def emit_svg(curves, path) -> None:
    """Write a 640x480 SVG 1.1 plot; identical input produces identical bytes.

    ``curves`` holds ``(curve, label)`` pairs, drawn with equal-aspect scaling
    (geometry is never sheared); a legend lists the non-empty labels, escaped.
    """
    if not curves:
        raise ValueError("nothing to plot")
    pts = np.concatenate([c.points for c, _ in curves])
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    dx, dy = xmax - xmin, ymax - ymin
    if dx == 0.0 and dy == 0.0:
        raise ValueError("zero-area bounding box")
    # pad a flat direction so the scale stays finite
    if dx == 0.0:
        xmin -= 0.05 * dy
        dx = 0.1 * dy
    if dy == 0.0:
        ymin -= 0.05 * dx
        dy = 0.1 * dx
    xmax, ymax = xmin + dx, ymin + dy

    avail_w = _WIDTH - 2 * _MARGIN
    avail_h = _HEIGHT - 2 * _MARGIN
    scale = min(avail_w / dx, avail_h / dy)
    x0 = _MARGIN + (avail_w - dx * scale) / 2.0
    y0 = _MARGIN + (avail_h - dy * scale) / 2.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for i, (curve, _) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        coords = _svg_coords(curve.points, scale, x0, y0, xmin, ymax)
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{_STROKE_WIDTH}" points="{coords}"/>'
        )
    if any(label for _, label in curves):
        lines.append('<g id="legend" font-family="monospace" font-size="12">')
        row = 0
        for i, (_, label) in enumerate(curves):
            if not label:
                continue
            color = _PALETTE[i % len(_PALETTE)]
            y = _MARGIN + 14 * row
            lines.append(f'<line x1="{_MARGIN}" y1="{y}" x2="{_MARGIN + 18}" y2="{y}" '
                         f'stroke="{color}" stroke-width="2"/>')
            text = html.escape(label, quote=False)
            lines.append(f'<text x="{_MARGIN + 24}" y="{y + 4}" fill="#333333">{text}</text>')
            row += 1
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def report_json(fields: dict) -> str:
    """JSON object of ``fields`` with a non-finite float written as ``null`` (RFC 8259 has no inf or NaN)."""
    return json.dumps(
        {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in fields.items()},
        allow_nan=False,
    )


def bound_report_json(report: BoundReport) -> str:
    c_hat = None if report.c_hat is None else float(report.c_hat)
    return report_json(
        {
            "mode": report.mode,
            "norm": report.norm,
            "delta": float(report.delta),
            "L": float(report.length),
            "c_hat": c_hat,
            "bound": float(report.bound),
            "measured": float(report.measured),
            "satisfied": bool(report.satisfied),
        }
    )


def closure_report_json(report) -> str:
    return report_json(
        {
            "ratio": report.ratio_string,
            "closed": bool(report.predicted_closed),
            "turning": None if report.turning_number is None else int(report.turning_number),
            "symmetry": None if report.symmetry_index is None else int(report.symmetry_index),
            "minimal_period": None if report.minimal_period is None else float(report.minimal_period),
        }
    )
