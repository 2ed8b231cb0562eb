"""CSV persistence, JSON reports, and deterministic SVG plots.

CSV schemas: curves are ``s,x,y`` (``t,x,y`` accepted on read), sampled
functions are ``t,value`` or ``s,kappa``.  Floats round-trip at 17
significant digits.  SVG output is a pure function of its input, so
repeated runs are byte-identical.

Rows are formatted a chunk at a time: one ``%`` format of a row template
repeated for up to ``_CHUNK_ROWS`` rows, filled from the chunk's Python
floats (``%.17g`` per CSV cell, ``%.3f`` per SVG coordinate).  ``%`` and
``format`` hand a float to the same correctly rounded conversion
(CPython's ``PyOS_double_to_string``) with the same type and precision, so
the bytes equal those of ``format(x, ".17g")`` and ``f"{x:.3f}"`` cell by
cell, signed zeros, subnormals, infinities and NaN included.  The chunk
bound keeps each string built at once to a few megabytes whatever the row
count.
"""

import csv
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


_CHUNK_ROWS = 65536


def _formatted_chunks(row_template: str, table):
    """``row_template`` filled from each row of the 2-D float ``table``, one ``%`` format per chunk of rows."""
    for start in range(0, len(table), _CHUNK_ROWS):
        block = table[start:start + _CHUNK_ROWS]
        yield (row_template * len(block)) % tuple(block.ravel().tolist())


def _write_rows(path, header: str, *columns) -> None:
    """Write the rows, or refuse a non-finite cell, which the readers would refuse, before opening ``path``."""
    table = np.column_stack(columns).astype(float)
    _refuse_non_finite(path, table, header.split(","), range(2, len(table) + 2))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(_formatted_chunks(",".join(["%.17g"] * len(columns)) + "\n", table))


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
