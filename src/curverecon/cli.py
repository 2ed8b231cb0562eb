"""Command-line surface: reconstruct curves, classify closedness, certify bounds.

Exit codes: 0 success, 2 unparseable curvature spec or bad usage, 3 solver
failure, 4 certified bound violated (a regression tripwire for CI).
"""

import argparse
import math
import re
import sys

import numpy as np

from . import affine, euclidean, series
from .curvatures import MonomialCurvature, SpecParseError, parse_spec_cli
from .curveio import (
    CsvFormatError,
    bound_report_json,
    closure_report_json,
    emit_svg,
    report_json,
    write_curve_csv,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_BOUND = 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="curverecon",
        description="Reconstruct planar curves from prescribed Euclidean or equi-affine curvature.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("reconstruct", help="integrate a curvature spec into a curve")
    rec.add_argument("mode", choices=["euclid", "affine", "series"])
    rec.add_argument("--curvature", required=True, metavar="SPEC",
                     help="e.g. const:2, sinusoid:1,1,1/3, kn:5/3, mun:2/5, monomial:1,1, table:f.csv")
    rec.add_argument("--domain", required=True, metavar="A:B", help="parameter interval")
    rec.add_argument("--samples", type=int, default=None, metavar="N")
    rec.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="fixed sweep count (affine mode; excludes --tol)")
    rec.add_argument("--tol", type=float, default=None, metavar="EPS",
                     help="certified tail tolerance (affine) or term tolerance (series)")
    rec.add_argument("--out", default=None, metavar="PATH", help="curve CSV output")
    rec.add_argument("--svg", default=None, metavar="PATH", help="plot output")

    cla = sub.add_parser("classify", help="closedness prediction for a periodic curvature")
    cla.add_argument("--curvature", required=True, metavar="SPEC")
    cla.add_argument("--period", type=float, required=True, metavar="L")

    cmp_ = sub.add_parser("compare", help="certify the distance bound for two curvatures")
    cmp_.add_argument("mode", choices=["euclid", "affine"])
    cmp_.add_argument("spec1", metavar="SPEC1")
    cmp_.add_argument("spec2", metavar="SPEC2")
    cmp_.add_argument("--domain", required=True, metavar="A:B")
    cmp_.add_argument("--norm", choices=["linf", "l1"], default="linf")
    return p


class _UsageError(ValueError):
    pass


def _parse_domain(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"domain must be '<a>:<b>', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"domain bounds must be numbers, got {text!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _UsageError(f"domain bounds must be finite, got {text!r}")
    if not b > a:
        raise _UsageError(f"domain needs b > a, got {text!r}")
    if b - a < sys.float_info.min:
        raise _UsageError(f"domain length {b - a!r} is subnormal, below {sys.float_info.min!r}, got {text!r}")
    return a, b


def _shifted(spec, offset: float):
    """``t -> spec(offset + t)``: the one place a domain start is applied, since the library integrates from 0."""
    if offset == 0.0:
        return spec
    return lambda t: spec(offset + t)


# the reconstruct flags a mode does not read: refused, so none is dropped without a word
_UNREAD = {"euclid": ("iterations", "tol"), "affine": (), "series": ("iterations",)}


def _cmd_reconstruct(args) -> int:
    for flag in _UNREAD[args.mode]:
        if getattr(args, flag) is not None:
            raise _UsageError(f"--{flag} is not read in {args.mode} mode")
    if args.iterations is not None and args.tol is not None:
        raise _UsageError("--iterations and --tol exclude each other")
    spec = parse_spec_cli(args.curvature)
    a, b = _parse_domain(args.domain)
    length = b - a
    if args.samples is not None and args.samples < 16:
        raise _UsageError("--samples must be at least 16")
    if args.iterations is not None and args.iterations < 0:
        raise _UsageError(f"--iterations must be at least 0, got {args.iterations}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise _UsageError(f"--tol must be a positive finite number, got {args.tol!r}")

    if args.mode == "euclid":
        curve = euclidean.reconstruct(_shifted(spec, a), length, n=args.samples)
        extras = {}
    elif args.mode == "affine":
        curve, result = affine.picard(
            _shifted(spec, a), length, n_grid=args.samples, iterations=args.iterations, tol=args.tol
        )
        extras = {"iterations": result.iterations, "c": result.c, "tail_bound": result.tail_bound}
    else:
        if not isinstance(spec, MonomialCurvature):
            raise _UsageError("series mode needs a 'monomial:<c>,<k>' curvature")
        if a != 0.0:
            raise _UsageError("series mode integrates from 0; use a domain '0:<b>'")
        tol = args.tol or 1e-14
        curve = series.curve(spec, length, args.samples or 4097, tol)
        extras = {"terms": series.truncation_count(spec, length, tol)}
    try:
        if args.out:
            write_curve_csv(curve, args.out)
        if args.svg:
            emit_svg(((curve, args.curvature),), args.svg)
    except OSError as exc:
        raise _UsageError(f"{exc.filename or 'output'}: cannot write: {exc.strerror or exc}") from None
    summary = {"mode": args.mode, "length": length, "endpoint_gap": curve.endpoint_gap, "samples": len(curve)}
    print(report_json(summary | extras))
    return EXIT_OK


def _cmd_classify(args) -> int:
    spec = parse_spec_cli(args.curvature)
    if not (math.isfinite(args.period) and args.period > 0):
        raise _UsageError(f"--period must be a positive finite number, got {args.period!r}")
    report = euclidean.classify_closure(spec, period=args.period)
    print(closure_report_json(report))
    return EXIT_OK


def _cmd_compare(args) -> int:
    if args.mode == "affine" and args.norm != "linf":
        raise _UsageError(f"compare affine certifies only --norm linf, got {args.norm!r}")
    s1 = parse_spec_cli(args.spec1)
    s2 = parse_spec_cli(args.spec2)
    a, b = _parse_domain(args.domain)
    length = b - a
    if args.mode == "euclid":
        report = euclidean.bound_check(_shifted(s1, a), _shifted(s2, a), length, norm=args.norm)
    else:
        report = affine.bound_check(_shifted(s1, a), _shifted(s2, a), length)
    print(bound_report_json(report))
    return EXIT_OK if report.satisfied else EXIT_BOUND


def _join_negative_domain(argv):
    """``--domain -1:1`` as ``--domain=-1:1``: argparse would take a value starting with '-' for a flag.

    An abbreviation that argparse accepts for ``--domain`` (``--dom``) is joined too.
    """
    out = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--domain".startswith(out[-1]) and re.match(r"-[\d.]", arg):
            out[-1] = f"--domain={arg}"
        else:
            out.append(arg)
    return out


# a non-finite value is refused or printed as null, so numpy's floating-point warnings would only add noise
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_domain(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "reconstruct":
            return _cmd_reconstruct(args)
        if args.command == "classify":
            return _cmd_classify(args)
        return _cmd_compare(args)
    except (SpecParseError, CsvFormatError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
