#!/usr/bin/env python3
"""Regenerate the full figure gallery as deterministic SVGs.

Every plot is a pure function of its inputs, so rerunning this script always
reproduces byte-identical files; the test suite relies on that.

Usage: python demos/figures.py [--outdir DIR]
"""

import argparse
import math
from pathlib import Path

from curverecon import affine, euclidean, parse_spec, series
from curverecon.curveio import emit_svg

PI = math.pi


def closed_sine_family(outdir: Path):
    """Bump-perturbed sine curvatures: short arcs, then the closed loops."""
    sin_spec = parse_spec("sinusoid:1,0,0")
    short = []
    for n in (10, 20, 40):
        short.append((euclidean.reconstruct(parse_spec(f"kn:{n}"), 2 * PI, 4097), f"kn:{n}"))
    short.append((euclidean.reconstruct(sin_spec, 2 * PI, 4097), "sin"))
    emit_svg(short, outdir / "bump_family_one_period.svg")

    loops = []
    for n in (10, 20, 40):
        loops.append(
            (euclidean.reconstruct(parse_spec(f"kn:{n}"), n * 2 * PI, 1024 * n + 1), f"kn:{n}")
        )
    loops.append((euclidean.reconstruct(sin_spec, 12 * PI, 12289), "sin"))
    emit_svg(loops, outdir / "bump_family_closed.svg")


def threefold_loop(outdir: Path):
    """The closed three-fold curve and its non-closing sibling."""
    k1 = parse_spec("sinusoid:1,1,1/3")
    k2 = parse_spec("sinusoid:1,1,1")
    emit_svg(
        ((euclidean.reconstruct(k1, 6 * PI, 12289), "sin+cos+1/3"),),
        outdir / "threefold_closed.svg",
    )
    emit_svg(
        ((euclidean.reconstruct(k2, 6 * PI, 12289), "sin+cos+1"),),
        outdir / "threefold_open.svg",
    )


def conics(outdir: Path):
    """Constant affine curvature: parabola, ellipse, hyperbola."""
    curves = (
        (affine.conic(0.0, 4.0, 1025), "mu=0 (parabola)"),
        (affine.conic(2.0, 2 * PI / math.sqrt(2.0), 1025), "mu=2 (ellipse)"),
        (affine.conic(-3.0, 2.0, 1025), "mu=-3 (hyperbola)"),
    )
    emit_svg(curves, outdir / "constant_affine_curvature.svg")


def picard_loop(outdir: Path):
    """Long fixed-iteration run of the oscillating affine curvature family."""
    mu = parse_spec("mun:2/5")
    curve, _ = affine.picard(mu, 22.0, iterations=200)
    emit_svg(((curve, "mun:2/5"),), outdir / "picard_loop.svg")


def monomial_series(outdir: Path):
    """Power-series curves for affine curvature alpha and alpha^2."""
    for k in (1, 2):
        curve = series.curve(parse_spec(f"monomial:1,{k}"), 3.0, 4097)
        emit_svg(
            ((curve, f"mu = alpha^{k}"),),
            outdir / f"monomial_series_k{k}.svg",
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures", help="output directory")
    args = ap.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    threefold_loop(outdir)
    closed_sine_family(outdir)
    conics(outdir)
    picard_loop(outdir)
    monomial_series(outdir)
    for f in sorted(outdir.glob("*.svg")):
        print(f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
