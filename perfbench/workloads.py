"""The benchmark's three request mixes and the oracle for every request.

Each workload is a fixed set of request classes with a per-pass weight.  The
seed picks one variant per class from a small set whose members do the same
amount of work (same grid, sweep count, sample count or output size), so a
class costs the same under every seed; it also shuffles each pass.

Weights place the reported percentiles well inside one class's block of the
sorted latencies (at least two requests per pass from either edge), so the
p50 and p90 do not jump between classes from run to run:

* ``affine-recon`` (30 per pass): p50 falls in the 15 ``mono12`` requests
  (ranks 9-23), p90 in the 6 ``mun35_L4`` requests (ranks 24-29).
* ``compare`` (31 per pass): p50 falls in the 24 Euclidean pairs (ranks
  1-24), p90 in the 5 ``affine_const2`` pairs (ranks 26-30).
* ``euclid-io`` (59 per pass): p50 falls in the 48 sub-millisecond classify
  and malformed requests (ranks 1-48), p90 in the 8 ``kn_out`` requests
  (ranks 51-58).  A sub-millisecond request after a large one runs with cold
  caches and takes ~1.5x as long; with 48 of 59 requests sub-millisecond the
  p50 sits among the warm ones, not on the slope between the two groups.
"""

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles as O

TWO_PI = 2.0 * math.pi
P = repr(TWO_PI)


@dataclass(frozen=True)
class Outcome:
    """What one CLI request returned: exit code, captured streams, output file bytes."""

    exit_code: object
    stdout: str
    stderr: str
    files: dict


@dataclass(frozen=True)
class Request:
    """One request class: the argv, the files it writes and its oracle."""

    argv: tuple
    check: Callable
    outputs: tuple = ()


@dataclass(frozen=True)
class Workload:
    requests: dict
    weights: dict
    setup: str
    cross_check: Callable = field(default=lambda outcomes: [])


def _summary(out: Outcome, problems: list, exit_code: int = 0):
    if out.exit_code != exit_code:
        problems.append(f"exit code {out.exit_code!r}, expected {exit_code}")
        return None
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        problems.append(f"stdout is not JSON: {out.stdout[:80]!r}")
        return None


def _close(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what} = {got!r}, reference {want!r}, tolerance {tol:g}")


def _at_most(problems, what, got, limit):
    if not got <= limit:
        problems.append(f"{what} = {got!r} exceeds {limit!r}")


def _affine_check(mu, start, length, sup_mu, endpoint_tol, tail_tol=None):
    """Endpoint against the reference ODE solve, c against the exact sup of mu."""

    def check(out):
        problems = []
        s = _summary(out, problems)
        if s is None:
            return problems
        ref = float(np.hypot(*O.affine_endpoint(mu, start, length)))
        _close(problems, "endpoint_gap", s["endpoint_gap"], ref, endpoint_tol)
        _close(problems, "c", s["c"], max(1.0, sup_mu), 1e-3 * max(1.0, sup_mu))
        if tail_tol is not None:
            _at_most(problems, "tail_bound", s["tail_bound"], tail_tol)
        return problems

    return check


def _curve_file_check(out, problems, path, reference, tol, samples):
    try:
        rows = O.read_curve_csv(out.files[path])
    except (KeyError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None
    if rows.shape != (samples, 3):
        problems.append(f"{os.path.basename(path)} has shape {rows.shape}, expected ({samples}, 3)")
        return None
    err = float(np.abs(rows[:, 1:] - reference(rows[:, 0])).max())
    _at_most(problems, f"{os.path.basename(path)} pointwise error", err, tol)
    return rows


def affine_recon(rng, outdir) -> Workload:
    """Picard-bound: every request but the series pair runs fixed-point sweeps."""
    req = {}
    mun25, mun35 = Fraction(2, 5), Fraction(3, 5)
    sup25, sup35 = 4.0 * (math.pi * 2 / 5) ** 2, 4.0 * (math.pi * 3 / 5) ** 2
    # mun is 2-periodic and L >= 2 covers a period, so a domain shift keeps
    # sup |mu|, and with it the sweep count and the grid
    for name, r, sup, length in (("mun25_L10", mun25, sup25, 10.0), ("mun25_L2", mun25, sup25, 2.0),
                                 ("mun35_L4", mun35, sup35, 4.0)):
        a = rng.choice((0.0, 0.5, 1.0, 1.5))
        req[name] = Request(
            ("reconstruct", "affine", "--curvature", f"mun:{r}", "--domain", f"{a}:{a + length}"),
            _affine_check(O.mun(r), a, length, sup, 1e-8, tail_tol=1e-10),
        )
    # the README example: 200 sweeps on L = 22 stop short of convergence (its
    # tail bound is 7.5e113), so the endpoint only gets a sanity tolerance
    req["readme_L22"] = Request(
        ("reconstruct", "affine", "--curvature", "mun:2/5", "--domain", "0:22", "--iterations", "200",
         "--svg", os.path.join(outdir, "readme.svg")),
        _readme_check(os.path.join(outdir, "readme.svg")),
        outputs=(os.path.join(outdir, "readme.svg"),),
    )
    # |mu| sets sweeps and grid, so mu and -mu cost the same
    for name, choices in (("const3", (-3, 3)), ("const0", (0, 1, -1)), ("const2", (2, -2))):
        mu = rng.choice(choices)
        path = os.path.join(outdir, f"{name}.csv")
        req[name] = Request(
            ("reconstruct", "affine", "--curvature", f"const:{mu}", "--domain", "0:2", "--tol", "1e-10",
             "--out", path),
            _conic_check(float(mu), path),
            outputs=(path,),
        )
    for k in (1, 2):
        c = rng.choice((1, -1))
        ref = O.monomial(c, k)
        sup = max(1.0, abs(c) * 3.0**k)
        req[f"mono1{k}"] = Request(
            ("reconstruct", "affine", "--curvature", f"monomial:{c},{k}", "--domain", "0:3"),
            _affine_check(ref, 0.0, 3.0, sup, 1e-8, tail_tol=1e-10),
        )
        req[f"series1{k}"] = Request(
            ("reconstruct", "series", "--curvature", f"monomial:{c},{k}", "--domain", "0:3"),
            _series_check(ref),
        )
    weights = dict.fromkeys(req, 1)
    weights.update(mono12=15, mun35_L4=6)
    return Workload(req, weights, setup="mun25_L2", cross_check=_series_vs_picard)


def _readme_check(svg):
    endpoint = _affine_check(O.mun(Fraction(2, 5)), 0.0, 22.0, 4.0 * (math.pi * 2 / 5) ** 2, 1e-4)

    def check(out):
        problems = endpoint(out)
        s = _summary(out, [])
        if s is not None and s["iterations"] != 200:
            problems.append(f"ran {s['iterations']} sweeps, asked for 200")
        _svg_check(out, problems, svg, [s["samples"] if s else None])
        return problems

    return check


def _svg_check(out, problems, path, counts):
    try:
        got = O.svg_polyline_points(out.files[path])
    except (KeyError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return
    if got != counts:
        problems.append(f"{os.path.basename(path)} polylines hold {got} points, expected {counts}")


def _conic_check(mu, path):
    def check(out):
        problems = []
        s = _summary(out, problems)
        if s is not None:
            _at_most(problems, "tail_bound", s["tail_bound"], 1e-10)
            _curve_file_check(out, problems, path, lambda a: O.conic(mu, a), 1e-8, s["samples"])
        return problems

    return check


def _series_check(mu):
    def check(out):
        problems = []
        s = _summary(out, problems)
        if s is not None:
            ref = float(np.hypot(*O.affine_endpoint(mu, 0.0, 3.0)))
            _close(problems, "endpoint_gap", s["endpoint_gap"], ref, 1e-8)
        return problems

    return check


def _series_vs_picard(outcomes):
    """c08: the series and the Picard reconstruction agree to 1e-6; returns (class, problem) pairs."""
    problems = []
    for k in (1, 2):
        gaps = []
        for name in (f"mono1{k}", f"series1{k}"):
            s = _summary(outcomes[name], [])
            gaps.append(None if s is None else s["endpoint_gap"])
        if None not in gaps:
            msgs = []
            _close(msgs, "series vs Picard endpoint_gap", gaps[1], gaps[0], 1e-6)
            problems += [(f"series1{k}", m) for m in msgs]
    return problems


def compare(rng, outdir) -> Workload:
    """Hausdorff-bound: certified distance checks for close curvature pairs."""
    req = {}
    length = TWO_PI
    for r in (10, 20, 40):
        delta = TWO_PI / r  # sup and integral of the scaled bump alike
        for norm in ("linf", "l1"):
            # the report is symmetric in the pair, so either order costs the same
            pair = rng.choice((("sin", f"kn:{r}"), (f"kn:{r}", "sin")))
            req[f"euclid_{norm}_kn{r}"] = Request(
                ("compare", "euclid", *pair, "--domain", f"0:{P}", "--norm", norm),
                _euclid_bound_check(norm, delta, length),
            )
    for name, (m1, m2), length in (("affine_const2", (2.0, 2.05), 2.0), ("affine_const1", (-1.0, -1.02), 3.0)):
        sign = rng.choice((1, -1))
        pair = rng.choice(((m1, m2), (m2, m1)))
        pair = tuple(sign * m for m in pair)
        req[name] = Request(
            ("compare", "affine", *(f"const:{m:g}" for m in pair), "--domain", f"0:{length:g}"),
            _const_pair_check(pair, length),
        )
    a = rng.choice((0, 1))
    pair = rng.choice((("mun:2/5", "mun:3/7"), ("mun:3/7", "mun:2/5")))
    req["affine_mun"] = Request(
        ("compare", "affine", *pair, "--domain", f"{a}:{a + 1}"),
        _mun_pair_check(a),
    )
    weights = dict.fromkeys(req, 1)
    weights.update({k: 4 for k in req if k.startswith("euclid_")}, affine_const2=5)
    return Workload(req, weights, setup="euclid_linf_kn10", cross_check=_euclid_monotone)


def _report(out):
    problems = []
    s = _summary(out, problems)
    if s is not None and s["satisfied"] is not True:
        problems.append("certified bound reported as violated")
    return s, problems


def _euclid_bound_check(norm, delta, length):
    """c03 / c04: measured distance under the sup-norm (and L1) bound."""

    def check(out):
        s, problems = _report(out)
        if s is None:
            return problems
        if not s["measured"] > 0.0:
            problems.append(f"measured distance {s['measured']!r} is not positive")
        _at_most(problems, "measured", s["measured"], math.sqrt(2.0) * delta * length**2 / 2.0)
        if norm == "l1":
            _at_most(problems, "measured", s["measured"], delta * length)
        return problems

    return check


def _euclid_monotone(outcomes):
    """c03: the measured distance shrinks as the bump shrinks; returns (class, problem) pairs."""
    problems = []
    for norm in ("linf", "l1"):
        measured = []
        for r in (10, 20, 40):
            s = _summary(outcomes[f"euclid_{norm}_kn{r}"], [])
            measured.append(None if s is None else s["measured"])
        if None not in measured and not measured[0] > measured[1] > measured[2]:
            problems.append((f"euclid_{norm}_kn40", f"measured distances {measured} do not decrease with r"))
    return problems


def _affine_bound(delta, c_hat, length):
    return math.sqrt(2.0) * delta * length / c_hat * math.expm1(c_hat * length)


def _const_pair_check(pair, length):
    """c07: under the certified bound, and equal to the largest gap between the two exact conics."""
    m1, m2 = pair
    c_hat = max(1.0, abs(m1), abs(m2))
    bound = _affine_bound(abs(m1 - m2), c_hat, length)
    alpha = np.linspace(0.0, length, 20001)
    exact = float(np.hypot(*(O.conic(m1, alpha) - O.conic(m2, alpha)).T).max())

    def check(out):
        s, problems = _report(out)
        if s is not None:
            _at_most(problems, "measured", s["measured"], bound)
            _close(problems, "measured", s["measured"], exact, 1e-6 * exact)
        return problems

    return check


def _mun_pair_check(start):
    mu1, mu2 = O.mun(Fraction(2, 5)), O.mun(Fraction(3, 7))
    t = np.linspace(start, start + 1.0, 4001)
    v1, v2 = np.array([mu1(x) for x in t]), np.array([mu2(x) for x in t])
    bound = _affine_bound(float(np.abs(v1 - v2).max()), max(1.0, v1.max(), v2.max()), 1.0)

    def check(out):
        s, problems = _report(out)
        if s is not None:
            _at_most(problems, "measured", s["measured"], bound)
        return problems

    return check


def euclid_io(rng, outdir) -> Workload:
    """No Picard, no Hausdorff: quadrature, spec parsing and evaluation, CSV/SVG I/O."""
    req = {}
    a, b = rng.choice(((1, 1), (1, -1), (-1, 1), (-1, -1)))
    req["closed_1e6"] = Request(
        ("reconstruct", "euclid", "--curvature", f"sinusoid:{a},{b},1/3", "--domain", f"0:{repr(3 * TWO_PI)}",
         "--samples", "1000001"),
        _gap_check(1000001, at_most=1e-5),
    )
    r = rng.choice((9, 10, 11))  # the sample count is fixed, so every r costs the same
    csv, svg = os.path.join(outdir, "kn.csv"), os.path.join(outdir, "kn.svg")
    req["kn_out"] = Request(
        ("reconstruct", "euclid", "--curvature", f"kn:{r}", "--domain", f"0:{repr(r * TWO_PI)}",
         "--samples", "12289", "--out", csv, "--svg", svg),
        _euclid_file_check(O.kn(Fraction(r)), csv, svg, 12289, gap_at_most=1e-9),
        outputs=(csv, svg),
    )
    a, b = rng.choice(((1, 1), (1, -1), (-1, 1), (-1, -1)))
    csv = os.path.join(outdir, "open.csv")
    req["open_out"] = Request(
        ("reconstruct", "euclid", "--curvature", f"sinusoid:{a},{b},1", "--domain", f"0:{P}", "--out", csv),
        _euclid_file_check(O.sinusoid(a, b, 1), csv, None, None, gap_at_least=0.1),
        outputs=(csv,),
    )
    req["table_read"] = Request(
        ("reconstruct", "euclid", "--curvature", f"table:{_write_table(rng, outdir)},periodic",
         "--domain", f"0:{repr(3 * TWO_PI)}"),
        _gap_check(None, at_most=1e-9),
    )
    for name, spec, ratio in (
        ("classify_kn_frac", *_kn_choice(rng, (Fraction(5, 3), Fraction(7, 3), Fraction(7, 4)))),
        ("classify_kn_int", *_kn_choice(rng, (Fraction(9), Fraction(10), Fraction(11)))),
        ("classify_sin_closed", *_sin_choice(rng, (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)))),
        ("classify_sin_open", *_sin_choice(rng, (Fraction(1), Fraction(2)))),
    ):
        req[name] = Request(("classify", "--curvature", spec, "--period", P), _classify_check(ratio))
    bad = rng.choice(("0.5", "1.5", "2.5"))
    req["bad_spec"] = Request(
        ("reconstruct", "euclid", "--curvature", f"kn:{bad}", "--domain", "0:1"), _usage_error_check
    )
    lo = rng.choice((3, 2, 1))
    req["bad_domain"] = Request(
        ("reconstruct", "euclid", "--curvature", "sin", "--domain", f"{lo}:1"), _usage_error_check
    )
    weights = dict.fromkeys(req, 1)
    weights.update({k: 9 for k in req if k.startswith("classify_")}, bad_spec=6, bad_domain=6, kn_out=8)
    return Workload(req, weights, setup="classify_kn_frac")


def _kn_choice(rng, choices):
    r = rng.choice(choices)
    return f"kn:{r}", Fraction(r.denominator, r.numerator)


def _sin_choice(rng, choices):
    c = rng.choice(choices)
    a, b = rng.choice(((1, 1), (1, -1), (-1, 1)))
    return f"sinusoid:{a},{b},{c}", c


def _write_table(rng, outdir):
    """A 4097-row periodic curvature table over one period; it closes after three."""
    a, b = rng.choice(((1, 1), (1, -1), (-1, 1), (-1, -1)))
    t = np.linspace(0.0, TWO_PI, 4097)
    k = a * np.sin(t) + b * np.cos(t) + 1.0 / 3.0
    path = os.path.join(outdir, "table.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        fh.writelines(f"{x!r},{y!r}\n" for x, y in zip(t.tolist(), k.tolist()))
    return path


def _gap_check(samples, at_most):
    def check(out):
        problems = []
        s = _summary(out, problems)
        if s is not None:
            _at_most(problems, "endpoint_gap", s["endpoint_gap"], at_most)
            if samples is not None and s["samples"] != samples:
                problems.append(f"{s['samples']} samples, asked for {samples}")
        return problems

    return check


def _euclid_file_check(kappa, csv, svg, samples, gap_at_most=None, gap_at_least=None):
    def check(out):
        problems = []
        s = _summary(out, problems)
        if s is None:
            return problems
        n = s["samples"] if samples is None else samples
        rows = _curve_file_check(out, problems, csv, lambda x: O.euclid_curve(kappa, 0.0, x), 1e-7, n)
        if rows is not None:
            _close(problems, "endpoint_gap vs CSV", s["endpoint_gap"], float(np.hypot(*(rows[-1, 1:] - rows[0, 1:]))),
                   1e-12)
        if gap_at_most is not None:
            _at_most(problems, "endpoint_gap", s["endpoint_gap"], gap_at_most)
        if gap_at_least is not None and not s["endpoint_gap"] > gap_at_least:
            problems.append(f"endpoint_gap {s['endpoint_gap']!r} should exceed {gap_at_least} (open curve)")
        if svg is not None:
            _svg_check(out, problems, svg, [n])
        return problems

    return check


def _classify_check(ratio):
    want = O.closure(ratio, TWO_PI)

    def check(out):
        problems = []
        s = _summary(out, problems)
        if s is None:
            return problems
        for key, value in want.items():
            if key == "minimal_period":
                _close(problems, key, s[key], value, 1e-9 * value)
            elif s.get(key) != value:
                problems.append(f"{key} = {s.get(key)!r}, expected {value!r}")
        return problems

    return check


def _usage_error_check(out):
    problems = []
    if out.exit_code != 2:
        problems.append(f"exit code {out.exit_code!r}, expected 2")
    if out.stdout:
        problems.append("a usage error printed to stdout")
    if not out.stderr.startswith("error:"):
        problems.append(f"stderr {out.stderr[:60]!r} does not start with 'error:'")
    return problems


WORKLOADS = {"affine-recon": affine_recon, "compare": compare, "euclid-io": euclid_io}
