"""Self-tests of the benchmark itself; run with ``python3 perfbench/selftest.py``.

1. Traced and untraced requests produce byte-identical outputs.
2. Every traced import site holds its original function after the traced run.
3. A corrupted oracle expectation, and a corrupted first-pass reference,
   each make the failure ratio positive.

Exits 0 when every check holds.  Not named ``test_*`` so the repository's
pytest run does not collect it.
"""

import random
import shutil
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction

import run
import tracer as tr
import workloads

FAILURES = []


def expect(condition, what):
    print(f"{'PASS' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def fresh_run(cli, name, outdir, seed=7):
    rng = random.Random(seed)
    return run.Run(cli, workloads.WORKLOADS[name](rng, outdir), rng)


def traced_outputs_match(cli, name, outdir):
    r = fresh_run(cli, name, outdir)
    r.oracle_pass()
    sites = tr.sites()
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in sites}
    tracer = tr.Tracer()
    tracer.install(sites)
    try:
        expect(all(vars(o)[a] is not f for (o, a), f in before.items()), f"{name}: every site is wrapped")
        traced = {cls: run.execute(cli, req, tracer)[0] for cls, req in r.workload.requests.items()}
    finally:
        left = tracer.restore()
    expect(r.failed == 0, f"{name}: untraced first pass meets every oracle")
    expect(traced == r.reference, f"{name}: traced outputs are byte-identical to untraced ones")
    expect(not left and all(vars(o)[a] is f for (o, a), f in before.items()),
           f"{name}: every wrapper restored after the traced run")
    expect(len(tracer.spans) > len(r.workload.requests), f"{name}: the traced run recorded spans")


def corrupted_oracle_fails(cli, outdir):
    r = fresh_run(cli, "euclid-io", outdir)
    req = r.workload.requests["classify_kn_frac"]
    # the true ratio of every kn_frac variant has a denominator > 1; 1/1 is wrong
    r.workload.requests["classify_kn_frac"] = replace(req, check=workloads._classify_check(Fraction(1)))
    r.oracle_pass()
    r.timed_pass()
    expect(r.failed > 0 and r.failed / r.attempted > 0, "a corrupted oracle makes fail_ratio > 0")
    per_pass = r.workload.weights["classify_kn_frac"]
    expect(r.failed == 1 + per_pass, "the class fails in the first pass and in every later instance")


def corrupted_reference_fails(cli, outdir):
    r = fresh_run(cli, "euclid-io", outdir)
    r.oracle_pass()
    ref = r.reference["classify_sin_open"]
    r.reference["classify_sin_open"] = replace(ref, stdout=ref.stdout.replace("1", "2", 1))
    r.timed_pass()
    expect(r.failed == r.workload.weights["classify_sin_open"],
           "a byte mismatch with the first pass counts as a failure")


def main():
    cli = run.load_program()
    outdir = tempfile.mkdtemp(prefix=".perfbench-out-", dir=run.ROOT)
    try:
        for name in run.WORKLOAD_NAMES:
            traced_outputs_match(cli, name, outdir)
        corrupted_oracle_fails(cli, outdir)
        corrupted_reference_fails(cli, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
