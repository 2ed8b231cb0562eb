"""Closed-loop benchmark of the curverecon command line.

One client, one thread, one process per workload: each request is an argv
handed in process to ``curverecon.cli.main`` with stdout and stderr captured,
and the next request starts when the previous one returns.  The first pass
runs every request class once and checks it against its oracle; later passes
must reproduce the first pass byte for byte (exit code, stdout, stderr and
every output file).  Checks run outside the timed region.

    python3 perfbench/run.py --workload affine-recon --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
lines before it start with ``#`` and describe the run.  The program is
imported from ``src/`` of the checkout this file sits in; without it the
benchmark exits with code 1.
"""

import os

# pinned before numpy loads: its OpenBLAS would otherwise start a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy
import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("affine-recon", "compare", "euclid-io")
SETUP_REPEATS = 7
# the p90 needs at least ten samples beyond it
MIN_TIMED_REQUESTS = 100

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contextlib, io, json
from curverecon import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[2:])
t1 = time.perf_counter()
print(json.dumps({"setup_s": t1 - t0, "exit": code, "stdout": out.getvalue()}))
"""


def load_program():
    if not (SRC / "curverecon" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'curverecon'} is missing")
    sys.path.insert(0, str(SRC))
    import curverecon

    if Path(curverecon.__file__).resolve().parent != SRC / "curverecon":
        sys.exit(f"perfbench: imported curverecon from {curverecon.__file__}, not from {SRC}")
    from curverecon import cli

    return cli


def execute(cli, request, tracer=None):
    """Run one request; return its Outcome and its latency in seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.request_id += 1
            root = tracer.open("cli")
        t0 = time.perf_counter()
        try:
            code = cli.main(list(request.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails this request, not the run
            code = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
    files = {}
    for path in request.outputs:
        # removed after reading so the next request creates the file afresh:
        # on ext4 rewriting a truncated file forces a flush to disk on close
        try:
            files[path] = Path(path).read_bytes()
            os.unlink(path)
        except FileNotFoundError:
            files[path] = None
    return workloads.Outcome(code, out.getvalue(), err.getvalue(), files), t1 - t0


class Run:
    """Counts and reference outputs of one workload run."""

    def __init__(self, cli, workload, rng):
        self.cli, self.workload, self.rng = cli, workload, rng
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = {}
        self.class_ok = {}
        self.order = [name for name, w in workload.weights.items() for _ in range(w)]

    def fail(self, name, problem):
        self.problems.append(f"{name}: {problem}")

    def oracle_pass(self):
        """Every class once, checked against its oracle; its outputs become the reference."""
        for name, request in self.workload.requests.items():
            outcome, _ = execute(self.cli, request)
            self.reference[name] = outcome
            problems = request.check(outcome)
            for problem in problems:
                self.fail(name, problem)
            self.class_ok[name] = not problems
        for name, problem in self.workload.cross_check(self.reference):
            self.fail(name, problem)
            self.class_ok[name] = False
        self.attempted += len(self.reference)
        self.failed += sum(not ok for ok in self.class_ok.values())

    def timed_pass(self, tracer=None):
        """One shuffled pass of the mix; returns the latencies and the correct count."""
        self.rng.shuffle(self.order)
        latencies, correct = [], 0
        for name in self.order:
            outcome, dt = execute(self.cli, self.workload.requests[name], tracer)
            latencies.append(dt)
            if self.class_ok[name] and outcome == self.reference[name]:
                correct += 1
            elif self.class_ok[name]:
                self.fail(name, "output differs from the first pass")
        self.attempted += len(self.order)
        self.failed += len(self.order) - correct
        return latencies, correct

    def setup_times(self):
        """Fresh interpreters: import the program and serve the workload's setup request."""
        name = self.workload.setup
        argv = self.workload.requests[name].argv
        times = []
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run([sys.executable, "-E", "-s", "-c", SETUP_CHILD, str(SRC), *argv],
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
            self.attempted += 1
            try:
                child = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                self.failed += 1
                self.fail(name, f"set-up interpreter failed: {proc.stderr.strip()[-200:]}")
                continue
            ref = self.reference[name]
            if (child["exit"], child["stdout"]) != (ref.exit_code, ref.stdout):
                self.failed += 1
                self.fail(name, "set-up interpreter output differs from the first pass")
            times.append(child["setup_s"])
        return times


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def filesystem_of(path):
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(seed, outdir):
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "output_fs": filesystem_of(outdir),
    }


def work_counters(run):
    """CLI-reported work per class and per pass of the mix."""
    per_class, per_pass = {}, {"samples": 0, "iterations": 0, "terms": 0}
    for name, outcome in run.reference.items():
        try:
            summary = json.loads(outcome.stdout)
        except json.JSONDecodeError:
            summary = {}
        counts = {k: summary[k] for k in per_pass if isinstance(summary.get(k), int)}
        per_class[name] = counts
        for k, v in counts.items():
            per_pass[k] += v * run.workload.weights[name]
    return per_class, per_pass


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "curverecon").glob("*.py"))


def measure(run, seconds):
    """Timed passes until ``seconds`` have passed and the p90 is resolved."""
    latencies, correct, passes = [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_TIMED_REQUESTS:
        lat, ok = run.timed_pass()
        latencies += lat
        correct += ok
        passes += 1
    latencies.sort()
    n = len(latencies)
    print(f"# timed: {passes} passes, {n} requests, {n - math.ceil(0.9 * n)} samples beyond the p90")
    return {
        "rps": (correct / sum(latencies), "req/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
    }


def measure_traced(run, seconds):
    """Untraced and traced passes alternate; the traced ones give the layer metrics."""
    tracer = tr.Tracer()
    sites = tr.sites()
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        untraced += sum(run.timed_pass()[0])
        tracer.install(sites)
        try:
            traced += sum(run.timed_pass(tracer)[0])
        finally:
            left = tracer.restore()
        if left:
            run.fail("tracer", f"wrappers not restored: {left}")
            run.failed += 1
        passes += 1
    print(f"# traced: {passes} traced passes alternating with {passes} untraced, {len(tracer.spans)} spans")
    return tr.layer_metrics(tracer.totals(), passes, traced, untraced)


def run_workload(name, seed, seconds, trace):
    cli = load_program()
    rng = random.Random(seed)
    outdir = tempfile.mkdtemp(prefix=".perfbench-out-", dir=ROOT)
    try:
        run = Run(cli, workloads.WORKLOADS[name](rng, outdir), rng)
        print(f"# perfbench workload={name} seed={seed} seconds={seconds} trace={trace}")
        print(f"# env {json.dumps(environment(seed, outdir))}")
        run.oracle_pass()
        per_class, per_pass = work_counters(run)
        for cls, request in run.workload.requests.items():
            print(f"# class {cls} x{run.workload.weights[cls]} work={json.dumps(per_class[cls])} "
                  f"argv={' '.join(request.argv).replace(outdir, '<out>')}")
        if trace:
            metrics = measure_traced(run, seconds)
            metrics["static.src_lines"] = (src_lines(), "count")
            for k, v in per_pass.items():
                metrics[f"work.{k}"] = (v, "count")
        else:
            times = run.setup_times()
            if not times:
                sys.exit(f"perfbench: every set-up interpreter failed: {run.problems[-1]}")
            metrics = {"setup_s": (statistics.median(times), "s")}
            metrics.update(measure(run, seconds))
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"# FAIL {problem}")
    print(f"# fail_ratio {run.failed / run.attempted:.6g} (1) = {run.failed} / {run.attempted}")
    for key, (value, unit) in metrics.items():
        print(f"# {key} {value:.6g} ({unit})")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Each workload in its own process; one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    rows = {"fail_ratio (1)": [r["failed"] / r["attempted"] for r in results.values()]}
    for key, m in results[WORKLOAD_NAMES[0]]["metrics"].items():
        rows[f"{key} ({m['unit']})"] = [results[w]["metrics"][key]["value"] for w in WORKLOAD_NAMES]
    print("# " + f"{'metric':>34} " + " ".join(f"{w:>14}" for w in WORKLOAD_NAMES))
    for label, values in rows.items():
        print("# " + f"{label:>34} " + " ".join(f"{v:>14.6g}" for v in values))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
