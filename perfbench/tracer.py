"""Spans and work counters recorded around each layer's public functions.

The wrappers live here, in the benchmark, and are installed at each import
site the CLI reaches (``affine.cumulative_simpson`` and
``euclidean.cumulative_simpson`` are separate names for the same function,
for instance).  Spans are kept in memory: name, start, end, parent and
request id.  A layer's self time is its span's duration minus the time its
child spans cover, spec evaluation excepted.  ``restore`` puts every original back and verifies it.
"""

import functools
import inspect
import os
import time

import numpy as np

STEP_GAP_CONVERGED = 1e-13


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, request id, counters]
        self.spans = []
        self._stack = []
        self.request_id = 0
        self._installed = []

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                           self.request_id, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(counters, args, result)`` runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.spans[index][5], args, result)
            return result

        return traced

    def install(self, sites):
        """Replace each ``(owner, attribute, span name, counter)`` with a traced wrapper."""
        for owner, attr, name, count in sites:
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def restore(self):
        """Put every original back; return the sites that do not hold it afterwards."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, original in self._installed
                if vars(owner)[attr] is not original]
        self._installed = []
        return left

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, summed counters.

        Spec evaluation stays in its caller's self time, so the bound checks'
        self time covers their 4097-point probes.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None and name != "curvatures.eval":
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, counters) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
            for key, value in counters.items():
                t[key] = t.get(key, 0) + value
        return out


def _count_picard(counters, args, result):
    r = result[1]
    counters["sweeps_run"] = r.iterations
    counters["node_sweeps"] = r.iterations * r.grid_size
    below = [i for i, gap in enumerate(r.step_gaps, start=1) if gap < STEP_GAP_CONVERGED]
    counters["sweeps_needed"] = below[0] if below else r.iterations


def _count_hausdorff(counters, args, result):
    counters["points"] = sum(len(c) for c in args[:2])


def _count_quadrature(counters, args, result):
    counters["values"] = int(np.size(args[0]))
    counters["bytes"] = int(np.asarray(args[0]).nbytes + result.nbytes)


def _count_samples(counters, args, result):
    counters["samples"] = len(result)


def _count_terms(counters, args, result):
    counters["terms"] = int(result[0].size - 1)


def _count_nodes(counters, args, result):
    counters["nodes"] = int(np.size(args[1]))


def _count_written(counters, args, result):
    counters["bytes"] = os.path.getsize(args[1])


def sites():
    """Every traced import site of the layers the CLI reaches."""
    from curverecon import affine, cli, curvatures, curveio, euclidean, series

    specs = [cls for cls in vars(curvatures).values()
             if inspect.isclass(cls) and issubclass(cls, curvatures.CurvatureSpec) and "__call__" in vars(cls)
             and cls is not curvatures.CurvatureSpec]
    return [
        (cli, "parse_spec_cli", "curvatures.parse", None),
        (curveio, "read_table_csv", "curveio.read", None),
        (cli, "write_curve_csv", "curveio.write", _count_written),
        (cli, "emit_svg", "curveio.write", _count_written),
        (affine, "picard", "affine.picard", _count_picard),
        (affine, "bound_check", "affine.bound_check", None),
        (euclidean, "bound_check", "euclidean.bound_check", None),
        (affine, "hausdorff_distance", "geometry.hausdorff", _count_hausdorff),
        (euclidean, "hausdorff_distance", "geometry.hausdorff", _count_hausdorff),
        (affine, "cumulative_simpson", "quadrature", _count_quadrature),
        (euclidean, "cumulative_simpson", "quadrature", _count_quadrature),
        (euclidean, "reconstruct", "euclidean.reconstruct", _count_samples),
        (euclidean, "classify_closure", "euclidean.classify", None),
        (series, "curve", "series.curve", None),
        (series, "tangent_coefficients", "series.coefficients", _count_terms),
    ] + [(cls, "__call__", "curvatures.eval", _count_nodes) for cls in specs]


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "1"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(("bytes_computed", "bytes_written")):
        return "B"
    return "count"


def layer_metrics(totals, passes, traced_s, untraced_s):
    """The per-layer metrics as ``{name: (value, unit)}``, each per pass of the workload's mix."""

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "affine.picard_calls": get("affine.picard", "calls"),
        "affine.sweeps_run": get("affine.picard", "sweeps_run"),
        "affine.sweeps_needed": get("affine.picard", "sweeps_needed"),
        "affine.node_sweeps": get("affine.picard", "node_sweeps"),
        "affine.picard_s": get("affine.picard"),
        "affine.bound_check_self_s": get("affine.bound_check", "self_s"),
        "euclidean.bound_check_self_s": get("euclidean.bound_check", "self_s"),
        "geometry.hausdorff_calls": get("geometry.hausdorff", "calls"),
        "geometry.hausdorff_points": get("geometry.hausdorff", "points"),
        "geometry.hausdorff_s": get("geometry.hausdorff"),
        "quadrature.calls": get("quadrature", "calls"),
        "quadrature.values": get("quadrature", "values"),
        "quadrature.busy_s": get("quadrature"),
        "quadrature.bytes_computed": get("quadrature", "bytes"),
        "euclidean.reconstruct_calls": get("euclidean.reconstruct", "calls"),
        "euclidean.samples": get("euclidean.reconstruct", "samples"),
        "euclidean.reconstruct_s": get("euclidean.reconstruct"),
        "euclidean.classify_s": get("euclidean.classify"),
        "series.curve_calls": get("series.curve", "calls"),
        "series.terms": get("series.coefficients", "terms"),
        "series.curve_s": get("series.curve"),
        "curvatures.parse_calls": get("curvatures.parse", "calls"),
        "curvatures.parse_s": get("curvatures.parse"),
        "curvatures.eval_nodes": get("curvatures.eval", "nodes"),
        "curvatures.eval_s": get("curvatures.eval"),
        "cli.self_s": get("cli", "self_s"),
        "curveio.write_calls": get("curveio.write", "calls"),
        "curveio.bytes_written": get("curveio.write", "bytes"),
        "curveio.write_s": get("curveio.write"),
        "curveio.read_s": get("curveio.read"),
    }
    m["affine.ns_per_node_sweep"] = ratio(m["affine.picard_s"] * 1e9, m["affine.node_sweeps"])
    m["affine.sweeps_useful_ratio"] = ratio(m["affine.sweeps_needed"], m["affine.sweeps_run"])
    m["geometry.hausdorff_share"] = ratio(m["geometry.hausdorff_s"] * passes, traced_s)
    m["quadrature.ns_per_value"] = ratio(m["quadrature.busy_s"] * 1e9, m["quadrature.values"])
    m["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    return {name: (value, _unit(name)) for name, value in m.items()}
