"""Per-layer tracing from outside the program.

The tracer replaces each listed sheet_atlas function with a wrapper in every
namespace that holds it (the defining module, modules that imported it by
name, the package root, and the benchmark's own modules), and each listed
method on its class.  Each call records a span: name, start, end, parent
span and operation id.  Spans stay in memory in flat arrays and are written
out once, after the run.

Aggregates are kept as the spans close:

* ``<layer>.<function>.calls`` counts calls; ``busy_ms`` sums the time spent
  inside the function, counting only the outermost of nested calls.
* ``<layer>.self_ms`` is the time during which the innermost open span
  belongs to the layer: span durations minus their child spans.  Work in
  unwrapped code, including stdlib Fraction arithmetic, counts towards the
  innermost wrapped caller.
* ``hitchin``, ``multiplicity`` and ``realforms`` are traced as whole
  modules (every public function) and reported per module.
* ``partitions.partitions_of`` is a generator: it is timed while it is
  iterated (one span per resumption), and ``partitions.yielded`` counts the
  partitions it produces.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

# (layer, metric name, module, attribute) for every function traced one by one.
FUNCTIONS = [
    ("cli", "main", "sheet_atlas.cli", "main"),
    ("cli", "build_parser", "sheet_atlas.cli", "build_parser"),
    ("sheets", "sheets_for", "sheet_atlas.sheets", "sheets_for"),
    ("sheets", "find_sheet", "sheet_atlas.sheets", "find_sheet"),
    ("sheets", "enumerate_sheets_gln", "sheet_atlas.sheets", "enumerate_sheets_gln"),
    ("sheets", "to_json", "sheet_atlas.sheets", "SheetDescriptor.to_json"),
    ("partitions", "partitions_of", "sheet_atlas.partitions", "partitions_of"),
    ("triples", "build_gl_triple", "sheet_atlas.triples", "build_gl_triple"),
    ("triples", "build_bcd_triple", "sheet_atlas.triples", "build_bcd_triple"),
    ("triples", "checks", "sheet_atlas.triples", "Sl2Triple.checks"),
    ("liealg", "build_model", "sheet_atlas.liealg", "build_model"),
    ("liealg", "matmul", "sheet_atlas.liealg", "RationalMatrix.__matmul__"),
    ("liealg", "bracket", "sheet_atlas.liealg", "bracket"),
    ("liealg", "in_algebra", "sheet_atlas.liealg", "in_algebra"),
    ("liealg", "char_poly", "sheet_atlas.liealg", "char_poly"),
    ("liealg", "centralizer_dim", "sheet_atlas.liealg", "centralizer_dim"),
    ("liealg", "fraction_free_rank", "sheet_atlas.liealg", "fraction_free_rank"),
    ("spectral", "mu_s", "sheet_atlas.spectral", "mu_s"),
    ("spectral", "graded_mul", "sheet_atlas.spectral", "GradedPolynomial.__mul__"),
    ("spectral", "divides", "sheet_atlas.spectral", "GradedPolynomial.divides"),
    ("spectral", "in_heart", "sheet_atlas.spectral", "in_heart"),
    ("spectral", "poly_gcd", "sheet_atlas.spectral", "poly_gcd"),
    ("scalars", "ratpoly_mul", "sheet_atlas.scalars", "RatPoly.__mul__"),
    ("scalars", "ratpoly_divmod", "sheet_atlas.scalars", "RatPoly.divmod"),
    ("scalars", "ratpoly_gcd", "sheet_atlas.scalars", "RatPoly.gcd"),
]
MODULE_LAYERS = ("hitchin", "multiplicity", "realforms")
LAYERS = ("cli", "sheets", "partitions", "hitchin", "multiplicity", "realforms", "triples", "liealg", "spectral", "scalars")
COUNTERS = ("cli.stdout_bytes", "partitions.yielded", "liealg.rank_entries")

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  BENCHMARK.json has a fixed set of keys, so the mapping lives here.
MOVES = {
    "cli.": "atlas-lookup latency_p50_ms and ops_per_s; unchanged on sheet-points and spectral-compose",
    "sheets.": "atlas-lookup latency_p99_ms; unchanged on spectral-compose",
    "partitions.": "atlas-lookup latency_p99_ms; unchanged on spectral-compose",
    "hitchin.": "atlas-lookup latency_p50_ms",
    "multiplicity.": "atlas-lookup latency_p50_ms",
    "realforms.": "atlas-lookup latency_p50_ms",
    "triples.": "sheet-points latency_p50_ms; work moved to import shows in setup_s and peak_rss_mb",
    "liealg.build_model": "sheet-points latency_p50_ms; work moved to import shows in setup_s and peak_rss_mb",
    "liealg.matmul": "sheet-points latency_p50_ms",
    "liealg.bracket": "sheet-points latency_p50_ms and latency_p99_ms",
    "liealg.in_algebra": "sheet-points latency_p50_ms",
    "liealg.char_poly": "sheet-points latency_p50_ms",
    "liealg.centralizer_dim": "sheet-points latency_p99_ms and ops_per_s; unchanged on atlas-lookup and spectral-compose",
    "liealg.fraction_free_rank": "sheet-points latency_p99_ms and ops_per_s; unchanged on atlas-lookup and spectral-compose",
    "liealg.rank_entries": "sheet-points latency_p99_ms and ops_per_s; unchanged on atlas-lookup and spectral-compose",
    "liealg.self_ms": "sheet-points latency_p50_ms and latency_p99_ms",
    "spectral.mu_s": "spectral-compose ops_per_s and latency_p50_ms",
    "spectral.graded_mul": "spectral-compose ops_per_s and latency_p50_ms",
    "spectral.divides": "spectral-compose ops_per_s and latency_p50_ms",
    "spectral.in_heart": "spectral-compose latency_p99_ms and the symbolic share of sheet-points; unchanged on atlas-lookup",
    "spectral.poly_gcd": "spectral-compose latency_p99_ms and the symbolic share of sheet-points; unchanged on atlas-lookup",
    "spectral.self_ms": "spectral-compose ops_per_s and latency_p50_ms",
    "scalars.": "spectral-compose latency_p99_ms and the symbolic share of sheet-points; unchanged on atlas-lookup",
    "trace.": "none: tracing overhead, traced against untraced ops_per_s on the same operations",
}


def metric_specs():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, name, _, _ in FUNCTIONS:
        out += [("%s.%s.calls" % (layer, name), "count", "lower"), ("%s.%s.busy_ms" % (layer, name), "ms", "lower")]
    for layer in MODULE_LAYERS:
        out += [("%s.calls" % layer, "count", "lower"), ("%s.busy_ms" % layer, "ms", "lower")]
    out += [("%s.self_ms" % layer, "ms", "lower") for layer in LAYERS]
    out += [(name, "count", "lower") for name in COUNTERS]
    out += [
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.spans", "count", "lower"),
    ]
    return out


def moves(metric: str) -> str:
    """The mapping entry for a metric: longest matching prefix in MOVES."""
    keys = [k for k in MOVES if metric.startswith(k)]
    return MOVES[max(keys, key=len)] if keys else ""


class Tracer:
    """Span store plus running aggregates; single-threaded by design."""

    def __init__(self):
        self.names = ["op"]
        self.layer_of = [None]
        self.calls = [0]
        self.busy = [0.0]
        self.depth = [0]
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_busy = [0.0] * len(LAYERS)
        self.layer_depth = [0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.stack = []
        self.op_id = -1

    def name_id(self, name: str, layer) -> int:
        self.names.append(name)
        self.layer_of.append(None if layer is None else self.layer_ids[layer])
        self.calls.append(0)
        self.busy.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def enter(self, nid: int):
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self.op_id)
        self.depth[nid] += 1
        lid = self.layer_of[nid]
        if lid is not None:
            self.layer_depth[lid] += 1
        self.stack.append([idx, nid, 0.0])

    def exit(self):
        t = perf_counter()
        idx, nid, child = self.stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        self.depth[nid] -= 1
        if not self.depth[nid]:
            self.busy[nid] += dur
        lid = self.layer_of[nid]
        if lid is not None:
            self.layer_self[lid] += dur - child
            self.layer_depth[lid] -= 1
            if not self.layer_depth[lid]:
                self.layer_busy[lid] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.enter(0)

    def end_op(self):
        self.exit()

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, fn, nid, counter=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            if counter is not None:
                counter(args)
            tracer.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def _wrap_generator(self, fn, nid):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            gen = fn(*args, **kwargs)
            while True:
                tracer.enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.counters["partitions.yielded"] += 1  # the one traced generator
                yield item

        return traced

    def _count_rank_entries(self, args):
        rows = args[0]
        self.counters["liealg.rank_entries"] += len(rows) * (len(rows[0]) if rows else 0)

    def install(self, extra_namespaces=()):
        """Wrap every listed function in every namespace that refers to it."""
        modules = [m for k, m in sys.modules.items() if k == "sheet_atlas" or k.startswith("sheet_atlas.")]
        modules += list(extra_namespaces)
        targets = []
        for layer, name, modname, attr in FUNCTIONS:
            targets.append((layer, "%s.%s" % (layer, name), sys.modules[modname], attr))
        for layer in MODULE_LAYERS:
            mod = sys.modules["sheet_atlas." + layer]
            for attr, fn in sorted(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets.append((layer, "%s.%s" % (layer, attr), mod, attr))
        for layer, label, mod, attr in targets:
            nid = self.name_id(label, layer)
            counter = self._count_rank_entries if label == "liealg.fraction_free_rank" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self._wrap(orig, nid, counter)
                for key, value in list(cls.__dict__.items()):
                    if value is orig:  # RatPoly.__rmul__ is the same function as __mul__
                        setattr(cls, key, wrapper)
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, nid, counter)
            for ns in modules:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)

    # --- results ----------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics by name (times in ms); the two trace.*_ops_per_s
        rates come from the worker, not from the spans."""
        out = {}
        by_name = {n: i for i, n in enumerate(self.names)}
        for layer, name, _, _ in FUNCTIONS:
            nid = by_name["%s.%s" % (layer, name)]
            out["%s.%s.calls" % (layer, name)] = self.calls[nid]
            out["%s.%s.busy_ms" % (layer, name)] = self.busy[nid] * 1000.0
        for layer in MODULE_LAYERS:
            out["%s.calls" % layer] = sum(c for n, c in zip(self.names, self.calls) if n.startswith(layer + "."))
            out["%s.busy_ms" % layer] = self.layer_busy[self.layer_ids[layer]] * 1000.0
        for layer in LAYERS:
            out["%s.self_ms" % layer] = self.layer_self[self.layer_ids[layer]] * 1000.0
        out.update(self.counters)
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path: str):
        """Spans as tab-separated lines: op, span, parent, name, start_us, end_us."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(
                    "%d\t%d\t%d\t%s\t%.3f\t%.3f\n"
                    % (self.op[i], i, self.parent[i], self.names[self.name[i]],
                       (self.start[i] - base) * 1e6, (self.end[i] - base) * 1e6)
                )
