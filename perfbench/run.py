"""The sheet-atlas benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one row each
    python3 perfbench/run.py --smoke             # a few checked operations each

Workloads (inputs and closed-form answers in gen.py):

* ``atlas-lookup``: JSON requests through ``sheet_atlas.cli.main``
  in-process, Zipf-like keys, 2% heavy type A listings up to rank 24, and a
  share of invalid labels whose correct answer is exit code 1.
* ``sheet-points``: sl2-triples for GL and B/C/D maximal Levis, moved to a
  generic point z + e of the Dixmier sheet; centraliser dimension and
  characteristic polynomial checked (a share over Q[t]).
* ``spectral-compose``: the composition map, minimal-polynomial division and
  the heart predicate on random points of every profile with n <= 10.

Each workload is one client in a closed loop: the next request is issued
when the previous one has returned and been checked.  Every measurement
runs in a fresh interpreter (worker.py).  With ``--trace 0`` the run reports
the end-to-end metrics: set-up time is the median over several fresh
interpreters, each importing sheet_atlas and answering the first request;
the timed phase starts after that first request.  With ``--trace 1`` it
runs a fixed number of operations twice, untraced and traced, and reports
the per-layer metrics of tracer.py plus the tracing overhead.

Reported times (latencies, ops_per_s, setup_s, the trace.*_ops_per_s rates)
are scaled to a reference machine speed: this host's speed drifts far more
between minutes than the bounds allow, so worker.py times a fixed
calibration loop between operations and scales each latency by it.  The
table also prints the raw times and the measured speed (1 = reference).
Per-layer busy and self times are raw.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status 0 on a completed run (also when checks failed; see
"correct"), 1 when the benchmark could not run, 2 when the sheet_atlas
sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracer  # noqa: E402

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ops_failed_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# ops_failed_ratio is printed in the table; the JSON result carries failures
# in its "attempted" and "failed" fields, so it is not a JSON metric.
JSON_METRICS = [m for m in END_TO_END if m[0] != "ops_failed_ratio"]
SETUP_PROBES = 8
# Operations in a traced run, per second of --seconds: the untraced and the
# traced pass together take about --seconds at the commit that added them.
TRACE_RATE = {"atlas-lookup": 110, "sheet-points": 60, "spectral-compose": 400}
SMOKE_SECONDS = 1
SMOKE_TRACE_OPS = 20


class BenchError(Exception):
    pass


def _child(mode: str, workload: str, seed: int, amount, timeout: float):
    first_input = gen.first_op(workload, seed)[0]
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), mode, workload, str(seed), str(amount), json.dumps(first_input)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker for %s timed out after %.0f s" % (mode, workload, timeout))
    if proc.returncode != 0:
        raise BenchError("%s worker for %s exited %d:\n%s" % (mode, workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, probes: int = SETUP_PROBES):
    """End-to-end metrics of one workload; returns (metrics, extra, attempted, failed, messages)."""
    _child("probe", workload, seed, 0, 60)  # fills the bytecode caches; not measured
    children = [_child("probe", workload, seed, 0, 60) for _ in range(probes - 1)]
    run = _child("run", workload, seed, seconds, seconds + 100)
    children.append(run)
    first_failures = [c["first_error"] for c in children if c["first_error"]]
    attempted = run["attempted"] + len(children)
    failed = run["failed"] + len(first_failures)
    metrics = {
        "ops_per_s": run["ops_per_s"],
        "latency_p50_ms": run["p50_s"] * 1000.0,
        "latency_p99_ms": run["p99_s"] * 1000.0,
        "ops_failed_ratio": failed / attempted,
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra = {
        "latency_samples": run["attempted"],
        "beyond_p99": run["beyond_p99"],
        "input_repeat_share": run["input_repeat_share"],
        "pool_exhausted": run["pool_exhausted"],
        "speed": run["speed"],
        "raw_ops_per_s": run["raw"]["ops_per_s"],
        "raw_p50_ms": run["raw"]["p50_s"] * 1000.0,
        "raw_p99_ms": run["raw"]["p99_s"] * 1000.0,
        "raw_setup_s": statistics.median(c["raw_setup_s"] for c in children),
    }
    if "sheet_key_repeat_share" in run:
        extra["sheet_key_repeat_share"] = run["sheet_key_repeat_share"]
    return metrics, extra, attempted, failed, first_failures + run["messages"]


def trace(workload: str, seed: int, count: int):
    """Per-layer metrics over ``count`` operations; same arguments as measure."""
    plain = _child("count", workload, seed, count, 150)
    traced = _child("trace", workload, seed, count, 150)
    layers = dict(traced["layers"])
    layers["trace.traced_ops_per_s"] = traced["ops_per_s"]
    layers["trace.untraced_ops_per_s"] = plain["ops_per_s"]
    runs = (plain, traced)
    first_failures = [r["first_error"] for r in runs if r["first_error"]]
    attempted = sum(r["attempted"] + 1 for r in runs)
    failed = sum(r["failed"] for r in runs) + len(first_failures)
    return layers, {}, attempted, failed, first_failures + plain["messages"] + traced["messages"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


def print_table(rows):
    """rows: [(workload, metrics, extra)], one line per workload."""
    columns = [("workload", "")] + END_TO_END + [
        ("latency_samples", ""),
        ("beyond_p99", ""),
        ("input_repeat_share", ""),
        ("sheet_key_repeat_share", ""),
        ("speed", "x"),
        ("raw_ops_per_s", "1/s"),
        ("raw_p50_ms", "ms"),
        ("raw_p99_ms", "ms"),
        ("raw_setup_s", "s"),
    ]
    header = ["%s%s" % (name, " [%s]" % unit if unit else "") for name, unit in columns]
    lines = [header]
    for workload, metrics, extra in rows:
        values = dict(metrics, **extra)
        lines.append([workload] + [_fmt(values[name]) if name in values else "-" for name, _ in columns[1:]])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def print_layers(workload: str, layers, units):
    print("%s: per-layer metrics" % workload)
    for name, value in layers.items():
        print("  %-40s %14s %s" % (name, _fmt(value), units[name]))
    untraced, traced = layers["trace.untraced_ops_per_s"], layers["trace.traced_ops_per_s"]
    print(
        "  tracing overhead: %.4g ops/s traced against %.4g ops/s untraced (x%.3f slower)"
        % (traced, untraced, untraced / traced if traced else float("inf"))
    )


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke() -> int:
    """A few operations of each workload, traced and untraced; 0 when every
    check passed and every metric named in BENCHMARK.json was produced."""
    spec = _load_spec()
    problems = []
    specs = tracer.metric_specs()
    if sorted(m["name"] for m in spec["per_layer"]) != sorted(name for name, _, _ in specs):
        problems.append("BENCHMARK.json per_layer differs from tracer.metric_specs()")
    problems += ["no end-to-end mapping for %s" % name for name, _, _ in specs if not tracer.moves(name)]
    if sorted(w["name"] for w in spec["workloads"]) != sorted(gen.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from gen.WORKLOADS")
    for workload in gen.WORKLOADS:
        for label, (metrics, _, attempted, failed, messages), wanted in (
            ("end_to_end", measure(workload, 1, SMOKE_SECONDS, probes=2), spec["end_to_end"]),
            ("per_layer", trace(workload, 1, SMOKE_TRACE_OPS), spec["per_layer"]),
        ):
            problems += ["%s %s: %s" % (workload, label, m) for m in messages]
            if failed:
                problems.append("%s %s: %d of %d operations failed" % (workload, label, failed, attempted))
            problems += ["%s: missing %s metric %s" % (workload, label, m["name"]) for m in wanted if m["name"] not in metrics]
        print("smoke %s: done" % workload)
    for p in problems:
        print("smoke: %s" % p, file=sys.stderr)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check a few operations of every workload and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sheet_atlas", "__init__.py")):
        print("run.py: no sheet_atlas sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            if args.trace:
                results.append((workload, *trace(workload, args.seed, max(1, round(args.seconds * TRACE_RATE[workload])))))
            else:
                results.append((workload, *measure(workload, args.seed, args.seconds)))
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1

    if args.trace:
        units = {name: unit for name, unit, _ in tracer.metric_specs()}
        for workload, layers, *_ in results:
            print_layers(workload, layers, units)
        wanted = [(name, unit) for name, unit, _ in tracer.metric_specs()]
    else:
        print("closed loop, 1 client, %d s per workload, seed %d" % (args.seconds, args.seed))
        print_table([(w, m, e) for w, m, e, *_ in results])
        wanted = JSON_METRICS
    for workload, _, _, _, failed, messages in results:
        for m in messages:
            print("%s: FAILED %s" % (workload, m), file=sys.stderr)
    single = len(results) == 1
    out = {
        "correct": all(r[4] == 0 for r in results),
        "attempted": sum(r[3] for r in results),
        "failed": sum(r[4] for r in results),
        "metrics": {
            (name if single else "%s.%s" % (workload, name)): {"value": metrics[name], "unit": unit}
            for workload, metrics, *_ in results
            for name, unit in wanted
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
