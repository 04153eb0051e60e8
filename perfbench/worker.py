"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 -I perfbench/worker.py MODE WORKLOAD SEED AMOUNT FIRST_INPUT_JSON

Every mode first answers the workload's first request (FIRST_INPUT_JSON, the
generated input as JSON) and times that from the top of this file: reading
the input, ``import sheet_atlas`` and the request itself are the set-up
time.  Then, by MODE:

* ``probe``: stop there.
* ``run``: generate the operations from SEED, then issue them one at a time
  (closed loop, one client) for AMOUNT seconds, checking each answer after
  its latency has been taken.
* ``count`` / ``trace``: issue exactly AMOUNT operations, untraced or under
  the per-layer tracer, so that counts repeat exactly for a seed.

Every time is reported twice: as measured, and scaled to a reference
machine speed by the calibration loop below.  The result is one JSON line on
stdout.
"""
from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import gc  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

MAX_MESSAGES = 5
# Operations generated for a timed run, per second of run: two to three times
# the rate measured at the commit that added the benchmark.  A run that uses
# them all up ends early; its rates stay valid.
POOL_RATE = {"atlas-lookup": 600, "sheet-points": 400, "spectral-compose": 2000}

# Machine-speed calibration.  The host's speed drifts by well over the
# benchmark's bounds from one minute to the next (the same pure-Python loop
# takes anywhere from 117 to 200 ms on the 2-vCPU Xeon virtual machine the
# benchmark was tuned on), so every time is also reported scaled to a
# reference machine: a calibration loop is timed every CAL_INTERVAL_S between
# operations, and each latency is multiplied by CAL_REF_S over the loop's time
# around it.
CAL_LOOP = 20000
CAL_REF_S = 0.002
CAL_INTERVAL_S = 0.05
CAL_WINDOW = 2
CAL_PROBE_SAMPLES = 9


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _attempt(execute, summarise, workload, inp):
    """Run one operation; returns (latency_s, summary or None, error or None)."""
    start = perf_counter()
    try:
        raw = execute(inp)
    except Exception as exc:  # an operation that raises counts as failed
        return perf_counter() - start, None, "%s: %s" % (type(exc).__name__, exc)
    latency = perf_counter() - start
    try:
        return latency, summarise(workload, raw), None
    except Exception as exc:
        return latency, None, "summary failed: %s: %s" % (type(exc).__name__, exc)


def _percentile(sorted_values, q: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(round(q * n, 6)))
    return sorted_values[rank - 1], n - rank


def _repeat_flags(pool):
    """Per operation: does its input, and does its sheet key, repeat an earlier one."""
    seen, seen_keys, flags = set(), set(), []
    for inp, _, key in pool:
        flags.append((inp in seen, key is not None and key in seen_keys))
        seen.add(inp)
        seen_keys.add(key)
    return flags


def _prepare(pool):
    """Everything the timed loop needs, allocated before it starts; the
    benchmark's own objects are then frozen out of the garbage collector."""
    flags = _repeat_flags(pool)
    latencies = array("d", bytes(8 * len(pool)))
    gc.collect()
    gc.freeze()
    return flags, latencies


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: this process's current speed."""
    start = perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    return perf_counter() - start


def speed_factor(samples) -> float:
    """CAL_REF_S over the median calibration time: multiply a measured time
    by this to get the time on the reference machine."""
    ordered = sorted(samples)
    return CAL_REF_S / ordered[len(ordered) // 2]


def _scales(cal_at, cal_s, n):
    """Per-operation speed factor, from the calibrations around it.

    Each calibration is smoothed by the median of its neighbours, so one
    interrupted sample does not rescale the operations next to it.
    """
    smooth = [speed_factor(cal_s[max(0, i - CAL_WINDOW) : i + CAL_WINDOW + 1]) for i in range(len(cal_s))]
    out = array("d", bytes(8 * n))
    for j in range(len(cal_s) - 1):
        factor = (smooth[j] + smooth[j + 1]) / 2.0
        for i in range(cal_at[j], cal_at[j + 1]):
            out[i] = factor
    return out


def _latency_stats(latencies, failed_at, n):
    ranked = latencies[:n].tolist()
    for i in failed_at:  # a failed operation misses every latency limit
        ranked[i] = float("inf")
    ranked.sort()
    busy = sum(latencies[:n])
    p50, _ = _percentile(ranked, 0.50)
    p99, beyond = _percentile(ranked, 0.99)
    return {"ops_per_s": (n - len(failed_at)) / busy, "p50_s": p50, "p99_s": p99, "beyond_p99": beyond}


def _loop(workload, pool, execute, summarise, check, deadline=None, tracer=None):
    flags, latencies = _prepare(pool)
    failed_at, messages = [], []
    stdout_bytes = n = 0
    cal_at, cal_s = [0], [calibrate()]
    last_cal = perf_counter()
    for inp, expected, _ in pool:
        if tracer is not None:
            tracer.begin_op(n)
        latency, summary, error = _attempt(execute, summarise, workload, inp)
        if tracer is not None:
            tracer.end_op()
        if error is None:
            error = check(workload, expected, summary)
            if workload == "atlas-lookup":
                stdout_bytes += len(summary[1].encode())
        latencies[n] = latency
        if error is not None:
            failed_at.append(n)
            if len(messages) < MAX_MESSAGES:
                messages.append("%s: %s" % (_describe(inp), error))
        n += 1
        if perf_counter() - last_cal >= CAL_INTERVAL_S:
            cal_at.append(n)
            cal_s.append(calibrate())
            last_cal = perf_counter()
        if deadline is not None and perf_counter() >= deadline:
            break
    cal_at.append(n)
    cal_s.append(calibrate())
    scales = _scales(cal_at, cal_s, n)
    scaled = array("d", (latencies[i] * scales[i] for i in range(n)))
    out = _latency_stats(scaled, failed_at, n)
    out.update(
        {
            "attempted": n,
            "failed": len(failed_at),
            "messages": messages,
            "raw": _latency_stats(latencies, failed_at, n),
            "speed": speed_factor(cal_s),
            "input_repeat_share": sum(f[0] for f in flags[:n]) / n,
            "stdout_bytes": stdout_bytes,
        }
    )
    if workload == "atlas-lookup":
        out["sheet_key_repeat_share"] = sum(f[1] for f in flags[:n]) / n
    return out


def _describe(inp) -> str:
    import json

    return json.dumps(inp)[:200]


def main(argv) -> int:
    mode, workload, seed, amount, first_json = argv
    import json

    first_input = json.loads(first_json)
    import ops

    if not os.path.abspath(ops.cli.__file__).startswith(SRC + os.sep):
        print("sheet_atlas was not imported from %s" % SRC, file=sys.stderr)
        return 2
    execute, summarise = ops.EXECUTE[workload], ops.summarise
    _, first_summary, first_error = _attempt(execute, summarise, workload, first_input)
    setup_s = perf_counter() - T0

    import gen

    seed = int(seed)
    _, first_expected, _ = gen.first_op(workload, seed)
    if first_error is None:
        first_error = gen.check(workload, first_expected, first_summary)
    speed = speed_factor([calibrate() for _ in range(CAL_PROBE_SAMPLES)])
    result = {"setup_s": setup_s * speed, "raw_setup_s": setup_s, "first_error": first_error}
    if mode == "probe":
        result["peak_rss_mb"] = _peak_rss_mb()
        print(json.dumps(result))
        return 0

    if mode == "run":
        seconds = float(amount)
        pool = gen.make_ops(workload, seed, int(seconds * POOL_RATE[workload]) + 1)
        deadline = perf_counter() + seconds
        started = perf_counter()
        result.update(_loop(workload, pool, execute, summarise, gen.check, deadline=deadline))
        result["wall_s"] = perf_counter() - started
        result["pool_exhausted"] = result["attempted"] == len(pool)
        result["peak_rss_mb"] = _peak_rss_mb()
    else:
        pool = gen.make_ops(workload, seed, int(amount))
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install(extra_namespaces=[ops])
        result.update(_loop(workload, pool, execute, summarise, gen.check, tracer=tracer))
        if tracer is not None:
            tracer.counters["cli.stdout_bytes"] = result["stdout_bytes"]
            result["layers"] = tracer.metrics()
            out_dir = os.path.join(ROOT, ".perfbench-out")
            tracer.write(os.path.join(out_dir, "spans-%s.tsv" % workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
