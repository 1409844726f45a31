"""Benchmark entry point for treelevel.

Usage, from the root of a treelevel checkout:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Runs the workload again and again, each time in a fresh child
interpreter (perfbench/child.py), one at a time, until ``--seconds``
have passed and at least three repetitions are done.  Every child
checks its outputs.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the repetitions.  With ``--trace 1`` untraced and traced children
alternate; the metrics are the per-layer numbers of the traced ones and
``trace.overhead_ratio``, the traced over the untraced body wall time,
and the spans of the last traced child are written to
``.perfbench/trace-<workload>-<seed>.json``.  The line before the last
gives quartiles, sample counts, ``fail_ratio`` and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("enumerate", "degenerate", "cones", "calculus")
MIN_REPS = 3          # untraced repetitions in a --trace 0 run
MIN_TRACED = 2        # untraced/traced pairs in a --trace 1 run
CHILD_TIMEOUT_S = 120
TRACE_DIR = ".perfbench"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}
# Per-layer units; names ending in _calls/_emitted/_pairs/_out are counts.
LAYER_UNITS = {"_s": "s", "_us": "us", "_ms": "ms", "_ratio": "ratio",
               "_generator": "rays/edge", "_degree": "rel/degree"}
PERCENTILES = (("morphisms.forget_tail", "us", 1e6),
               ("cones.classify", "ms", 1e3))


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def environment():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "nproc": nproc,
        "loadavg_start": os.getloadavg(),
        "moduli_max_n_unset": "MODULI_MAX_N" not in os.environ,
    }


def run_child(args, traced, trace_out):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exited with code {proc.returncode}"
    return json.loads(lines[-1]), None


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1,
                   int(-(-p * len(sorted_values) // 100)) - 1))
    return sorted_values[k]


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(reps, traced, trace_mode):
    """Metrics for the final line, and quartiles for the detail line."""
    metrics, detail = {}, {}

    def put(name, unit, values):
        med = statistics.median(values)
        q1, q3 = spread(values)
        metrics[name] = {"value": med, "unit": unit}
        detail[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                        "unit": unit, "samples": values}

    if not trace_mode:
        for name, unit in END_TO_END.items():
            if name == "items_per_s":
                values = [r["items"] / r["wall_s"] for r in reps]
            else:
                values = [r[name] for r in reps]
            put(name, unit, values)
        return metrics, detail
    for name in traced[0]["layers"]:
        put(name, layer_unit(name), [r["layers"][name] for r in traced])
    for name, unit, scale in PERCENTILES:
        pooled = sorted(d * scale for r in traced for d in r["durations"][name])
        for p in (50, 99):
            value = percentile(pooled, p)
            metrics[f"{name}_p{p}_{unit}"] = {"value": value, "unit": unit}
            detail[f"{name}_p{p}_{unit}"] = {"value": value, "n": len(pooled),
                                            "unit": unit}
    ratio = (statistics.median(r["wall_s"] for r in traced)
             / statistics.median(r["wall_s"] for r in reps))
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    detail["trace.overhead_ratio"] = {"value": ratio, "n": len(traced),
                                      "unit": "ratio"}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="treelevel benchmark: one workload, one seed, one run.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "treelevel", "__init__.py")):
        print("error: src/treelevel not found; run from the root of a "
              "treelevel checkout", file=sys.stderr)
        return 2

    env = environment()
    trace_out = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_out = os.path.join(TRACE_DIR,
                                 f"trace-{args.workload}-{args.seed}.json")
    attempted = 1
    failed = 0 if env["moduli_max_n_unset"] else 1
    messages = [] if failed == 0 else ["MODULI_MAX_N is set"]
    reps, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for is_traced in ((False, True) if args.trace else (False,)):
            rep, error = run_child(args, is_traced, trace_out if is_traced else None)
            if rep is None:
                print(f"error: {args.workload} seed {args.seed}: {error}",
                      file=sys.stderr)
                return 1
            attempted += rep["attempted"]
            failed += rep["failed"]
            messages += rep["messages"]
            (traced if is_traced else reps).append(rep)
        rounds += 1
        elapsed = time.perf_counter() - start
        enough = len(traced) >= MIN_TRACED if args.trace else len(reps) >= MIN_REPS
        if enough and elapsed + elapsed / rounds > args.seconds:
            break
    env["loadavg_end"] = os.getloadavg()

    traced = [r for r in traced if "layers" in r]  # a body that raised has none
    if args.trace and not traced:
        print(f"error: {args.workload} seed {args.seed}: no traced repetition "
              "completed", file=sys.stderr)
        return 1
    metrics, detail = summarize(reps, traced, args.trace)
    for message in dict.fromkeys(messages):
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps), "traced_repetitions": len(traced),
        "measured_s": time.perf_counter() - start,
        "fail_ratio": failed / attempted,
        "environment": env, "metrics": detail,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
