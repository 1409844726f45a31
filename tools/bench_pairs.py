"""Benchmark a change against its parent in alternating pairs and write
one point of the perf history, a ``BENCH_*.json`` file.

Usage, from the root of a treelevel checkout holding the change:

    python3 tools/bench_pairs.py --parent 40b660b --pairs 10 --out BENCH_11.json

``--workload NAME``, which may be repeated, limits the runs to the
named workloads (default: all four), for example for a second round on
one workload that read worse in the first.  ``--first-seed N`` (default
9101) seeds pair i with N + i, so a second round can sample seeds the
first did not; the seeds used are recorded in ``settings.seeds``.

The change is the working tree.  Both sides are copied into fresh
directories of the same path length under one temporary directory: the
parent revision with ``git archive``, the change as the files ``git
ls-files`` lists (tracked, and untracked but not ignored).  Where a
checkout lies moves ``peak_rss_mb`` by up to 2% on its own, so neither
side runs in place.  Each pair runs ``perfbench/run.py --trace 0`` once
in each copy, for every chosen workload, for the ``run_seconds`` that
``BENCHMARK.json`` sets and with the same seed on both sides: the
parent runs first in odd pairs and the change first in even ones.  For
every end-to-end metric that ``BENCHMARK.json`` declares, the file
gives each side's runs, median and quartiles and the number of pairs
the change won (ties count for neither side), together with the
environment and both revisions.  The change's commit is recorded with
a flag for uncommitted changes and a SHA-256 of the ``src`` files that
were measured.  The closing summary on stdout has one line per workload
and metric, with both medians, the change in percent, the change wins
and the parent's interquartile range (IQR).  A line ends in
``unresolved`` when the gap between the medians is not larger than
that IQR, so the runs cannot tell the two sides apart, and in ``WORSE``
when the change median is worse than the parent's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "treelevel-bench-pairs/1"
WORKLOADS = ("enumerate", "degenerate", "cones", "calculus")
# pair i runs both sides with seed --first-seed + i
FIRST_SEED = 9101


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(command, checkout):
    """Unpack the tar stream ``command`` writes into the new directory
    ``checkout``."""
    os.mkdir(checkout)
    tar = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", checkout], stdin=tar.stdout,
                   check=True)
    tar.stdout.close()
    if tar.wait() != 0:
        raise SystemExit(f"error: {' '.join(command)} failed")
    return checkout


def working_tree_files():
    """Tracked files that exist, and untracked files not ignored."""
    names = git("ls-files", "--cached", "--others", "--exclude-standard",
                "-z").strip("\0").split("\0")
    return [n for n in names if os.path.isfile(os.path.join(ROOT, n))]


def src_digest(checkout):
    """SHA-256 over the paths and bytes of the files under ``src``."""
    sha = hashlib.sha256()
    top = os.path.join(checkout, "src")
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            sha.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                sha.update(fh.read())
    return sha.hexdigest()


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout}: "
                         f"exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    """Median and quartiles, as perfbench/run.py computes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs, end_to_end):
    """Per-metric medians, quartiles and change wins of one workload."""
    out = {"failed": {side: sum(r["failed"] for r in runs[side])
                      for side in runs},
           "attempted": {side: sum(r["attempted"] for r in runs[side])
                         for side in runs},
           "metrics": {}}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name] for r in runs[side]]
                  for side in runs}
        sign = 1 if metric["better"] == "lower" else -1
        diffs = [sign * (p - c)
                 for p, c in zip(values["parent"], values["change"])]
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            **{side: {**spread(values[side]), "runs": values[side]}
               for side in values},
            "change_wins": sum(d > 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "pairs": len(diffs),
        }
    return out


def summary_line(workload, name, m):
    """One line of the closing summary: the parent and change medians,
    the change in percent, the change wins and the parent's IQR, flagged
    ``unresolved`` when the medians lie no further apart than that IQR
    and ``WORSE`` when the change median is worse than the parent's."""
    before, after = m["parent"]["median"], m["change"]["median"]
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    pct = f"{100 * (after - before) / before:+.1f}%" if before else "n/a"
    worse = after > before if m["better"] == "lower" else after < before
    return (f"{workload}: {name} {before:.4f} -> {after:.4f} {pct} "
            f"({m['change_wins']}/{m['pairs']} change wins, "
            f"parent IQR {iqr:.4f})"
            + ("  unresolved" if abs(after - before) <= iqr else "")
            + ("  WORSE" if worse else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        metavar="NAME",
                        help="run only this workload (repeatable; "
                             "default: all four)")
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED,
                        metavar="N",
                        help=f"seed of the first pair; pair i uses N + i "
                             f"(default: {FIRST_SEED})")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = [w for w in WORKLOADS if w in (args.workload or WORKLOADS)]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    end_to_end = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    revisions = {
        "parent": {"commit": git("rev-parse", f"{args.parent}^{{commit}}")},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain",
                                                   "--", "src", "perfbench"))},
    }
    env = {"python": sys.version.split()[0], "platform": platform.platform(),
           "nproc": len(os.sched_getaffinity(0)),
           "loadavg_start": os.getloadavg()}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    started = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {
            "parent": export(["git", "archive", args.parent],
                             os.path.join(tmp, "parent")),
            "change": export(["tar", "-c", "--", *working_tree_files()],
                             os.path.join(tmp, "change")),
        }
        for side, checkout in checkouts.items():
            revisions[side]["src_sha256"] = src_digest(checkout)
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(run_once(
                        checkouts[side], workload, seed, seconds))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    env["loadavg_end"] = os.getloadavg()
    report = {
        "schema": SCHEMA,
        "revisions": revisions,
        "environment": env,
        "settings": {
            "pairs": args.pairs,
            "workloads": workloads,
            "seeds": [args.first_seed + i for i in range(args.pairs)],
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "order": "parent first in odd pairs, change first in even pairs",
            "elapsed_s": round(time.time() - started, 1),
        },
        "workloads": {w: summarize(runs[w], end_to_end) for w in workloads},
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for w in workloads:
        for name, m in report["workloads"][w]["metrics"].items():
            print(summary_line(w, name, m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
