"""One repetition of a workload in a fresh interpreter.

Run by run.py from the root of a treelevel checkout, with ``src`` on
PYTHONPATH.  Times the set-up (importing treelevel.cli and building its
parser) before anything else is imported, builds the workload's inputs
from the seed, times the body, checks the outputs and prints one JSON
report as its last line of stdout.  With ``--trace 1`` it also installs
the layer probes before the body and replays the inner layers after it.
"""

import time

_T0 = time.perf_counter()
import treelevel.cli  # noqa: E402  (set-up is what is being timed)

treelevel.cli.build_parser()
SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("graphs", "strata", "morphisms", "cones", "linalg", "series",
          "cohft", "kirwan", "divrel", "cli")
# Per-layer numbers that come from a workload's outputs or replays;
# a workload without them reports 0.
FROM_WORKLOAD = ("graphs.validate_replay_us", "graphs.canonical_key_replay_us",
                 "cones.rays_per_generator", "kirwan.relations_per_degree")
# Kept-span names whose per-call durations go back to run.py for percentiles.
DURATIONS = ("morphisms.forget_tail", "cones.classify")


def install_probes(tr):
    """Wrap the public functions that the workloads reach only through
    another layer, so their calls and time are counted."""
    from treelevel import divrel, graphs, kirwan, linalg, morphisms, series, strata

    tr.install("graphs.validate", graphs, "validate")
    tr.install("graphs.canonical_key", graphs, "canonical_key")
    tr.install("strata.enumerate", strata, "enumerate_strata",
               lambda args, out: tr.count("strata.strata_emitted", len(out)))
    tr.install("strata.dimension", strata, "stratum_dimension")
    tr.install("strata.codimension", strata, "stratum_codimension")
    tr.install("morphisms.forget_tail", morphisms, "forget_tail")
    tr.install("morphisms.collapse", morphisms, "collapse_edge")
    tr.install("morphisms.collapse", morphisms, "collapse_with_relations")
    for fn in ("verify_multiplihedron_pullback", "verify_m04_pullback",
               "rho_divisor_enumeration"):
        tr.install("divrel.verify", divrel, fn)
    tr.install("linalg.smith_normal_form", linalg, "smith_normal_form")
    tr.install("linalg.extremal_rays", linalg, "extremal_rays")
    tr.install("linalg.cone_contains", linalg, "cone_contains")
    tr.install("kirwan.qh_presentation", kirwan, "qh_presentation")
    tr.install("kirwan.semistability_check", kirwan, "check_stable_equals_semistable")
    tr.install("kirwan.semistability_check", kirwan, "is_semistable")

    def mul_work(args, out):
        a, b = args
        if isinstance(b, series.Series):
            tr.count("series.mul_term_pairs", len(a.coeffs) * len(b.coeffs))
            tr.count("series.mul_terms_kept", len(out.coeffs))

    tr.install("series.mul", series.Series, "__mul__", mul_work)

    # cli serializes with json.dumps; give the cli module a json whose
    # dumps is probed, leaving every other user of json alone.
    cli = treelevel.cli
    proxy = type(json)("json")
    proxy.__dict__.update(vars(json))
    proxy.dumps = tr.probe("cli.serialize", json.dumps)
    cli.json = proxy


def layer_metrics(tr, wl):
    """Per-layer numbers of the traced body (before any replay)."""

    def calls(name):
        return tr.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return tr.totals.get(name, (0, 0.0, 0.0))[1]

    pairs = tr.counts.get("series.mul_term_pairs", 0)
    out = {
        "graphs.validate_calls": calls("graphs.validate"),
        "graphs.validate_s": seconds("graphs.validate"),
        "graphs.canonical_key_calls": calls("graphs.canonical_key"),
        "graphs.canonical_key_s": seconds("graphs.canonical_key"),
        "strata.enumerate_s": seconds("strata.enumerate"),
        "strata.strata_emitted": tr.counts.get("strata.strata_emitted", 0),
        "strata.dimension_s": seconds("strata.dimension"),
        "strata.codimension_s": seconds("strata.codimension"),
        "strata.closure_poset_s": seconds("strata.closure_poset"),
        "cli.main_s": seconds("cli.main"),
        "cli.serialize_s": seconds("cli.serialize"),
        "cli.bytes_out": wl.bytes_out(),
        "morphisms.forget_tail_calls": calls("morphisms.forget_tail"),
        "morphisms.forget_tail_s": seconds("morphisms.forget_tail"),
        "divrel.verify_s": seconds("divrel.verify"),
        "cones.classify_calls": calls("cones.classify"),
        "cones.classify_s": seconds("cones.classify"),
        "linalg.smith_normal_form_s": seconds("linalg.smith_normal_form"),
        "linalg.extremal_rays_s": seconds("linalg.extremal_rays"),
        "kirwan.qh_presentation_s": seconds("kirwan.qh_presentation"),
        "kirwan.semistability_check_s": seconds("kirwan.semistability_check"),
        "series.mul_calls": calls("series.mul"),
        "series.mul_s": seconds("series.mul"),
        "series.mul_term_pairs": pairs,
        "series.kept_ratio": (tr.counts.get("series.mul_terms_kept", 0) / pairs
                              if pairs else 0.0),
        "cohft.compose_trace_s": seconds("cohft.compose_trace"),
        "cohft.star_morphism_s": seconds("cohft.star_morphism"),
        "cohft.associativity_s": seconds("cohft.associativity"),
        "cohft.solve_qde_s": seconds("cohft.solve_qde"),
    }
    self_s = tr.layer_self_seconds()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out.update(dict.fromkeys(FROM_WORKLOAD, 0.0))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE")
    args = parser.parse_args(argv)

    src = os.path.realpath("src")
    if not os.path.realpath(treelevel.cli.__file__).startswith(src + os.sep):
        print(f"error: treelevel was imported from {treelevel.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tr = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        install_probes(tr)
    ck = workloads.Checks()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with tr.span("workload." + args.workload):
            wl.body(tr)
        body_ok = True
    except Exception:
        traceback.print_exc()
        body_ok = False
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024,
        "items": 0,
    }
    if not body_ok:
        ck(False, "workload body raised")
    else:
        layers = layer_metrics(tr, wl) if args.trace else None
        try:
            wl.check(ck)
            report["items"] = wl.items
            if args.trace:
                layers.update(wl.layers(tr))
        except Exception:
            traceback.print_exc()
            ck(False, "checking the outputs raised")
        if args.trace:
            report["layers"] = layers
            report["durations"] = {k: tr.durations.get(k, []) for k in DURATIONS}
            if args.trace_out:
                with open(args.trace_out, "w") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed,
                               **tr.dump()}, fh)
    report.update(attempted=ck.attempted, failed=ck.failed, messages=ck.messages)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
