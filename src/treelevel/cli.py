"""Command-line interface: strata, cone, divisors, cohft, kirwan,
selftest.

All output is deterministic for fixed inputs (strata and divisors are
ordered by canonical key or name), rationals are printed as p/q
strings, and nothing is ever rounded.  Exit codes: 0 success, 1
verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cohft, divrel, kirwan, selftest
from .cones import cone_summary
from .errors import InvalidArgument, TreelevelError
from .graphs import MarkedGraph
from .series import SeriesRing
from .strata import (
    SpaceKind,
    boundary_divisors,
    enumerate_strata,
    stratum_codimension,
    stratum_dimension,
)


def _frac_str(x):
    return str(Fraction(x))


_quote = json.encoder.encode_basestring_ascii
# Encoders of the leaf types, looked up by exact type so that the
# containers below encode their leaves without a recursive call.
_LEAF = {str: _quote, int: int.__repr__,
         bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def _indented(obj, pad=""):
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it,
    for a value nested at the indentation ``pad``.

    Accepts dicts with str keys, lists, str, int, bool and None, and
    raises TypeError on anything else.  It builds strings directly, where
    ``json.dumps`` with an indent runs its pure-Python encoder.
    """
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # a key that is not a str fails in sorted() or in _quote
        items = [_quote(k) + ": " + (_LEAF[type(v)](v) if type(v) in _LEAF
                                     else _indented(v, inner))
                 for k, v in sorted(obj.items())]
        opening, closing = "{", "}"
    elif isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_LEAF[type(v)](v) if type(v) in _LEAF else _indented(v, inner)
                 for v in obj]
        opening, closing = "[", "]"
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable")
    return (opening + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + pad + closing)


def _write_json(obj, stream=None):
    """Print ``obj`` as ``print(json.dumps(obj, indent=2, sort_keys=True))``
    would, item by item for the list under ``stream``.

    ``stream`` names a key that sorts after every key of ``obj`` and
    maps to an iterable; its items are written as they come, so neither
    the list nor the whole document is held.
    """
    write = sys.stdout.write
    if stream is None:
        write(_indented(obj) + "\n")
        return
    head = dict(obj)
    items = head.pop(stream)
    if not all(k < stream for k in head):
        raise ValueError(f"{stream!r} must sort after every other key")
    write("{\n")
    for k in sorted(head):
        write("  " + _quote(k) + ": " + _indented(head[k], "  ") + ",\n")
    write("  " + _quote(stream) + ": ")
    sep = "[\n    "
    for item in items:
        write(sep + _indented(item, "    "))
        sep = ",\n    "
    write("[]\n}\n" if sep == "[\n    " else "\n  ]\n}\n")


def _space(args):
    return SpaceKind(args.space, args.n)


def _divisor_record(d):
    return {"name": d.name, "shape": d.shape[0], "dimension": d.dimension(),
            "generic_type": d.generic_type.to_json_obj()}


def cmd_strata(args):
    space = _space(args)
    strata = enumerate_strata(space)
    divisors = [_divisor_record(d) for d in boundary_divisors(space)]

    def records():
        for g in strata:
            rec = g.to_json_obj()
            rec["dimension"] = stratum_dimension(g, space)
            rec["codimension"] = stratum_codimension(g, space)
            yield rec

    if args.json:
        _write_json({"space": str(space),
                     "ambient_dimension": space.ambient_dimension,
                     "divisors": divisors, "strata": records()},
                    stream="strata")
    else:
        print(f"{space}: ambient dimension {space.ambient_dimension}, "
              f"{len(strata)} strata, {len(divisors)} boundary divisors")
        for rec in records():
            print(f"  dim {rec['dimension']} codim {rec['codimension']}: "
                  f"{len(rec['vertices'])} vertices, {len(rec['edges'])} edges")
        for d in divisors:
            print(f"  divisor {d['name']} (dim {d['dimension']})")
    if args.dot:
        with open(args.dot, "w") as fh:
            for g in strata:
                fh.write(g.to_dot())
        print(f"wrote {len(strata)} graphs to {args.dot}", file=sys.stderr)
    return 0


def cmd_cone(args):
    with open(args.graph) as fh:
        g = MarkedGraph.from_json(fh.read())
    summary = cone_summary(g)
    if args.json:
        _write_json(summary)
    else:
        print(f"ambient rank {summary['ambient_rank']}, "
              f"{summary['ray_count']} extremal rays")
        for ray in summary["rays"]:
            print("  ray", tuple(ray))
        print(f"simplicial: {summary['simplicial']}, smooth: {summary['smooth']}")
    return 0


def cmd_divisors(args):
    space = _space(args)
    if args.verify is None:
        divisors = boundary_divisors(space)
        if args.json:
            _write_json([_divisor_record(d) for d in divisors])
        else:
            for d in divisors:
                print(f"{d.name}  dim {d.dimension()}  codim {d.codimension()}")
        return 0
    if args.verify == "pullback":
        report = divrel.verify_multiplihedron_pullback(args.n)
    elif args.verify == "m04":
        report = divrel.verify_m04_pullback(args.n, args.split)
    else:
        report = divrel.rho_divisor_enumeration(args.n)
    print(report.summary())
    return 0 if report.ok else 1


def _parse_terms(ring, raw):
    terms = []
    for item in raw:
        if not isinstance(item, dict):
            raise InvalidArgument(f"a term must be a JSON object, not {item!r}")
        coeff = ring.scalar(Fraction(str(item.get("coeff", "1"))))
        qexp = Fraction(str(item.get("q", "0")))
        if qexp:
            coeff = coeff * ring.q_power(qexp)
        terms.append((tuple(item["inputs"]), item["output"], coeff))
    return terms


def _nonnegative(value, name):
    if value < 0:
        raise InvalidArgument(f"{name} must be nonnegative, not {value}")
    return value


def _cohft_inputs(args):
    """Parse and check the spec file into the arguments of the check."""
    with open(args.spec) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise InvalidArgument("the spec must be a JSON object")
    order = args.order if args.order is not None else spec.get("order", 6)
    ring = SeriesRing(
        tvars=spec.get("tvars") or [f"t{i}" for i in
                                    range(len(spec.get("basis_v",
                                                       spec.get("basis", []))))],
        q_denominator=spec.get("q_denominator", 1),
        t_cap=_nonnegative(order, "order"),
        q_cap=_nonnegative(Fraction(str(spec.get("q_cap", 0))), "q_cap"),
    )
    if args.cohft_command == "check-star-morphism":
        basis_v, basis_w = tuple(spec["basis_v"]), tuple(spec["basis_w"])
        alg_v = cohft.algebra_from_terms(ring, basis_v,
                                         _parse_terms(ring, spec["mu_v"]))
        alg_w = cohft.algebra_from_terms(ring, basis_w,
                                         _parse_terms(ring, spec["mu_w"]))
        phi0 = None
        if "phi0" in spec:
            phi0 = [ring.scalar(Fraction(str(c))) for c in spec["phi0"]]
        phi = cohft.morphism_from_terms(
            ring, len(basis_v), len(basis_w),
            _parse_terms(ring, spec["phi"]), phi0=phi0)
        if spec.get("at_zero"):
            v = [ring.zero()] * len(basis_v)
        else:
            v = cohft.generic_point(ring, len(basis_v))
        pairs = [(i, j) for i, j in spec["pairs"]] if "pairs" in spec else None
        return phi, alg_v, alg_w, v, pairs
    alg = cohft.algebra_from_terms(
        ring, tuple(spec["basis"]), _parse_terms(ring, spec["mu"]))
    if args.cohft_command == "check-associativity":
        return alg, cohft.generic_point(ring, alg.dim)
    return alg, cohft.as_vector(ring, alg.dim, spec.get("xi", 1))


def cmd_cohft(args):
    _nonnegative(args.q_cap, "--q-cap")
    try:
        inputs = _cohft_inputs(args)
    except KeyError as err:
        raise InvalidArgument(f"{args.spec}: missing key {err}") from None
    except (TreelevelError, TypeError, ValueError, ZeroDivisionError) as err:
        raise InvalidArgument(f"{args.spec}: {err}") from None
    if args.cohft_command == "check-associativity":
        ok, wit = cohft.check_associativity(*inputs)
        print("associativity:", "PASS" if ok else f"FAIL {wit}")
        return 0 if ok else 1
    if args.cohft_command == "check-star-morphism":
        phi, alg_v, alg_w, v, pairs = inputs
        ok, wit = cohft.check_star_morphism(phi, alg_v, alg_w, v=v, pairs=pairs)
        print("star-morphism identity:", "PASS" if ok else f"FAIL {wit}")
        return 0 if ok else 1
    # solve-qde
    alg, xi = inputs
    sol = cohft.solve_qde(alg, xi=xi, q_cap=args.q_cap)
    ok = sol.residual_is_zero()
    print(f"fundamental solution through q^{args.q_cap} "
          f"(gauge: sigma q^(A0/hbar)); residual zero: {ok}")
    for i, row in enumerate(sol.sigma):
        for j, entry in enumerate(row):
            print(f"  sigma[{i}][{j}] = {entry}")
    return 0 if ok else 1


def _parse(convert, raw, option):
    try:
        return convert(raw)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgument(f"{option}: cannot parse {raw!r}") from None


def cmd_kirwan(args):
    weights = [(_parse(int, w, "--weights"),) for w in args.weights.split(",")]
    theta = _parse(Fraction, args.theta, "--theta")
    bound = _parse(Fraction, args.degree_bound, "--degree-bound")
    action = kirwan.TorusAction(weights, (theta,))
    pres = kirwan.qh_presentation(action, bound)
    if args.json:
        out = {
            "weights": [w[0] for w in action.weights],
            "theta": _frac_str(action.theta[0]),
            "relations": [
                {
                    "degree": _frac_str(rel.degree[0]),
                    "exponents": list(rel.exponents),
                    "monomial": rel.monomial(),
                    "scalar": rel.scalar,
                    "xi_power": rel.xi_power,
                    "q_exponent": _frac_str(rel.q_exponent),
                    "count": rel.count,
                    "image_of_xi_power": _frac_str(rel.image_of_xi_power())
                    if rel.count else "0",
                    "sector": {
                        "exp_d": [_frac_str(x) for x in rel.sector.exp_d],
                        "support": sorted(rel.sector.support),
                        "order": rel.sector.order,
                        "twisted": rel.sector.twisted,
                    },
                }
                for rel in pres.relations
            ],
            "presentation": pres.presentation_string(),
        }
        _write_json(out)
    else:
        print(pres.summary())
    return 0


def cmd_selftest(args):
    selected = None
    if args.criteria:
        selected = {int(x) for x in args.criteria.split(",")}
    results = selftest.run_all(selected)
    failed = 0
    for num, name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treelevel",
        description="Genus-zero moduli combinatorics, gluing cones, "
                    "CohFT calculus and toric quantum-Kirwan counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("strata", help="enumerate strata of a moduli space")
    p.add_argument("--space", required=True,
                   choices=["m0", "fm", "mult", "scaled"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(fn=cmd_strata)

    p = sub.add_parser("cone", help="gluing-parameter cone of a colored tree")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cone)

    p = sub.add_parser("divisors", help="boundary divisors and relations")
    p.add_argument("--space", required=True,
                   choices=["m0", "fm", "mult", "scaled"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", choices=["pullback", "m04", "rho"])
    p.add_argument("--split", default="12|34",
                   choices=["12|34", "13|24", "14|23"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_divisors)

    p = sub.add_parser("cohft", help="formal CohFT-algebra checks")
    p.add_argument("cohft_command",
                   choices=["check-star-morphism", "check-associativity",
                            "solve-qde"])
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--q-cap", type=int, default=3)
    p.set_defaults(fn=cmd_cohft)

    p = sub.add_parser("kirwan", help="toric quantum-Kirwan relations")
    p.add_argument("--weights", required=True,
                   help="comma-separated integer weights, e.g. 1,2")
    p.add_argument("--theta", default="1")
    p.add_argument("--degree-bound", default="1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_kirwan)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TreelevelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
