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
from .graphs import COLORED_KINDS, Color, Kind, MarkedGraph
from .series import SeriesRing, _integer
from .strata import SpaceKind, boundary_divisors, iter_strata


def _frac_str(x):
    return str(Fraction(x))


_quote = json.encoder.encode_basestring_ascii


def _container(opening, items, closing, pad):
    """A JSON list or object laid out as ``json.dumps(indent=2)`` lays it
    out on a line indented by ``pad``, from its items already encoded
    for the indentation ``pad`` plus two spaces."""
    if not items:
        return opening + closing
    inner = "\n" + pad + "  "
    return opening + inner + ("," + inner).join(items) + "\n" + pad + closing


def _write_json(obj, stream=None):
    """Print ``obj`` as ``print(json.dumps(obj, indent=2, sort_keys=True))``
    does, item by item for the list under ``stream``.

    ``stream`` names a key that sorts after every key of ``obj`` and
    maps to an iterable of items already encoded, as
    :func:`_stratum_record` encodes them; they are written as they come,
    so neither the list nor the whole document is held.  ``json.dumps``
    writes everything else.
    """
    write = sys.stdout.write
    if stream is None:
        write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return
    head = dict(obj)
    items = head.pop(stream)
    if not all(k < stream for k in head):
        raise ValueError(f"{stream!r} must sort after every other key")
    write("{\n")
    for k in sorted(head):
        value = json.dumps(head[k], indent=2, sort_keys=True)
        write("  " + _quote(k) + ": " + value.replace("\n", "\n  ") + ",\n")
    write("  " + _quote(stream) + ": ")
    sep = "[\n    "
    for item in items:
        write(sep + item)
        sep = ",\n    "
    write("[]\n}\n" if sep == "[\n    " else "\n  ]\n}\n")


# The indentation of a "strata" item, of its fields and of the items of
# its lists and objects.
_ITEM_PAD = "    "
_FIELD_PAD = _ITEM_PAD + "  "
_VERTEX_PAD = _FIELD_PAD + "  "
_COLOR_FIELD = {c: '"color": ' + _quote(c.value) for c in Color}


def _stratum_record(g, dimension, codimension):
    """The "strata" item of ``g`` as ``_write_json`` takes it: the text
    ``json.dumps`` gives for ``{**g.to_json_obj(), "dimension": dimension,
    "codimension": codimension}`` nested four spaces deep, written from
    the graph's fields with no record dict.  The fields are in normal
    form, so only the leg labels need sorting, as the strings they
    become."""
    if g.kind is Kind.MODULAR:
        verts = [_container("{", ['"genus": 0', f'"id": {v}'],
                            "}", _VERTEX_PAD) for v in g.vertex_ids]
    elif g.kind in COLORED_KINDS:
        verts = [_container("{", [_COLOR_FIELD[g.color[v]], f'"id": {v}'],
                            "}", _VERTEX_PAD) for v in g.vertex_ids]
    else:
        verts = [_container("{", [f'"id": {v}'], "}", _VERTEX_PAD)
                 for v in g.vertex_ids]
    edges = [_container("[", [str(a), str(b)], "]", _VERTEX_PAD)
             for a, b in g.edges]
    legs = sorted((str(l), v) for l, v in g.legs.items())
    fields = [
        f'"codimension": {codimension}',
        f'"dimension": {dimension}',
        '"edges": ' + _container("[", edges, "]", _FIELD_PAD),
        '"kind": ' + _quote(g.kind.value),
        '"legs": ' + _container(
            "{", [f'"{l}": {v}' for l, v in legs], "}", _FIELD_PAD),
    ]
    if g.root is not None:
        fields.append(f'"root": {g.root}')
    fields.append('"vertices": ' + _container("[", verts, "]", _FIELD_PAD))
    return _container("{", fields, "}", _ITEM_PAD)


def _space(args):
    return SpaceKind(args.space, args.n)


def _divisor_record(d):
    return {"name": d.name, "shape": d.shape[0], "dimension": d.dimension(),
            "generic_type": d.generic_type.to_json_obj()}


def cmd_strata(args):
    space = _space(args)
    divisors = [_divisor_record(d) for d in boundary_divisors(space)]
    if args.dot:
        # a bad path fails before the enumeration; an existing file is
        # left as it is until the strata are sorted
        open(args.dot, "a").close()
    strata = iter_strata(space)
    # the DOT file is written in the same pass as the listing
    dot = open(args.dot, "w") if args.dot else None
    try:
        def lines(line):
            for g, dimension, codimension in strata:
                if dot is not None:
                    dot.write(g.to_dot())
                yield line(g, dimension, codimension)

        if args.json:
            _write_json({"space": str(space),
                         "ambient_dimension": space.ambient_dimension,
                         "divisors": divisors,
                         "strata": lines(_stratum_record)},
                        stream="strata")
        else:
            print(f"{space}: ambient dimension {space.ambient_dimension}, "
                  f"{len(strata)} strata, {len(divisors)} boundary divisors")
            for text in lines(_stratum_line):
                print(text)
            for d in divisors:
                print(f"  divisor {d['name']} (dim {d['dimension']})")
    finally:
        if dot is not None:
            dot.close()
    if dot is not None:
        print(f"wrote {len(strata)} graphs to {args.dot}", file=sys.stderr)
    return 0


def _stratum_line(g, dimension, codimension):
    return (f"  dim {dimension} codim {codimension}: "
            f"{len(g.vertex_ids)} vertices, {len(g.edges)} edges")


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


# the space each --verify check is about
_VERIFY_SPACE = {"pullback": "mult", "m04": "m0", "rho": "scaled"}


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
    if args.space != _VERIFY_SPACE[args.verify]:
        raise InvalidArgument(
            f"--verify {args.verify} needs --space "
            f"{_VERIFY_SPACE[args.verify]}, not {args.space}")
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


# Upper guards on the cohft sizes.  On the README's cohft examples the
# time does not grow with --order (the spec's arities bound the degrees
# reached) and grows about quadratically with --q-cap.  solve-qde solves
# for every q numerator up to q_cap x q_denominator that the spec's q
# exponents reach, all of them when those exponents are spread over the
# finer grid, so the spec's q_denominator needs a bound of its own.
MAX_ORDER = 30
MAX_Q_CAP = 100
MAX_Q_DENOMINATOR = 1000


def _nonnegative(value, name):
    if value < 0:
        raise InvalidArgument(f"{name} must be nonnegative, not {value}")
    return value


def _at_most(value, name, bound):
    """``value`` as an int in 0..bound; a string or float such as a
    spec's ``"order": "2"`` is refused by name, not compared."""
    value = _integer(name, value)
    if _nonnegative(value, name) > bound:
        raise InvalidArgument(f"{name} must be at most {bound}, not {value}")
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
        q_denominator=_at_most(spec.get("q_denominator", 1),
                               "q_denominator", MAX_Q_DENOMINATOR),
        t_cap=_at_most(order, "order", MAX_ORDER),
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
        pairs = None
        if "pairs" in spec:
            pairs = [(i, j) for i, j in spec["pairs"]]
            for pair in pairs:
                cohft._check_indices(pair, len(basis_v), "pair")
        return phi, alg_v, alg_w, v, pairs
    alg = cohft.algebra_from_terms(
        ring, tuple(spec["basis"]), _parse_terms(ring, spec["mu"]))
    if args.cohft_command == "check-associativity":
        return alg, cohft.generic_point(ring, alg.dim)
    return alg, cohft.as_vector(ring, alg.dim, spec.get("xi", 1))


def cmd_cohft(args):
    _at_most(args.q_cap, "--q-cap", MAX_Q_CAP)
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
    try:
        lines = [f"  sigma[{i}][{j}] = {entry}"
                 for i, row in enumerate(sol.sigma)
                 for j, entry in enumerate(row)]
    except ValueError as err:
        # str() of an int past sys.int_max_str_digits
        raise InvalidArgument(
            f"a sigma coefficient cannot be printed: {err}") from None
    print(f"fundamental solution through q^{args.q_cap} "
          f"(gauge: sigma q^(A0/hbar)); residual zero: {ok}")
    for line in lines:
        print(line)
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
    if args.criteria is not None:
        selected = {_parse(int, x, "--criteria")
                    for x in args.criteria.split(",")}
        unknown = sorted(selected - {num for num, _, _ in selftest.CRITERIA})
        if unknown:
            raise InvalidArgument(
                f"--criteria: no criterion {', '.join(map(str, unknown))}")
    results = selftest.run_all(selected)
    failed = 0
    for num, name, ok, detail, ms in results:
        print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}"
              f" [{ms:.0f} ms]")
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
    except (TreelevelError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
