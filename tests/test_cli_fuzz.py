"""No command line ends in a traceback.

A derandomized Hypothesis fuzz of ``cli.main(argv)`` over the six
subcommands, at small sizes, with file arguments that are missing or
name a directory, of ``cone --graph`` over files of random colored
trees, and of the ``cohft`` checks over small spec files.  Every run
returns 0, 1 or 2, or stops in argparse with ``SystemExit(2)``; a
usage error is one ``error:`` line.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from treelevel.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
# Neither path can be opened as a file, so nothing is ever written.
PATHS = st.sampled_from([os.path.join(HERE, "no-such-dir", "x.json"), HERE])

SPACES = st.sampled_from(["m0", "fm", "mult", "scaled", "m1"])
SIZES = st.integers(-2, 5).map(str) | st.sampled_from(["x", "", "1.5"])
ORDERS = st.integers(-2, 4).map(str) | st.sampled_from(["x", ""])
FRACTIONS = st.sampled_from(["0", "1", "2", "3", "-1", "1/2", "5/2", "1/0",
                             "abc", ""])
WEIGHTS = (st.lists(st.integers(-2, 4).map(str), max_size=4).map(",".join)
           | st.sampled_from(["a,b", "1,,2", "1.5"]))
# Criteria 7-10 take tenths of a second each and the others are instant;
# no --criteria (or an empty one) would run them all.
CRITERIA = st.sampled_from(["1", "2", "3", "4", "5", "6", "11", "12", "1,12",
                            "0", "99", "-1", "abc", ","])


@st.composite
def argvs(draw):
    def optional(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    def json_flag():
        return ["--json"] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["strata", "cone", "divisors", "cohft",
                                    "kirwan", "selftest"]))
    if command == "strata":
        return (["strata", "--space", draw(SPACES), "--n", draw(SIZES)]
                + json_flag() + optional("--dot", PATHS))
    if command == "cone":
        return ["cone", "--graph", draw(PATHS)] + json_flag()
    if command == "divisors":
        verify = st.sampled_from(["pullback", "m04", "rho", "none"])
        split = st.sampled_from(["12|34", "13|24", "14|23", "1|234"])
        return (["divisors", "--space", draw(SPACES), "--n", draw(SIZES)]
                + json_flag() + optional("--verify", verify)
                + optional("--split", split))
    if command == "cohft":
        check = st.sampled_from(["check-star-morphism", "check-associativity",
                                 "solve-qde", "check"])
        return (["cohft", draw(check), "--spec", draw(PATHS)]
                + optional("--order", ORDERS) + optional("--q-cap", ORDERS))
    if command == "kirwan":
        return (["kirwan", "--weights", draw(WEIGHTS)] + json_flag()
                + optional("--theta", FRACTIONS)
                + optional("--degree-bound", FRACTIONS))
    return ["selftest", "--criteria", draw(CRITERIA)]


@st.composite
def colored_tree_files(draw):
    """The JSON text of a colored tree, rooted or with leg 0.

    An infinite top is over 2-5 branches, each a colored leaf with one
    or two legs or an infinite vertex over two or three such leaves; or
    it is over 9-12 branches of the second sort, up to 48 edges.  Both
    classify in milliseconds.  Some trees get one defect: a recolored
    vertex or a leaf without legs."""
    colors = ["infinity"]
    edges = []
    legs = {}

    def vertex(parent, color):
        colors.append(color)
        edges.append([parent, len(colors) - 1])
        return len(colors) - 1

    def leaf(parent):
        v = vertex(parent, "colored")
        for _ in range(draw(st.integers(1, 2))):
            legs[str(len(legs) + 1)] = v

    wide = draw(st.booleans())
    for _ in range(draw(st.integers(9, 12) if wide else st.integers(2, 5))):
        if not wide and draw(st.booleans()):
            leaf(0)
        else:
            mid = vertex(0, "infinity")
            for _ in range(draw(st.integers(2, 3))):
                leaf(mid)
    defect = draw(st.sampled_from([None, None, "recolor", "bare leaf"]))
    if defect == "recolor":
        v = draw(st.integers(0, len(colors) - 1))
        colors[v] = draw(st.sampled_from(["zero", "colored", "infinity"]))
    elif defect == "bare leaf":
        bare = draw(st.sampled_from(sorted(set(legs.values()))))
        legs = {l: v for l, v in legs.items() if v != bare}
    obj = {"kind": "colored_tree", "edges": edges, "legs": legs,
           "vertices": [{"id": v, "color": c} for v, c in enumerate(colors)]}
    if draw(st.booleans()):
        obj["kind"], obj["root"] = "rooted_colored_tree", 0
    else:
        legs["0"] = 0
    return json.dumps(obj)


def run_main(argv):
    """``main(argv)`` with its output captured; None when argparse
    stops it with exit code 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as stop:
            # argparse rejected the words themselves
            assert stop.code == 2, argv
            return None
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
    return rc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argvs())
def test_main_never_raises(argv):
    assert run_main(argv) in (None, 0, 1, 2), argv


@settings(derandomize=True, max_examples=100, deadline=None)
@given(colored_tree_files(), st.booleans())
def test_cone_on_random_trees(text, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.json")
        with open(path, "w") as fh:
            fh.write(text)
        rc = run_main(["cone", "--graph", path] + (["--json"] if as_json
                                                   else []))
    assert rc in (0, 2), text


# A JSON value of every type that may reach an integer slot of a spec:
# ints out of range, bools, floats, strings and null.
BAD_VALUES = st.sampled_from([-1, 2, True, False, 0.5, 1.0, "0", "x", None])


@st.composite
def cohft_specs(draw):
    """A cohft command, its options and the JSON text of its spec.

    The spec starts well formed, over one or two basis vectors, with
    one to four terms per family, a product's first term of arity 2,
    and gets up to two defects: a term cut to arity 0 or 1, an entry of
    a term replaced by one of BAD_VALUES, a key dropped, or a bad
    ``pairs``, ``phi0``, ``xi``, ``order`` or ``q_denominator``.  Terms
    have arity 0-4, orders at most 6 and q caps at most 2, so each run
    takes milliseconds."""
    dim = draw(st.integers(1, 2))
    index = st.integers(0, dim - 1)
    q_denominator = draw(st.integers(1, 2))
    exponents = ["0", "1", "1/2"][:q_denominator + 1]

    def family(first, least):
        terms = []
        for k in range(draw(st.integers(1, 4))):
            n = first if k == 0 else draw(st.integers(least, 4))
            term = {"inputs": [draw(index) for _ in range(n)],
                    "output": draw(index)}
            if draw(st.booleans()):
                term["coeff"] = draw(st.sampled_from(["1", "-1/2", "3", "0"]))
            if draw(st.booleans()):
                term["q"] = draw(st.sampled_from(exponents))
            terms.append(term)
        return terms

    basis = [f"e{i}" for i in range(dim)]
    command = draw(st.sampled_from(["check-star-morphism",
                                    "check-associativity", "solve-qde"]))
    if command == "check-star-morphism":
        spec = {"basis_v": basis, "basis_w": basis, "mu_v": family(2, 2),
                "mu_w": family(2, 2), "phi": family(1, 1)}
        if draw(st.booleans()):
            spec["pairs"] = [[draw(index), draw(index)]]
    else:
        spec = {"basis": basis, "mu": family(2, 2)}
        if dim == 1 or draw(st.booleans()):
            spec["xi"] = draw(index)
    spec["q_cap"] = draw(st.sampled_from(["1", "3/2", 2]))
    if q_denominator > 1 or draw(st.booleans()):
        spec["q_denominator"] = q_denominator
    entries = BAD_VALUES | index
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["arity", "entry", "drop", "key"]))
        families = [k for k in ("mu", "mu_v", "mu_w", "phi") if k in spec]
        if defect in ("arity", "entry") and families:
            term = draw(st.sampled_from(spec[draw(st.sampled_from(families))]))
            inputs = term["inputs"]
            if defect == "arity":
                del inputs[draw(st.integers(0, 1)):]
            elif inputs and draw(st.booleans()):
                inputs[draw(st.integers(0, len(inputs) - 1))] = draw(
                    BAD_VALUES)
            else:
                term[draw(st.sampled_from(["output", "coeff", "q"]))] = draw(
                    BAD_VALUES)
        elif defect == "drop":
            spec.pop(draw(st.sampled_from(sorted(spec))))
        else:
            key = draw(st.sampled_from(["pairs", "phi0", "xi", "order",
                                        "q_denominator"]))
            spec[key] = draw(BAD_VALUES | st.lists(entries, max_size=3)
                             | st.lists(st.lists(entries, max_size=3),
                                        max_size=2))
    options = []
    if draw(st.booleans()):
        options += ["--order", str(draw(st.integers(0, 6)))]
    if command == "solve-qde":
        options += ["--q-cap", str(draw(st.integers(0, 2)))]
    return command, options, json.dumps(spec)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cohft_specs())
def test_cohft_on_random_specs(case):
    command, options, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            fh.write(text)
        rc = run_main(["cohft", command, "--spec", path] + options)
    assert rc in (0, 1, 2), text
