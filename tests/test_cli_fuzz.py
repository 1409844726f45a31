"""No command line ends in a traceback.

A derandomized Hypothesis fuzz of ``cli.main(argv)`` over the six
subcommands, at small sizes, with file arguments that are missing or
name a directory, and of ``cone --graph`` over files of random colored
trees.  Every run returns 0, 1 or 2, or stops in argparse with
``SystemExit(2)``; a usage error is one ``error:`` line.
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
