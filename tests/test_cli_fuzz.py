"""No command line ends in a traceback.

A derandomized Hypothesis fuzz of ``cli.main(argv)`` over the six
subcommands, at small sizes, with file arguments that are missing or
name a directory.  Every run returns 0, 1 or 2, or stops in argparse
with ``SystemExit(2)``; a usage error is one ``error:`` line.
"""

import contextlib
import io
import os

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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argvs())
def test_main_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as stop:
            # argparse rejected the words themselves
            assert stop.code == 2, argv
            return
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
