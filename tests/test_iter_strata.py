"""Strata streamed from their recursion nodes.

``iter_strata`` builds one stratum at a time from the sorted nodes,
with its dimension and codimension from ``stratum_dimension`` and
``stratum_codimension``; the two are computed apart, so their sum
being the ambient dimension is a check.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import textwrap

import pytest

import treelevel
from treelevel.cli import main
from treelevel.graphs import is_stable, validate
from treelevel.strata import (
    FM,
    M0,
    MULT,
    SCALED,
    enumerate_strata,
    iter_strata,
    stratum_codimension,
    stratum_dimension,
)

# 10757 strata in all.
SPACES = ([M0(n) for n in range(3, 8)] + [FM(n) for n in range(6)]
          + [MULT(n) for n in range(1, 6)] + [SCALED(n) for n in range(6)])


def test_spaces_hold_10757_strata():
    assert sum(len(iter_strata(space)) for space in SPACES) == 10757


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_iter_strata_yields_valid_stable_strata_in_order(space):
    strata = iter_strata(space)
    expected = enumerate_strata(space)
    assert len(strata) == len(expected)
    seen = []
    for g, dimension, codimension in strata:
        assert validate(g) == []
        assert is_stable(g)
        assert dimension == stratum_dimension(g, space)
        assert codimension == stratum_codimension(g, space)
        assert dimension + codimension == space.ambient_dimension
        seen.append(g)
    assert seen == expected


def test_each_stratum_is_validated_once(monkeypatch):
    from treelevel import graphs

    calls = []
    real = graphs.validate
    monkeypatch.setattr(graphs, "validate",
                        lambda g: calls.append(g) or real(g))
    strata = iter_strata(SCALED(3))
    assert calls == []
    graphs_seen = [g for g, _, _ in strata]
    assert calls == graphs_seen


def test_enumeration_holds_no_subtree_memo():
    """Nothing the enumeration allocates outlives it: the subtree lists
    are scoped to one enumeration, not cached for the process."""
    code = textwrap.dedent("""
        import gc
        import tracemalloc
        from treelevel.strata import MULT, enumerate_strata

        enumerate_strata(MULT(2))
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        enumerate_strata(MULT(5))
        gc.collect()
        print(tracemalloc.get_traced_memory()[0] - before)
    """)
    src = os.path.dirname(os.path.dirname(treelevel.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert int(proc.stdout) < 16 * 1024


class _HashSink(io.TextIOBase):
    def __init__(self):
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, s):
        self.sha.update(s.encode())
        return len(s)


@pytest.mark.slow
def test_mult7_json_is_pinned():
    """742528 strata, streamed; SHA-256 of stdout pinned before the
    stream was read off the nodes."""
    sink = _HashSink()
    with contextlib.redirect_stdout(sink):
        assert main(["strata", "--space", "mult", "--n", "7", "--json"]) == 0
    assert sink.sha.hexdigest() == (
        "3f1920369439cc8b5de8908f77c390e8343ee7592aaebaa55c37aeccc4a68710")
