"""Strata streamed from their recursion nodes.

``iter_strata`` places each sorted node once.  The placement gives the
graph, built without normalizing its fields again, and its dimension
and codimension, read off the placement apart from each other; the
graph still passes one full ``validate`` and one ``is_stable``.  The
tests hold these against ``stratum_dimension``, ``stratum_codimension``
and the sum of the two, against the f-vector ``count_strata`` counts
with no enumeration, and the record ``strata --json`` writes from the
placed graph against ``json.dumps`` on ``to_json_obj``.
"""

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import textwrap
from types import MappingProxyType

import pytest

import treelevel
from treelevel import cli
from treelevel.cli import main
from treelevel.combis import bell
from treelevel.graphs import canonical_key, is_stable, rooted_forest, validate
from treelevel.strata import (
    FM,
    M0,
    MULT,
    SCALED,
    count_strata,
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


def generic_record(g, space):
    record = {**g.to_json_obj(),
              "dimension": stratum_dimension(g, space),
              "codimension": stratum_codimension(g, space)}
    return json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n    ")


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_record_text_matches_the_generic_encoder(space):
    for g, dimension, codimension in iter_strata(space):
        assert (cli._stratum_record(g, dimension, codimension)
                == generic_record(g, space))


def test_record_sorts_leg_labels_as_strings():
    g = rooted_forest([0], legs={l: 0 for l in range(1, 12)})
    record = cli._stratum_record(g, 11, 0)
    assert record == generic_record(g, FM(11))
    assert record.index('"10": 0') < record.index('"2": 0')


IMMUTABLE_SPACES = [M0(5), FM(3), MULT(3), SCALED(3)]


@pytest.mark.parametrize("space", IMMUTABLE_SPACES, ids=str)
def test_placed_strata_are_immutable_values(space):
    graphs = [g for g, _, _ in iter_strata(space)] + enumerate_strata(space)
    for g in graphs:
        for name in ("kind", "edges", "legs", "root", "vertex_ids"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
        for field in (g.legs, g.color):
            assert type(field) is MappingProxyType
        assert not hasattr(g, "genus")
        with pytest.raises(TypeError):
            g.legs[99] = 0
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert canonical_key(copy) == canonical_key(g)


def codimension_histogram(space):
    counts = collections.Counter(c for _, _, c in iter_strata(space))
    return dict(sorted(counts.items()))


# every family up to n = 6: 132424 strata
FVECTOR_SPACES = ([M0(n) for n in range(3, 7)] + [FM(n) for n in range(7)]
                  + [MULT(n) for n in range(1, 7)]
                  + [SCALED(n) for n in range(7)])


@pytest.mark.parametrize("space", FVECTOR_SPACES, ids=str)
def test_fvector_matches_enumeration(space):
    fvector = count_strata(space)
    assert sum(fvector.values()) == len(iter_strata(space))
    assert fvector == codimension_histogram(space)


def test_fvector_values():
    assert list(count_strata(MULT(6)).values()) == [
        1, 259, 3008, 10880, 15255, 7245]
    assert list(count_strata(MULT(7)).values()) == [
        1, 996, 17843, 101738, 247625, 268170, 106155]
    assert sum(count_strata(MULT(9)).values()) == 492879008
    assert sum(count_strata(M0(10)).values()) == 12818912


@pytest.mark.parametrize("n", range(3, 11))
def test_fvector_closed_forms(n):
    """Trivalent trees fill the top codimension; the codimension-1
    strata are the boundary divisors, less the fixed-scaling one of
    scaled(n), which is no stratum."""
    def double_factorial(k):
        return math.prod(range(k, 0, -2))

    assert count_strata(M0(n))[n - 3] == double_factorial(2 * n - 5)
    assert count_strata(FM(n))[n - 1] == double_factorial(2 * n - 3)
    bubbling = 2**n - n - 1
    assert count_strata(MULT(n))[1] == bubbling + bell(n) - 1
    assert count_strata(SCALED(n))[1] == bubbling + bell(n)


@pytest.mark.slow
@pytest.mark.parametrize("space", [M0(7), MULT(7)], ids=str)
def test_fvector_matches_enumeration_at_seven(space):
    assert count_strata(space) == codimension_histogram(space)


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
