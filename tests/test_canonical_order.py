"""Strata come out in canonical order by construction.

``enumerate_strata`` reads each canonical key off its enumeration node
instead of keying the built graph, and keeps no dedup dict.  These
tests hold ``canonical_key`` of the materialized graph as the
reference for the node key, and strictly increasing keys as the guard
against duplicates.
"""

import pytest

from treelevel.bruteforce import brute_force_strata
from treelevel.graphs import canonical_key
from treelevel.strata import (
    FM,
    M0,
    MULT,
    SCALED,
    _materialize,
    _node_key,
    _raw_strata,
    enumerate_strata,
)

# OEIS A000311 (Schroeder's fourth problem), a(0..7): m0(n) has a(n-1)
# strata and fm(n) has 2*a(n).
A000311 = (0, 1, 1, 4, 26, 236, 2752, 39208)

SPACES = ([M0(n) for n in range(3, 8)] + [FM(n) for n in range(6)]
          + [MULT(n) for n in range(1, 6)] + [SCALED(n) for n in range(5)])


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_node_key_is_canonical_key(space):
    nodes = list(_raw_strata(space))
    memo = {}
    for node in nodes:
        expected = canonical_key(_materialize(space, node))
        assert _node_key(space, node, {}) == expected
        assert _node_key(space, node, memo) == expected


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_keys_strictly_increase(space):
    keys = [canonical_key(g) for g in enumerate_strata(space)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumeration_calls_no_canonical_key(monkeypatch):
    from treelevel import graphs, strata

    def forbidden(g):
        raise AssertionError("enumerate_strata computed a canonical key")

    monkeypatch.setattr(graphs, "canonical_key", forbidden)
    monkeypatch.setattr(strata, "canonical_key", forbidden)
    assert len(enumerate_strata(MULT(4))) == 170
    assert len(enumerate_strata(M0(6))) == 236


def test_graphs_are_validated_lazily(monkeypatch):
    from treelevel import graphs

    calls = []
    real = graphs.validate
    monkeypatch.setattr(graphs, "validate",
                        lambda g: calls.append(g) or real(g))
    strata = enumerate_strata(SCALED(3))
    assert calls == []
    for g in strata:
        graphs.require_valid(g)
        graphs.require_valid(g)
    assert len(calls) == len(strata)


@pytest.mark.parametrize("space, count", [
    (M0(6), A000311[5]),
    (M0(7), A000311[6]),
    (FM(5), 2 * A000311[5]),
    (MULT(5), 2208),
    (SCALED(5), 2 * 2208),
], ids=str)
def test_counts_past_brute_force(space, count):
    assert len(enumerate_strata(space)) == count


@pytest.mark.slow
def test_mult6_node_keys():
    space = MULT(6)
    memo = {}
    nodes = list(_raw_strata(space))
    assert len(nodes) == 36648
    for node in nodes:
        assert (_node_key(space, node, memo)
                == canonical_key(_materialize(space, node)))


@pytest.mark.slow
def test_mult6_matches_brute_force():
    keys = [canonical_key(g) for g in enumerate_strata(MULT(6))]
    assert keys == sorted(brute_force_strata(MULT(6)))
