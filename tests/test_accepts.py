"""``graphs.validate`` against the full check it replaced.

``validate`` decides a valid tree in one walk and explains any other
graph from the parents that walk recorded.
``reference_validate.reference`` is the earlier full check, kept
verbatim, which walked the component and each leg's path on its own.
Their
problem lists must be equal, word for word and in order, on every
stratum and morphism result, on seeded perturbations of strata and on
seeded random graphs of all four kinds.  The one walk must also be in
use: every stratum and every morphism result is decided on its fast
exit, before any component is listed.  The test names keep the words
of the earlier design: "accepts" means ``validate`` returns ``[]``, and
"the pass" is the walk's fast exit.
"""

import functools
import random
from unittest import mock

import pytest

from reference_validate import reference
from treelevel.errors import TreelevelError
from treelevel.graphs import (
    COLORED_KINDS,
    ROOTED_KINDS,
    Color,
    Kind,
    MarkedGraph,
    colored_tree,
    rooted_colored_tree,
    validate,
)
from treelevel.morphisms import (
    collapse_edge,
    collapse_with_relations,
    cut_edge,
    forget_tail,
)
from treelevel.strata import FM, M0, MULT, SCALED, enumerate_strata

SOUND_SPACES = ([M0(n) for n in range(3, 7)] + [FM(n) for n in range(6)]
                + [MULT(n) for n in range(1, 6)]
                + [SCALED(n) for n in range(6)])
PERTURBED_SPACES = ([M0(n) for n in range(4, 7)] + [FM(n) for n in range(2, 5)]
                    + [MULT(n) for n in range(2, 5)]
                    + [SCALED(n) for n in range(1, 5)])


@functools.lru_cache(maxsize=None)
def strata(space):
    return enumerate_strata(space)


def derived(g):
    """Every forget, collapse and collapse-with-relations result of
    ``g`` that exists."""
    outs = []
    for leg in g.legs:
        if leg:
            try:
                outs.append(forget_tail(g, leg))
            except TreelevelError:
                pass
    for i in range(len(g.edges)):
        try:
            outs.append(collapse_edge(g, i))
        except TreelevelError:
            pass
    for v, c in g.color.items():
        if c is Color.INFINITY:
            try:
                outs.append(collapse_with_relations(g, v))
            except TreelevelError:
                pass
    return outs


def assert_matches(sample):
    """``validate`` equals the reference on every graph of ``sample``;
    returns how many are valid."""
    lists = [validate(g) for g in sample]
    assert [g for g, p in zip(sample, lists) if p != reference(g)] == []
    return lists.count([])


def decided_in_one_walk(sample):
    """The problem lists of ``sample``, with listing components made to
    fail: only the fast exit of the walk can return."""
    with mock.patch.object(MarkedGraph, "components",
                           side_effect=AssertionError("left the walk")):
        return [validate(g) for g in sample]


# -- perturbations -------------------------------------------------------------
#
# Each takes the fields of a graph (decorations, edges, legs, root) and
# a seeded Random and changes them in place.

def _vertex(rng, decor):
    """A vertex of the graph, or now and then one that is not."""
    ids = list(decor)
    if not ids or rng.random() < 0.05:
        return max(ids, default=0) + 1
    return rng.choice(ids)


def _recolor(rng, kind, decor, edges, legs, root):
    if kind in COLORED_KINDS:
        decor[rng.choice(list(decor))] = rng.choice(list(Color))
    return root


def _drop_edge(rng, kind, decor, edges, legs, root):
    if edges:
        edges.pop(rng.randrange(len(edges)))
    return root


def _add_edge(rng, kind, decor, edges, legs, root):
    # may add a loop, a parallel edge or an unknown end
    edges.append((_vertex(rng, decor), _vertex(rng, decor)))
    return root


def _move_edge(rng, kind, decor, edges, legs, root):
    # the edge count stays, so only the reach of the walk can tell
    _drop_edge(rng, kind, decor, edges, legs, root)
    return _add_edge(rng, kind, decor, edges, legs, root)


def _move_leg(rng, kind, decor, edges, legs, root):
    if legs:
        legs[rng.choice(list(legs))] = _vertex(rng, decor)
    return root


def _relabel_leg(rng, kind, decor, edges, legs, root):
    if legs:
        v = legs.pop(rng.choice(list(legs)))
        legs[rng.randint(-2, len(legs) + 2)] = v
    return root


def _set_leg0_or_root(rng, kind, decor, edges, legs, root):
    choice = rng.randrange(4)
    if choice == 0:
        legs[0] = _vertex(rng, decor)
    elif choice == 1:
        legs.pop(0, None)
    elif choice == 2:
        return _vertex(rng, decor)
    else:
        return None
    return root


PERTURBATIONS = (_recolor, _drop_edge, _add_edge, _move_edge, _move_leg,
                 _relabel_leg, _set_leg0_or_root)


def perturbed(seed, count, spaces=PERTURBED_SPACES):
    """``count`` seeded graphs, each a stratum of ``spaces`` changed by
    one to three perturbations."""
    rng = random.Random(seed)
    pool = [g for space in spaces for g in strata(space)]
    out = []
    while len(out) < count:
        g = rng.choice(pool)
        decor, edges, legs = g.decorations(), list(g.edges), dict(g.legs)
        root = g.root
        for _ in range(rng.randint(1, 3)):
            root = rng.choice(PERTURBATIONS)(rng, g.kind, decor, edges, legs,
                                             root)
        out.append(MarkedGraph(g.kind, decor, edges, legs, root))
    return out


# -- random graphs ----------------------------------------------------------------

_BELOW = {Color.INFINITY: (Color.INFINITY, Color.COLORED),
          Color.COLORED: (Color.ZERO,), Color.ZERO: (Color.ZERO,)}


def random_graph(rng):
    """A seeded random graph of any kind: a random tree whose colors
    mostly keep the downward scaling pattern, with now and then an edge
    cut (a forest), a stray edge (a loop, a parallel edge or an unknown
    end), a leg moved or relabelled, or the root or leg 0 changed."""
    kind = rng.choice(list(Kind))
    n = rng.randint(1, 8)
    parent = {v: rng.randrange(v) for v in range(1, n)}
    color = {0: rng.choice((Color.INFINITY, Color.INFINITY, Color.COLORED,
                            Color.ZERO))}
    for v in range(1, n):
        up = color[parent[v]]
        if rng.random() < 0.1:
            color[v] = rng.choice(list(Color))
        elif parent[v] == 0 and kind is Kind.ROOTED_COLORED_TREE:
            # any child under the root: an infinite root may hold zero ones
            color[v] = rng.choice(list(Color))
        else:
            color[v] = rng.choice(_BELOW[up])
    edges = [(parent[v], v) for v in range(1, n)]
    rng.shuffle(edges)
    while edges and rng.random() < 0.3:
        edges.pop(rng.randrange(len(edges)))
    if rng.random() < 0.1:
        edges.append((rng.randint(0, n), rng.randint(0, n - 1)))
    ids = list(range(n))
    fine = [v for v in ids if color[v] is not Color.INFINITY] or ids
    legs = {l: rng.choice(fine if rng.random() < 0.9 else ids)
            for l in range(1, rng.randint(1, 6))}
    if rng.random() < 0.05:
        legs[rng.choice((-1, 0, 1))] = rng.randint(0, n)
    root = 0 if kind in ROOTED_KINDS else None
    if kind is Kind.COLORED_TREE:
        legs[0] = 0
    if rng.random() < 0.05:
        root = rng.choice((None, 0, rng.randint(0, n)))
    if rng.random() < 0.05:
        if legs.pop(0, None) is None:
            legs[0] = 0
    relabel = ids[:]
    rng.shuffle(relabel)
    relabel += range(n, n + 2)
    if kind in COLORED_KINDS:
        decor = {relabel[v]: color[v] for v in ids}
    else:
        decor = {relabel[v]: 0 if kind is Kind.MODULAR else None for v in ids}
    return MarkedGraph(
        kind, decor, [(relabel[a], relabel[b]) for a, b in edges],
        {l: relabel[v] for l, v in legs.items()},
        None if root is None else relabel[root])


def random_graphs(seed, count):
    rng = random.Random(seed)
    return [random_graph(rng) for _ in range(count)]


# -- the reference ---------------------------------------------------------------

@pytest.mark.parametrize("space", SOUND_SPACES, ids=str)
def test_sound_on_strata(space):
    assert assert_matches(strata(space)) == len(strata(space))


def test_sound_on_perturbed_strata():
    sample = perturbed(1901, 20000)
    valid = assert_matches(sample)
    # both verdicts are exercised
    assert 2000 < valid < 18000


def test_matches_reference_on_random_graphs():
    sample = random_graphs(2301, 20000)
    valid = assert_matches(sample)
    forests = [g for g in sample if validate(g) == []
               and len(g.components()) > 1]
    assert 4000 < valid < 16000
    assert len(forests) > 1000
    assert {g.kind for g in forests} == set(Kind)


@pytest.mark.slow
def test_sound_on_m0_7_and_more_perturbations():
    assert assert_matches(strata(M0(7))) == len(strata(M0(7)))
    assert assert_matches(perturbed(1902, 60000, PERTURBED_SPACES
                                    + [MULT(5), SCALED(5)])) > 6000


# -- use -------------------------------------------------------------------------

USE_SPACES = ([MULT(n) for n in range(1, 7)] + [SCALED(n) for n in range(6)]
              + [M0(n) for n in range(3, 7)] + [FM(n) for n in range(6)])


@pytest.mark.parametrize("space", USE_SPACES, ids=str)
def test_accepts_every_stratum(space):
    assert not any(decided_in_one_walk(strata(space)))


@pytest.mark.parametrize("space", [
    pytest.param(s, marks=pytest.mark.slow) if s == MULT(6) else s
    for s in USE_SPACES], ids=str)
def test_accepts_every_morphism_result(space):
    outs = [out for g in strata(space) for out in derived(g)]
    assert not any(decided_in_one_walk(outs))
    assert assert_matches(outs) == len(outs)
    assert outs or len(strata(space)) <= 2


# -- what is explained -------------------------------------------------------------

def test_infinite_root_may_hold_zero_subtrees():
    g = rooted_colored_tree(
        {0: Color.INFINITY, 1: Color.ZERO, 2: Color.COLORED},
        [(0, 1), (0, 2)], {1: 1, 2: 1, 3: 2}, root=0)
    assert decided_in_one_walk([g]) == [[]] and reference(g) == []


@pytest.mark.parametrize("g", [
    # a childless infinite vertex below a colored one
    colored_tree({0: Color.COLORED, 1: Color.INFINITY}, [(0, 1)],
                 {0: 0, 1: 0}),
    # a forest: a zero bubble cut off the colored vertex
    cut_edge(colored_tree({0: Color.COLORED, 1: Color.ZERO}, [(0, 1)],
                          {0: 0, 1: 1, 2: 1}), 0, (3, 4)),
], ids=["colored-over-infinite", "forest"])
def test_valid_graphs_outside_the_pass_fall_back(g):
    """Valid graphs that leave the walk's fast exit (the accepting pass
    of the name) are still decided valid."""
    with pytest.raises(AssertionError, match="left the walk"):
        decided_in_one_walk([g])
    assert validate(g) == [] == reference(g)


def test_refused_graph_gets_the_full_problems():
    g = colored_tree({0: Color.ZERO, 1: Color.COLORED}, [(0, 1)],
                     {0: 0, 1: 1})
    assert validate(g) == reference(g) == [
        "leg 0 sits on a zero-scaling vertex",
        "vertex 0 on the root side must have infinite scaling"]
