"""The accepting pass in front of ``validate``.

``graphs._accepts`` decides in one pass the graphs that are one tree
obeying every rule of their kind; ``graphs._problems``, the full
per-leg check, runs only on the rest.  The pass must be sound (it never
accepts a graph the full check faults) and in use (it accepts every
stratum and every morphism result, or the fast path is dead code).
"""

import functools
import random

import pytest

from treelevel.errors import TreelevelError
from treelevel.graphs import (
    COLORED_KINDS,
    Color,
    MarkedGraph,
    _accepts,
    _problems,
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
    # the edge count stays, so only the reach of the pass can tell
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


def assert_sound(graphs):
    """No graph the pass accepts has a problem; returns how many it
    accepted."""
    accepted = [g for g in graphs if _accepts(g)]
    unsound = [g for g in accepted if _problems(g)]
    assert unsound == []
    return len(accepted)


# -- soundness -------------------------------------------------------------------

@pytest.mark.parametrize("space", SOUND_SPACES, ids=str)
def test_sound_on_strata(space):
    assert assert_sound(strata(space)) == len(strata(space))


def test_sound_on_perturbed_strata():
    graphs = perturbed(1901, 20000)
    accepted = assert_sound(graphs)
    # both sides of the pass are exercised
    assert 2000 < accepted < 18000
    assert sum(validate(g) == [] for g in graphs) > accepted


@pytest.mark.slow
def test_sound_on_m0_7_and_more_perturbations():
    assert assert_sound(strata(M0(7))) == len(strata(M0(7)))
    assert assert_sound(perturbed(1902, 60000, PERTURBED_SPACES
                                  + [MULT(5), SCALED(5)])) > 6000


# -- use -------------------------------------------------------------------------

USE_SPACES = ([MULT(n) for n in range(1, 7)] + [SCALED(n) for n in range(6)]
              + [M0(n) for n in range(3, 7)] + [FM(n) for n in range(6)])


@pytest.mark.parametrize("space", USE_SPACES, ids=str)
def test_accepts_every_stratum(space):
    assert all(_accepts(g) for g in strata(space))


@pytest.mark.parametrize("space", [
    pytest.param(s, marks=pytest.mark.slow) if s == MULT(6) else s
    for s in USE_SPACES], ids=str)
def test_accepts_every_morphism_result(space):
    count = 0
    for g in strata(space):
        outs = derived(g)
        assert all(_accepts(out) for out in outs)
        count += len(outs)
    assert count or len(strata(space)) <= 2


# -- what falls back -------------------------------------------------------------

def test_infinite_root_may_hold_zero_subtrees():
    g = rooted_colored_tree(
        {0: Color.INFINITY, 1: Color.ZERO, 2: Color.COLORED},
        [(0, 1), (0, 2)], {1: 1, 2: 1, 3: 2}, root=0)
    assert _accepts(g) and _problems(g) == []


@pytest.mark.parametrize("g", [
    # a childless infinite vertex below a colored one
    colored_tree({0: Color.COLORED, 1: Color.INFINITY}, [(0, 1)],
                 {0: 0, 1: 0}),
    # a forest: a zero bubble cut off the colored vertex
    cut_edge(colored_tree({0: Color.COLORED, 1: Color.ZERO}, [(0, 1)],
                          {0: 0, 1: 1, 2: 1}), 0, (3, 4)),
], ids=["colored-over-infinite", "forest"])
def test_valid_graphs_outside_the_pass_fall_back(g):
    assert not _accepts(g)
    assert validate(g) == []


def test_refused_graph_gets_the_full_problems():
    g = colored_tree({0: Color.ZERO, 1: Color.COLORED}, [(0, 1)],
                     {0: 0, 1: 1})
    assert not _accepts(g)
    assert validate(g) == [
        "leg 0 sits on a zero-scaling vertex",
        "vertex 0 on the root side must have infinite scaling"]
