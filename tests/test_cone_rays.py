"""The cone rays read off the tree against the extremal-ray search.

``classify_cone`` keeps every edge's image but that of an edge from an
infinite vertex to a colored one when the infinite vertex also has an
infinite child.  The reference below filters all the edge images with
``linalg.extremal_rays``, which tests each against the cone of the
others.  The two must agree, in the same order, on every stratum and on
random valid stable colored trees, errors included.  So must smoothness,
which ``classify_cone`` takes to be simpliciality and the reference
reads off the determinant of the rays.
"""

import random

import pytest

from treelevel.cones import classify_cone, relation_lattice
from treelevel.errors import TreelevelError
from treelevel.graphs import (
    Color,
    colored_tree,
    is_stable,
    rooted_colored_tree,
    validate,
)
from treelevel.linalg import det, extremal_rays, smith_normal_form
from treelevel.strata import MULT, SCALED, enumerate_strata

# a tree past this many edges asks the reference for too many bases
MAX_RANDOM_EDGES = 14
RANDOM_TREES = 1000


def reference_rays(g):
    """``extremal_rays`` of every edge's image in the quotient lattice,
    with the no-relation branch's unit vectors in edge order."""
    rel = relation_lattice(g)
    nedges = len(rel.edges)
    if not rel.matrix:
        return tuple(tuple(int(j == i) for j in range(nedges))
                     for i in range(nedges))
    _, v = smith_normal_form(rel.matrix)
    return tuple(extremal_rays([row[rel.rank:] for row in v]))


def reference_cone(g):
    """The reference rays, and smoothness read off their determinant:
    a simplicial cone is smooth when its rays have determinant +-1."""
    rays = reference_rays(g)
    ambient = len(rays[0]) if rays else 0
    return rays, len(rays) == ambient and abs(det(rays)) == 1


def outcome(f, g):
    """``f(g)``, or the type of the error it raises."""
    try:
        return f(g)
    except TreelevelError as err:
        return type(err)


def rays_and_smooth(g):
    cone = classify_cone(g)
    return cone.rays, cone.smooth


def assert_same_rays(g):
    assert outcome(rays_and_smooth, g) == outcome(reference_cone, g), g


@pytest.mark.parametrize("space", [MULT(n) for n in range(1, 6)]
                         + [SCALED(n) for n in range(0, 5)], ids=str)
def test_rays_match_extremal_search_on_strata(space):
    for g in enumerate_strata(space):
        assert_same_rays(g)


@pytest.mark.slow
def test_rays_match_extremal_search_on_mult6():
    for g in enumerate_strata(MULT(6)):
        assert_same_rays(g)


def test_infinite_root_over_a_zero_subtree():
    # the root has no infinite child, so both colored edges are rays;
    # the zero child must not count as one
    g = rooted_colored_tree(
        {0: Color.INFINITY, 1: Color.COLORED, 2: Color.COLORED,
         3: Color.ZERO},
        [(0, 1), (0, 2), (0, 3)], {1: 1, 2: 2, 3: 3, 4: 3}, root=0)
    assert classify_cone(g).rays == ((0, 1), (1, 0))
    assert_same_rays(g)


def random_tree(rng, rooted):
    """A random colored tree, valid and stable or not: an infinite or
    colored top over infinite, colored and zero subtrees, a few levels
    deep, most vertices with enough special points to be stable.
    Infinite vertices take zero children now and then, which the
    enumeration never builds but a rooted tree's infinite root may hold.
    """
    colors, edges, legs = {}, [], {}

    def vertex(color, parent):
        v = len(colors)
        colors[v] = color
        if parent is not None:
            edges.append((parent, v))
        return v

    def bubble_slots(v, slots, depth):
        # each slot is a leg or, above the last level, a zero subtree
        for _ in range(slots):
            if depth and rng.random() < 0.3:
                zero(v, depth - 1)
            else:
                legs[len(legs) + 1] = v

    def zero(parent, depth):
        bubble_slots(vertex(Color.ZERO, parent), rng.randint(2, 3), depth)

    def colored(parent, depth):
        bubble_slots(vertex(Color.COLORED, parent), rng.randint(1, 3), depth)

    def infinite(parent, depth, least=2):
        v = vertex(Color.INFINITY, parent)
        for _ in range(rng.randint(least, 4)):
            pick = rng.random()
            if pick < 0.08:
                zero(v, 1)
            elif depth and pick < 0.45:
                infinite(v, depth - 1)
            else:
                colored(v, 1)

    depth = rng.randint(1, 3)
    if rng.random() < 0.15:
        colored(None, depth)
    else:
        infinite(None, depth, 1 if rooted else 2)
    if rooted:
        return rooted_colored_tree(colors, edges, legs, root=0)
    return colored_tree(colors, edges, {0: 0, **legs})


def valid_stable_trees(seed, rooted, count):
    rng = random.Random(seed)
    found = 0
    while found < count:
        g = random_tree(rng, rooted)
        if (len(g.edges) <= MAX_RANDOM_EDGES and not validate(g)
                and is_stable(g)):
            found += 1
            yield g


@pytest.mark.parametrize("rooted", [False, True], ids=["leg0", "rooted"])
def test_rays_match_extremal_search_on_random_trees(rooted):
    trees = list(valid_stable_trees(2024 + rooted, rooted, RANDOM_TREES))
    for g in trees:
        assert_same_rays(g)
    # the sample reaches zero vertices beside infinite ones, not only
    # mult's shapes
    assert any({Color.ZERO, Color.INFINITY} <= set(g.color.values())
               for g in trees)
