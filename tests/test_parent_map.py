"""One walk per graph: ``validate`` and ``relation_lattice`` read every
path to the anchor off one parent map.

The problem lists of ``validate`` over a corpus of perturbed strata, and
the cone classification of every stratum of mult(3..5) and scaled(3..4),
are pinned as SHA-256 digests computed before the parent map replaced
one breadth-first search per path.
"""

import hashlib
import itertools

from treelevel.cones import classify_cone
from treelevel.graphs import Color, MarkedGraph, _parents, _path_up, validate
from treelevel.strata import FM, MULT, SCALED, enumerate_strata

PERTURBED_SPACES = (MULT(3), MULT(4), SCALED(3), SCALED(4), FM(4))
PROBLEMS_SHA256 = (
    "4515de6708d0f8afc25c381710a8024905db78f115e2f2aba312acb989c6cd1c")

CONE_SPACES = (MULT(3), MULT(4), MULT(5), SCALED(3), SCALED(4))
CONES_SHA256 = (
    "0d94d0527a49224823844fc992e9603c903426e7fea22a8afef36fd3a4e932c4")


def _perturbed(g):
    """``g`` itself, then ``g`` with one vertex recolored to each other
    color, with one edge dropped, and with one new edge for each pair
    of vertices (parallel to an old edge or not)."""
    decor = g.decorations()
    yield g
    for v in g.color:
        for c in Color:
            if c is not g.color[v]:
                yield MarkedGraph(g.kind, {**decor, v: c}, g.edges, g.legs,
                                  g.root)
    for i in range(len(g.edges)):
        yield MarkedGraph(g.kind, decor, g.edges[:i] + g.edges[i + 1:],
                          g.legs, g.root)
    for pair in itertools.combinations(g.vertex_ids, 2):
        yield MarkedGraph(g.kind, decor, g.edges + (pair,), g.legs, g.root)


def _problem_lines():
    return [repr(validate(h)) for space in PERTURBED_SPACES
            for g in enumerate_strata(space) for h in _perturbed(g)]


def test_validate_problem_lists_are_pinned():
    lines = _problem_lines()
    assert len(lines) == 13846
    assert sum(1 for line in lines if line != "[]") == 12236
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PROBLEMS_SHA256


def test_cone_classification_is_pinned():
    text = "".join(repr(classify_cone(g)) for space in CONE_SPACES
                   for g in enumerate_strata(space))
    assert hashlib.sha256(text.encode()).hexdigest() == CONES_SHA256


def test_path_up_runs_from_the_vertex_to_the_top():
    # 0 - 1 - 2 - 3 with a branch 1 - 4; hung from 3
    adj = {0: [1], 1: [0, 2, 4], 2: [1, 3], 3: [2], 4: [1], 5: []}
    parents = _parents(adj, 3)
    assert _path_up(parents, 0) == [0, 1, 2, 3]
    assert _path_up(parents, 4) == [4, 1, 2, 3]
    assert _path_up(parents, 3) == [3]
    assert 5 not in parents
