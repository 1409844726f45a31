"""Balanced gluing-parameter relations of a colored tree and the
associated toric cone.

The gluing parameters of a colored tree live on its finite edges; the
balanced condition forces the signed product of parameters along the
path between any two colored vertices to equal one.  Taking exponents,
the relations span an integer lattice inside Z^edges; the local model
of the moduli space is the toric variety of the quotient cone, whose
rays, simpliciality and smoothness this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    Disconnected,
    InvalidGraph,
    KindMismatch,
    NoColoredVertex,
    TooLarge,
)
from .graphs import (
    COLORED_KINDS,
    Color,
    _parents,
    is_stable,
    require_valid,
)
from .linalg import (
    cone_contains,
    primitive,
    smith_normal_form,
)

#: Upper guard on the edges of a graph whose cone is computed.  The time
#: goes to the Smith form of the relation rows, one per colored vertex
#: but one, and grows with about the third power of the edge count.
#: The slowest shape tried, a star of colored leaves under an infinite
#: vertex, classifies in 0.08-0.15 s at 200 edges on 2 shared vCPUs
#: with Python 3.11 (0.23-0.38 s when each row step of the Smith form
#: rebuilds the whole row, measured alongside); infinite vertices over
#: three colored leaves, chains and stars over zero bubbles take about
#: 0.11 s or less.  Strata reach at most 10 edges in mult(6) and 9 in
#: scaled(5).
MAX_CONE_EDGES = 200


@dataclass(frozen=True)
class RelationLattice:
    """Integer relation matrix of the balanced condition.

    One column per finite edge (in the graph's stored edge order), one
    row per colored vertex beyond a fixed base vertex: entry +1 on
    edges pointing toward the root side of the path from the base, -1
    on edges pointing away.
    """

    edges: tuple
    matrix: tuple
    rank: int


@dataclass(frozen=True)
class ConeData:
    ambient_rank: int
    rays: tuple
    simplicial: bool
    smooth: bool
    torsion: tuple = ()


def relation_lattice(g):
    """Relation rows for the balanced labelling of a colored tree.

    The row for a colored vertex w is chi(base) - chi(w), where chi(v)
    is the indicator vector of the edges on the path from v up to the
    anchor; the common tail of the two paths cancels, leaving +1 on the
    ascending half and -1 on the descending half.  Raises TooLarge when
    ``g`` has more than :data:`MAX_CONE_EDGES` edges.

    The rank is the row count, with no elimination.  With two or more
    colored vertices none sits at the anchor (a colored top has only
    zero vertices below it), and in a valid tree no colored vertex lies
    below another.  So row w has -1 on the edge from w up to its parent
    and no other row touches that edge: the rows are independent, and
    their minor on those edges is -1 times the identity, so they span a
    saturated lattice.
    """
    return _relation_lattice(g)[0]


def _relation_lattice(g):
    """:func:`relation_lattice` of ``g`` and the parent map of ``g`` hung
    from its anchor, which the rows are read from."""
    require_valid(g)
    if g.kind not in COLORED_KINDS:
        raise KindMismatch("relation lattices live on colored kinds")
    # a valid graph is a forest, so one tree exactly when |E| = |V| - 1
    if len(g.edges) != len(g.vertex_ids) - 1:
        raise Disconnected("relation lattice needs a connected tree")
    if not is_stable(g):
        raise InvalidGraph("relation lattice is defined for stable types")
    colored = [v for v in g.vertex_ids if g.color[v] is Color.COLORED]
    if not colored:
        raise NoColoredVertex("no colored vertex")
    nedges = len(g.edges)
    if nedges > MAX_CONE_EDGES:
        raise TooLarge(f"the relation lattice would have {nedges} edge "
                       f"columns, more than {MAX_CONE_EDGES}")

    parents = _parents(g.adjacency(), g.anchor)
    # the edge from each vertex but the anchor up to its parent
    up_edge = {}
    for i, (a, b) in enumerate(g.edges):
        up_edge[b if parents[b] == a else a] = i

    def chi(v):
        vec = [0] * nedges
        while parents[v] is not None:
            vec[up_edge[v]] = 1
            v = parents[v]
        return vec

    base_chi = chi(colored[0])
    rows = tuple(tuple(x - y for x, y in zip(base_chi, chi(w)))
                 for w in colored[1:])
    return RelationLattice(tuple(range(nedges)), rows, len(rows)), parents


def classify_cone(g):
    """Quotient-lattice cone of the gluing-parameter space.

    The quotient of Z^edges by the saturation of the relation lattice
    is computed through a Smith normal form; the images of the standard
    basis vectors generate the cone, and the rays are the images of the
    edges :func:`_ray_edges` keeps, sorted.  Simplicial means #rays
    equals the rank; smooth means the rays form a lattice basis.

    A simplicial cone is smooth.  The relation rows are signed paths of
    the tree, so the matrix is the transpose of a network matrix and
    totally unimodular (Schrijver, *Theory of Linear and Integer
    Programming*, ch. 19).  Edge images independent in the quotient
    leave a nonsingular square minor on the other columns, of
    determinant +-1, so they form a lattice basis, and the rays of a
    simplicial cone are such images.
    """
    rel, parents = _relation_lattice(g)
    nedges = len(rel.edges)
    ambient = nedges - rel.rank
    if not rel.matrix:
        rays = tuple(tuple(int(j == i) for j in range(nedges))
                     for i in range(nedges))
        return ConeData(ambient, rays, True, True)
    d, v = smith_normal_form(rel.matrix)
    s = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    if s != rel.rank:
        raise InvalidGraph("Smith rank disagrees with relation rank")
    torsion = tuple(d[i][i] for i in range(s) if abs(d[i][i]) != 1)
    images = [tuple(v[i][s:]) for i in range(nedges)]
    if any(not any(img) for img in images):
        raise InvalidGraph("a gluing parameter died in the quotient")
    rays = tuple(sorted({primitive(images[i])
                         for i in _ray_edges(g, parents)}))
    simplicial = len(rays) == ambient
    return ConeData(ambient, rays, simplicial, simplicial, torsion)


def _ray_edges(g, parents):
    """Indices of the edges whose images are the extremal rays;
    ``parents`` is ``g`` hung from its anchor.

    Colors run infinite, colored, zero downward from the anchor.  A
    relation row only sees the path of a colored vertex up to the
    anchor, so the balanced condition reads: a functional on Z^edges
    passes to the quotient when it sums to the same value along every
    such path.

    An edge p -> c from an infinite vertex to a colored one is dropped
    when p has an infinite child x: for a colored w below x the two
    paths agree above p, so e_pc = e_px + (the path from x down to w),
    a sum of other generators.  Every other edge e is extremal, shown
    by a functional that has one sum along every path, is negative on
    e and nonnegative on every generator off e's ray:
    - an edge to a zero vertex meets no path; take -1 on it alone;
    - an infinite edge p -> x: -1 on it, +1 on each edge from x to a
      child;
    - an edge p -> c when p has no infinite child: all of p's colored
      edges have the same image, e_pc's ray; take -1 on each of them
      and +1 on the edge above p (at the anchor, nothing more: every
      path is then one of those edges).
    """
    # the vertices with an infinite child, all of them infinite
    over_infinite = {parents[v] for v in g.vertex_ids
                     if g.color[v] is Color.INFINITY
                     and parents[v] is not None}
    keep = []
    for i, (a, b) in enumerate(g.edges):
        p, c = (a, b) if parents[b] == a else (b, a)
        if not (g.color[c] is Color.COLORED and p in over_infinite):
            keep.append(i)
    return keep


def cone_rays(g):
    """Extremal rays of the gluing-parameter cone."""
    return classify_cone(g).rays


def cone_summary(g, space=None):
    """Rank, rays and flags, plus the codimension cross-check when a
    space is supplied."""
    data = classify_cone(g)
    out = {
        "ambient_rank": data.ambient_rank,
        "rays": [list(r) for r in data.rays],
        "ray_count": len(data.rays),
        "simplicial": data.simplicial,
        "smooth": data.smooth,
    }
    if data.torsion:
        out["torsion"] = list(data.torsion)
    if space is not None:
        from .strata import stratum_codimension

        out["codimension"] = stratum_codimension(g, space)
    return out


def in_cone(target, g):
    """Membership of an integer vector in the gluing cone (diagnostic)."""
    data = classify_cone(g)
    return cone_contains(target, data.rays)
