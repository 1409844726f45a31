"""Graph morphisms: collapse, cut and forget-tail with stabilization.

Each operation is a total function on valid stable graphs returning a
new graph; inputs are never mutated.  Collapses move one step up the
degeneration order (one fewer edge, codimension drops by one), cutting
splits a graph along an edge, and forgetting a tail removes a leg and
stabilizes: the vertex that held it, while unstable, merges into a
neighbor, which may be left unstable in turn.

Every collapse and forget merges vertices through one builder,
:func:`_merge`, which works on plain fields (decorations, edges, legs)
and builds no graph.  The inputs are valid graphs, so each result is
built once from its fields by :meth:`MarkedGraph._trusted`, with no
second normalization, and then passes one :func:`validate`: every
result is one tree obeying its kind's rules, so that one walk of it
returns at once.
"""

from __future__ import annotations

from .errors import (
    CannotForgetRoot,
    DuplicateLegLabel,
    ForbiddenCollapse,
    ForbiddenCut,
    InvalidGraph,
    MinimumMarkings,
    NoSuchEdge,
    NoSuchLeg,
    NothingToCollapse,
    NotInfinityVertex,
)
from .graphs import (
    COLORED_KINDS,
    Color,
    Kind,
    MarkedGraph,
    is_stable,
    min_valence,
    require_valid,
)
from .series import _integer


def _merge(decor, edges, legs, keep, absorbed, decoration, dropped):
    """The fields of a graph with the vertices ``absorbed`` merged into
    ``keep``, which takes ``decoration``, and the edges at the indices
    ``dropped`` removed.

    ``decor``, ``edges`` and ``legs`` are the decorations dict, edge
    sequence and legs dict of a valid graph; new ones are returned.
    Every other edge and leg keeps its place, with its ends on
    ``absorbed`` renamed to ``keep``, and each edge is stored as
    ``(min, max)``.  Vertex ids keep their increasing order, so the
    fields suit :meth:`MarkedGraph._trusted`.  No graph is built and
    nothing is validated here.
    """
    def rename(v):
        return keep if v in absorbed else v

    new_decor = {v: decoration if v == keep else d
                 for v, d in decor.items() if v not in absorbed}
    new_edges = []
    for i, (a, b) in enumerate(edges):
        if i not in dropped:
            a, b = rename(a), rename(b)
            new_edges.append((a, b) if a <= b else (b, a))
    new_legs = {l: rename(v) for l, v in legs.items()}
    return new_decor, new_edges, new_legs


def collapse_edge(g, edge):
    """Collapse a finite edge, merging its endpoints.

    For colored kinds the edge must join two vertices of zero/colored
    type or two of infinite type; a zero-colored merge is colored.
    """
    require_valid(g)
    if not 0 <= edge < len(g.edges):
        raise NoSuchEdge(f"edge index {edge}")
    a, b = g.edges[edge]
    keep = g.root if g.root in (a, b) else min(a, b)
    decor = g.decorations()

    if g.kind in COLORED_KINDS:
        ca, cb = g.color[a], g.color[b]
        if ca is Color.INFINITY and cb is Color.INFINITY:
            merged_decor = Color.INFINITY
        elif Color.INFINITY not in (ca, cb):
            merged_decor = Color.COLORED if Color.COLORED in (ca, cb) else Color.ZERO
        else:
            raise ForbiddenCollapse(
                "cannot collapse an edge joining a colored vertex to an "
                "infinite-scaling vertex")
    else:
        # the kept vertex keeps its own decoration: genus 0, or None on
        # a rooted forest
        merged_decor = decor[keep]

    out = MarkedGraph._trusted(g.kind, *_merge(
        decor, g.edges, g.legs, keep, (b if keep == a else a,),
        merged_decor, (edge,)), g.root)
    require_valid(out)
    return out


def collapse_with_relations(g, center):
    """Merge an infinite-scaling vertex with all its colored neighbors.

    This is the degeneration move that cannot be factored into single
    edge collapses: the merged vertex is colored and the gluing
    relations between the absorbed edges disappear together.
    """
    require_valid(g)
    if g.kind not in COLORED_KINDS:
        raise ForbiddenCollapse("collapse with relations needs a colored kind")
    if center not in g.vertex_ids:
        raise NotInfinityVertex(f"no vertex {center}")
    if g.color[center] is not Color.INFINITY:
        raise NotInfinityVertex(f"vertex {center} is not infinite-scaling")
    colored_nbrs = {w for w in g.neighbors(center)
                    if g.color[w] is Color.COLORED}
    if not colored_nbrs:
        raise NothingToCollapse(f"vertex {center} has no colored neighbor")

    merged = colored_nbrs | {center}
    inside = {i for i, (x, y) in enumerate(g.edges)
              if x in merged and y in merged}
    out = MarkedGraph._trusted(g.kind, *_merge(
        g.decorations(), g.edges, g.legs, center, colored_nbrs,
        Color.COLORED, inside), g.root)
    try:
        require_valid(out)
    except InvalidGraph as err:
        raise ForbiddenCollapse(
            f"merge does not produce a valid colored type: {err}") from None
    return out


def cut_edge(g, edge, new_labels):
    """Replace a finite edge by two legs carrying the given labels.

    ``new_labels`` is a pair; the first label lands on the smaller
    stored endpoint.  For colored kinds only edges on the zero-scaling
    side (zero-zero or zero-colored) may be cut.
    """
    require_valid(g)
    if not 0 <= edge < len(g.edges):
        raise NoSuchEdge(f"edge index {edge}")
    l1, l2 = (_integer("leg label", l) for l in new_labels)
    if l1 == l2 or l1 in g.legs or l2 in g.legs:
        raise DuplicateLegLabel(f"labels {new_labels} collide")
    a, b = g.edges[edge]
    if g.kind in COLORED_KINDS:
        ca, cb = g.color[a], g.color[b]
        if Color.INFINITY in (ca, cb):
            raise ForbiddenCut(
                "cutting an edge between the colored level and the root "
                "side needs the with-relations morphism, which requires a "
                "full transversal")
    edges = [e for i, e in enumerate(g.edges) if i != edge]
    legs = dict(g.legs)
    legs[l1] = a
    legs[l2] = b
    out = MarkedGraph._trusted(g.kind, g.decorations(), edges, legs, g.root)
    require_valid(out)
    return out


def forget_tail(g, leg):
    """Forget a leg, then merge unstable vertices until stable.

    Surviving leg labels are preserved; use :func:`compact_legs` to
    renumber afterwards.  On a stable input only the vertex that held
    the leg can lose stability.  While it is unstable it merges into a
    neighbor, which keeps its decoration: a colored vertex left with one
    edge disappears with it, any other vertex passes its one leg or
    fuses its two edges.  The neighbor is checked next, since losing a
    colored vertex of valence one may leave it unstable in turn.
    """
    if leg not in g.legs:
        raise NoSuchLeg(f"no leg {leg}")
    if g.kind in COLORED_KINDS and leg == 0:
        raise CannotForgetRoot("leg 0 cannot be forgotten")
    # the input's valences, counted once for its stability check and
    # the merges below
    require_valid(g)
    val = g.valences()
    if not is_stable(g, val):
        raise InvalidGraph("forget_tail needs a stable input")

    if g.kind is Kind.MODULAR and g.is_connected() and g.n - 1 < 3:
        raise MinimumMarkings("a stable curve needs n >= 3 markings")
    if g.kind is Kind.COLORED_TREE and g.n - 1 < 1:
        raise MinimumMarkings("a scaled line needs at least one marking")

    decor, edges, legs = g.decorations(), g.edges, dict(g.legs)
    v = legs.pop(leg)
    # valences follow the merges; colors and the root never change, so
    # min_valence reads them off g
    val[v] -= 1
    while val[v] < min_valence(g, v):
        edges_at = [i for i, e in enumerate(edges) if v in e]
        n_legs = sum(u == v for u in legs.values())
        if decor[v] is Color.COLORED:
            merges = len(edges_at) == 1 and not n_legs
        else:
            merges = len(edges_at) == 2 or len(edges_at) == 1 and n_legs == 1
        if not merges:
            # no edge: a whole component fell below the minimum, such as
            # a colored vertex left with leg 0 alone
            raise MinimumMarkings(
                f"component at vertex {v} cannot absorb its markings")
        a, b = edges[edges_at[0]]
        w = b if a == v else a
        decor, edges, legs = _merge(decor, edges, legs, w, (v,), decor[w],
                                    (edges_at[0],))
        val[w] += val.pop(v) - 2
        v = w

    cur = MarkedGraph._trusted(g.kind, decor, edges, legs, g.root)
    if not is_stable(cur):
        raise InvalidGraph("stabilization failed to terminate on a stable type")
    return cur


def relabel_legs(g, mapping):
    """Rename legs through ``mapping`` (missing labels stay put)."""
    new = {}
    for l, v in g.legs.items():
        nl = _integer("leg label", mapping.get(l, l))
        if nl in new:
            raise DuplicateLegLabel(f"label {nl} assigned twice")
        new[nl] = v
    if g.kind in COLORED_KINDS and (0 in g.legs) != (0 in new):
        raise DuplicateLegLabel("relabeling must preserve the root leg 0")
    out = MarkedGraph._trusted(g.kind, g.decorations(), g.edges, new, g.root)
    require_valid(out)
    return out


def compact_legs(g):
    """Renumber the non-root legs to 1..n keeping their relative order."""
    others = sorted(l for l in g.legs if l != 0)
    mapping = {l: i + 1 for i, l in enumerate(others)}
    return relabel_legs(g, mapping)
