"""Graph morphisms: collapse, cut and forget-tail with stabilization.

Each operation is a total function on valid stable graphs returning a
new graph; inputs are never mutated.  Collapses move one step up the
degeneration order (one fewer edge, codimension drops by one), cutting
splits a graph along an edge, and forgetting a tail removes a leg and
collapses the unstable vertices this creates, working from the vertices
farthest from the root.
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
    require_valid,
    validate,
)


def _vertex_decor(g):
    if g.kind is Kind.MODULAR:
        return dict(g.genus)
    if g.kind in COLORED_KINDS:
        return dict(g.color)
    return {v: None for v in g.vertex_ids}


def collapse_edge(g, edge):
    """Collapse a finite edge, merging its endpoints.

    Modular graphs add genus under the merge and turn a collapsed loop
    into a genus increment.  For colored kinds the edge must join two
    vertices of zero/colored type or two of infinite type; a
    zero-colored merge is colored.
    """
    require_valid(g)
    if not 0 <= edge < len(g.edges):
        raise NoSuchEdge(f"edge index {edge}")
    a, b = g.edges[edge]
    decor = _vertex_decor(g)

    if a == b:
        if g.kind is not Kind.MODULAR:
            raise ForbiddenCollapse("loops only occur on modular graphs")
        decor[a] = decor[a] + 1
        edges = [e for i, e in enumerate(g.edges) if i != edge]
        return MarkedGraph(g.kind, decor, edges, g.legs, g.root)

    if g.kind is Kind.MODULAR:
        merged_decor = g.genus[a] + g.genus[b]
    elif g.kind in COLORED_KINDS:
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
        merged_decor = None

    keep = g.root if g.root in (a, b) else min(a, b)
    drop = b if keep == a else a
    decor.pop(drop)
    decor[keep] = merged_decor

    def rename(v):
        return keep if v == drop else v

    edges = []
    for i, (x, y) in enumerate(g.edges):
        if i == edge:
            continue
        edges.append((rename(x), rename(y)))
    legs = {l: rename(v) for l, v in g.legs.items()}
    out = MarkedGraph(g.kind, decor, edges, legs, g.root)
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
    colored_nbrs = sorted(
        {w for w in g.neighbors(center) if g.color[w] is Color.COLORED})
    if not colored_nbrs:
        raise NothingToCollapse(f"vertex {center} has no colored neighbor")

    merged = set(colored_nbrs) | {center}
    keep = center
    decor = _vertex_decor(g)
    for v in colored_nbrs:
        decor.pop(v)
    decor[keep] = Color.COLORED

    def rename(v):
        return keep if v in merged else v

    edges = []
    for x, y in g.edges:
        if {x, y} <= merged:
            continue
        edges.append((rename(x), rename(y)))
    legs = {l: rename(v) for l, v in g.legs.items()}
    out = MarkedGraph(g.kind, decor, edges, legs, g.root)
    problems = validate(out)
    if problems:
        raise ForbiddenCollapse(
            "merge does not produce a valid colored type: " + "; ".join(problems))
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
    l1, l2 = new_labels
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
    legs[int(l1)] = a
    legs[int(l2)] = b
    out = MarkedGraph(g.kind, _vertex_decor(g), edges, legs, g.root)
    require_valid(out)
    return out


def _total_genus(g):
    comps = g.components()
    b1 = len(g.edges) - len(g.vertex_ids) + len(comps)
    return sum(g.genus.values()) + b1


def _depths(g, anchor):
    if anchor is None:
        return {v: 0 for v in g.vertex_ids}
    depth = {anchor: 0}
    frontier = [anchor]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    for v in g.vertex_ids:
        depth.setdefault(v, 0)
    return depth


def _unstable_vertices(g):
    out = []
    valences = g.valences()
    for v in g.vertex_ids:
        if g.kind in (Kind.ROOTED_FOREST, Kind.ROOTED_COLORED_TREE) and v == g.root:
            continue
        val = valences[v]
        if g.kind is Kind.MODULAR:
            if g.genus[v] == 0 and val < 3:
                out.append(v)
            elif g.genus[v] >= 1 and val < 1:
                raise InvalidGraph(
                    f"cannot stabilize an isolated genus-{g.genus[v]} vertex")
        elif g.kind is Kind.ROOTED_FOREST:
            if val < 3:
                out.append(v)
        else:
            need = 2 if g.color[v] is Color.COLORED else 3
            if val < need:
                out.append(v)
    return out


def _remove_valence_one(g, v):
    # colored vertex left with a single edge: drop the vertex and the edge
    edges_at = [i for i, (x, y) in enumerate(g.edges) if v in (x, y)]
    if len(edges_at) != 1 or g.legs_at(v):
        raise InvalidGraph(f"vertex {v} cannot be removed cleanly")
    decor = _vertex_decor(g)
    decor.pop(v)
    edges = [e for i, e in enumerate(g.edges) if i != edges_at[0]]
    return MarkedGraph(g.kind, decor, edges, g.legs, g.root)


def _fuse_valence_two(g, v):
    # zero/infinite-scaling or genus-zero vertex with two attachments:
    # fuse its edges, or transfer its leg to the neighbor
    edges_at = [i for i, (x, y) in enumerate(g.edges) if v in (x, y)]
    legs_at = g.legs_at(v)
    if any(x == y for i, (x, y) in enumerate(g.edges) if i in edges_at):
        raise InvalidGraph(f"cannot fuse through a loop at {v}")
    decor = _vertex_decor(g)
    decor.pop(v)
    edges = [e for i, e in enumerate(g.edges) if i not in edges_at]
    legs = dict(g.legs)
    nbrs = []
    for i in edges_at:
        x, y = g.edges[i]
        nbrs.append(y if x == v else x)
    if len(nbrs) == 2:
        edges.append(tuple(sorted(nbrs)))
    elif len(nbrs) == 1 and len(legs_at) == 1:
        legs[legs_at[0]] = nbrs[0]
    else:
        # two legs and no edge: a whole component fell below the minimum
        raise MinimumMarkings(
            f"component at vertex {v} cannot absorb its markings")
    return MarkedGraph(g.kind, decor, edges, legs, g.root)


def forget_tail(g, leg):
    """Forget a leg, then collapse unstable vertices until stable.

    Surviving leg labels are preserved; use :func:`compact_legs` to
    renumber afterwards.  The cascade runs from the vertices farthest
    away from the root leg / root vertex, matching the two-stage
    behaviour of colored trees: deleting a colored vertex of valence one
    may leave its neighbor unstable in turn.
    """
    if leg not in g.legs:
        raise NoSuchLeg(f"no leg {leg}")
    if g.kind in COLORED_KINDS and leg == 0:
        raise CannotForgetRoot("leg 0 cannot be forgotten")
    if not is_stable(g):
        raise InvalidGraph("forget_tail needs a stable input")

    if g.kind is Kind.MODULAR and g.is_connected():
        if 2 * _total_genus(g) + (len(g.legs) - 1) < 3:
            raise MinimumMarkings("a stable curve needs 2g + n >= 3")
    if g.kind is Kind.COLORED_TREE and g.n - 1 < 1:
        raise MinimumMarkings("a scaled line needs at least one marking")

    legs = dict(g.legs)
    legs.pop(leg)
    cur = MarkedGraph(g.kind, _vertex_decor(g), g.edges, legs, g.root)

    while True:
        unstable = _unstable_vertices(cur)
        if not unstable:
            break
        if cur.kind is Kind.COLORED_TREE:
            anchor = cur.legs.get(0)
        elif cur.kind in (Kind.ROOTED_FOREST, Kind.ROOTED_COLORED_TREE):
            anchor = cur.root
        else:
            anchor = None
        depth = _depths(cur, anchor)
        v = max(unstable, key=lambda w: (depth[w], w))
        if cur.kind in COLORED_KINDS and cur.color[v] is Color.COLORED:
            cur = _remove_valence_one(cur, v)
        else:
            cur = _fuse_valence_two(cur, v)

    if not is_stable(cur):
        raise InvalidGraph("stabilization failed to terminate on a stable type")
    return cur


def relabel_legs(g, mapping):
    """Rename legs through ``mapping`` (missing labels stay put)."""
    new = {}
    for l, v in g.legs.items():
        nl = int(mapping.get(l, l))
        if nl in new:
            raise DuplicateLegLabel(f"label {nl} assigned twice")
        new[nl] = v
    if g.kind in COLORED_KINDS and (0 in g.legs) != (0 in new):
        raise DuplicateLegLabel("relabeling must preserve the root leg 0")
    out = MarkedGraph(g.kind, _vertex_decor(g), g.edges, new, g.root)
    require_valid(out)
    return out


def compact_legs(g):
    """Renumber the non-root legs to 1..n keeping their relative order."""
    others = sorted(l for l in g.legs if l != 0)
    mapping = {l: i + 1 for i, l in enumerate(others)}
    return relabel_legs(g, mapping)
