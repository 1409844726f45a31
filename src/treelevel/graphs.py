"""Marked graphs: the combinatorial types of nodal curves.

Four species are supported.  A modular graph records irreducible
components (with genus), nodes and labelled markings of a nodal curve.
A rooted forest is the type of a parametrized curve, with the root
vertex standing for the principal component.  A colored tree is the
type of a nodal scaled affine line: vertices are partitioned into
zero-scaling, colored (finite nonzero scaling) and infinite-scaling
classes, the outgoing marking is leg 0, and every path from a leg to
leg 0 crosses the colored level exactly once.  A rooted colored tree is
the type of a scaled parametrized curve, with a root vertex in place of
leg 0.

Values are immutable after construction: ``legs``, ``genus`` and
``color`` are read-only mappings over dicts built in the constructor,
and rebinding an attribute raises ``AttributeError``.  So a graph that
passed :func:`validate` stays valid, and :func:`require_valid` runs the
full check once per value, on its first call.  All operations here are
pure.
"""

from __future__ import annotations

import itertools
import json
from enum import Enum
from types import MappingProxyType

from .errors import InvalidGraph, KindMismatch, TooLarge


class Kind(Enum):
    MODULAR = "modular"
    ROOTED_FOREST = "rooted_forest"
    COLORED_TREE = "colored_tree"
    ROOTED_COLORED_TREE = "rooted_colored_tree"


class Color(Enum):
    ZERO = "zero"
    COLORED = "colored"
    INFINITY = "infinity"


COLORED_KINDS = (Kind.COLORED_TREE, Kind.ROOTED_COLORED_TREE)
ROOTED_KINDS = (Kind.ROOTED_FOREST, Kind.ROOTED_COLORED_TREE)

#: Maximum vertex count for the exhaustive modular-graph canonical form.
MODULAR_CANONICAL_GUARD = 10


class MarkedGraph:
    """A graph with decorated vertices, finite edges and labelled legs.

    ``vertices`` maps vertex id to its decoration: a genus for the
    modular kind, a :class:`Color` for the colored kinds, ``None`` for
    rooted forests.  ``edges`` is a sequence of unordered vertex-id
    pairs; the given order is kept and edge indices refer to it.
    ``legs`` maps leg label to the vertex carrying it.

    ``legs``, ``genus`` and ``color`` are read-only mappings and no
    attribute can be rebound after construction.
    """

    __slots__ = ("kind", "vertex_ids", "genus", "color", "edges", "legs",
                 "root", "_valid")

    def __init__(self, kind, vertices, edges=(), legs=None, root=None):
        kind = Kind(kind)
        genus = {}
        color = {}
        ids = []
        if isinstance(vertices, dict):
            items = vertices.items()
        else:
            items = ((v, None) for v in vertices)
        for v, decor in items:
            v = int(v)
            ids.append(v)
            if kind is Kind.MODULAR:
                genus[v] = 0 if decor is None else int(decor)
            elif kind in COLORED_KINDS:
                if decor is None:
                    raise InvalidGraph(f"vertex {v}: colored kinds need a color")
                color[v] = Color(decor)
        if len(set(ids)) != len(ids):
            raise InvalidGraph("duplicate vertex ids")
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "vertex_ids", tuple(sorted(ids)))
        init(self, "genus", MappingProxyType(genus))
        init(self, "color", MappingProxyType(color))
        init(self, "edges", tuple(
            (int(a), int(b)) if int(a) <= int(b) else (int(b), int(a))
            for a, b in edges
        ))
        init(self, "legs", MappingProxyType(
            {int(l): int(v) for l, v in (legs or {}).items()}))
        init(self, "root", None if root is None else int(root))
        # set by require_valid once validate() found no problem
        init(self, "_valid", False)

    def __setattr__(self, name, value):
        raise AttributeError(f"MarkedGraph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"MarkedGraph is immutable: cannot delete {name!r}")

    def __reduce__(self):
        decor = self.genus or self.color or dict.fromkeys(self.vertex_ids)
        return (MarkedGraph, (self.kind, dict(decor), self.edges,
                              dict(self.legs), self.root))

    # -- basic accessors -------------------------------------------------

    @property
    def n(self):
        """Number of legs other than the root leg 0."""
        return len([l for l in self.legs if l != 0])

    def legs_at(self, v):
        return sorted(l for l, w in self.legs.items() if w == v)

    def degree(self, v):
        """Number of edge endpoints at ``v``; loops count twice."""
        return sum((a == v) + (b == v) for a, b in self.edges)

    def valence(self, v):
        return self.degree(v) + len(self.legs_at(v))

    def valences(self):
        """Valence of every vertex, in one pass over the edges and legs.

        Edges and legs must reference vertices of the graph.
        """
        val = dict.fromkeys(self.vertex_ids, 0)
        for a, b in self.edges:
            val[a] += 1
            val[b] += 1
        for v in self.legs.values():
            val[v] += 1
        return val

    def neighbors(self, v):
        """Adjacent vertices with multiplicity, loops excluded."""
        out = []
        for a, b in self.edges:
            if a == v and b != v:
                out.append(b)
            elif b == v and a != v:
                out.append(a)
        return out

    def edge_index(self, u, v, skip=0):
        """Index of the ``skip``-th edge between ``u`` and ``v``."""
        pair = (u, v) if u <= v else (v, u)
        for i, e in enumerate(self.edges):
            if e == pair:
                if skip == 0:
                    return i
                skip -= 1
        raise KeyError(pair)

    def adjacency(self):
        """Neighbors of every vertex with multiplicity, loops excluded.

        Built afresh on each call; the methods taking an ``adj``
        argument accept it so that one caller can build it once.
        """
        adj = {v: [] for v in self.vertex_ids}
        for a, b in self.edges:
            if a != b:
                adj[a].append(b)
                adj[b].append(a)
        return adj

    def components(self, adj=None):
        """Vertex sets of connected components, each sorted."""
        if adj is None:
            adj = self.adjacency()
        seen = set()
        comps = []
        for v in self.vertex_ids:
            if v in seen:
                continue
            stack, comp = [v], set()
            while stack:
                w = stack.pop()
                if w in comp:
                    continue
                comp.add(w)
                stack.extend(x for x in adj[w] if x not in comp)
            seen |= comp
            comps.append(sorted(comp))
        return comps

    def is_connected(self):
        return len(self.components()) <= 1

    def is_forest(self, adj=None):
        """True when there are no loops, parallel edges or cycles."""
        if any(a == b for a, b in self.edges):
            return False
        if len(set(self.edges)) != len(self.edges):
            return False
        # acyclic <=> every component has #edges = #vertices - 1
        return (len(self.edges)
                == len(self.vertex_ids) - len(self.components(adj)))

    def path_vertices(self, u, v, adj=None):
        """Vertices along the unique simple path from u to v (inclusive).

        Only meaningful on forest graphs; raises KeyError when u and v
        are in different components.
        """
        if adj is None:
            adj = self.adjacency()
        prev = {u: None}
        queue = [u]
        while queue:
            nxt = []
            for w in queue:
                if w == v:
                    queue = []
                    break
                for x in adj[w]:
                    if x not in prev:
                        prev[x] = w
                        nxt.append(x)
            else:
                queue = nxt
        if v not in prev:
            raise KeyError((u, v))
        path = [v]
        while path[-1] != u:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    # -- equality / hashing ----------------------------------------------

    def _signature(self):
        return (
            self.kind,
            self.vertex_ids,
            tuple(sorted(self.genus.items())),
            tuple(sorted((v, c.value) for v, c in self.color.items())),
            tuple(sorted(self.edges)),
            tuple(sorted(self.legs.items())),
            self.root,
        )

    def __eq__(self, other):
        if not isinstance(other, MarkedGraph):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        parts = [f"{self.kind.value}", f"V={list(self.vertex_ids)}"]
        if self.genus and any(self.genus.values()):
            parts.append(f"g={dict(self.genus)}")
        if self.color:
            parts.append("colors={%s}" % ", ".join(
                f"{v}:{c.value}" for v, c in sorted(self.color.items())))
        parts.append(f"E={list(self.edges)}")
        parts.append(f"legs={dict(self.legs)}")
        if self.root is not None:
            parts.append(f"root={self.root}")
        return "MarkedGraph(%s)" % ", ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self):
        verts = []
        for v in self.vertex_ids:
            rec = {"id": v}
            if self.kind is Kind.MODULAR:
                rec["genus"] = self.genus[v]
            elif self.kind in COLORED_KINDS:
                rec["color"] = self.color[v].value
            verts.append(rec)
        obj = {
            "kind": self.kind.value,
            "vertices": verts,
            "edges": [list(e) for e in self.edges],
            "legs": {str(l): v for l, v in sorted(self.legs.items())},
        }
        if self.root is not None:
            obj["root"] = self.root
        return obj

    def to_json(self, indent=None):
        return json.dumps(self.to_json_obj(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj):
        """Parse the JSON form; any malformed input raises InvalidGraph."""
        try:
            kind = Kind(obj["kind"])
            verts = {}
            for rec in obj["vertices"]:
                if kind is Kind.MODULAR:
                    verts[rec["id"]] = rec.get("genus", 0)
                elif kind in COLORED_KINDS:
                    verts[rec["id"]] = rec["color"]
                else:
                    verts[rec["id"]] = None
            return cls(
                kind,
                verts,
                [tuple(e) for e in obj.get("edges", [])],
                {int(l): v for l, v in obj.get("legs", {}).items()},
                obj.get("root"),
            )
        except KeyError as err:
            raise InvalidGraph(f"graph JSON is missing the key {err}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as err:
            raise InvalidGraph(f"malformed graph JSON: {err}") from None

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise InvalidGraph(f"graph file is not valid JSON: {err}") from None
        return cls.from_json_obj(obj)

    def to_dot(self):
        """Graphviz source following the shading convention:
        light = zero scaling, grey = colored, dark = infinite scaling."""
        fill = {Color.ZERO: "gray92", Color.COLORED: "gray60",
                Color.INFINITY: "gray25"}
        lines = ["graph marked_graph {", "  node [style=filled];"]
        for v in self.vertex_ids:
            attrs = []
            if self.kind is Kind.MODULAR:
                attrs.append(f'label="g={self.genus[v]}"')
                attrs.append('fillcolor="gray92"')
            elif self.kind in COLORED_KINDS:
                c = self.color[v]
                attrs.append(f'label="{v}"')
                attrs.append(f'fillcolor="{fill[c]}"')
                if c is Color.INFINITY:
                    attrs.append('fontcolor="white"')
            else:
                attrs.append(f'label="{v}"')
                attrs.append('fillcolor="gray92"')
            if v == self.root:
                attrs.append("shape=doublecircle")
            lines.append(f"  v{v} [{', '.join(attrs)}];")
        for a, b in self.edges:
            lines.append(f"  v{a} -- v{b};")
        for l, v in sorted(self.legs.items()):
            lines.append(f'  leg{l} [shape=none, label="{l}"];')
            lines.append(f"  v{v} -- leg{l};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- convenience constructors ----------------------------------------------

def modular_graph(genus, edges=(), legs=None):
    return MarkedGraph(Kind.MODULAR, dict(genus), edges, legs)


def rooted_forest(vertex_ids, edges=(), legs=None, root=0):
    return MarkedGraph(Kind.ROOTED_FOREST, list(vertex_ids), edges, legs, root)


def colored_tree(colors, edges=(), legs=None):
    return MarkedGraph(Kind.COLORED_TREE, dict(colors), edges, legs)


def rooted_colored_tree(colors, edges=(), legs=None, root=0):
    return MarkedGraph(Kind.ROOTED_COLORED_TREE, dict(colors), edges, legs, root)


# -- validation --------------------------------------------------------------

def _check_references(g, problems):
    vset = set(g.vertex_ids)
    for i, (a, b) in enumerate(g.edges):
        if a not in vset or b not in vset:
            problems.append(f"edge {i} references unknown vertex")
    for l, v in g.legs.items():
        if v not in vset:
            problems.append(f"leg {l} attached to unknown vertex {v}")
        if l < 0:
            problems.append(f"leg label {l} is negative")
    if g.root is not None and g.root not in vset:
        problems.append(f"root {g.root} is not a vertex")


def _monotone_path_problems(g, leg, top, problems, adj):
    """Check the color pattern on the path from ``leg``'s vertex to ``top``.

    Exactly one colored vertex; zero scaling strictly before it and
    infinite scaling strictly after it.
    """
    try:
        path = g.path_vertices(g.legs[leg], top, adj)
    except KeyError:
        problems.append(f"leg {leg} disconnected from the root side")
        return
    colors = [g.color[v] for v in path]
    hits = [i for i, c in enumerate(colors) if c is Color.COLORED]
    if len(hits) != 1:
        problems.append(
            f"path from leg {leg} crosses {len(hits)} colored vertices")
        return
    p = hits[0]
    for i, c in enumerate(colors):
        if i < p and c is not Color.ZERO:
            problems.append(
                f"vertex {path[i]} on the leg-{leg} side must have zero scaling")
        if i > p and c is not Color.INFINITY:
            problems.append(
                f"vertex {path[i]} on the root side must have infinite scaling")


def _component_edge_rule(g, comp, problems, allowed_zero_infty=()):
    """No zero-infinity and no colored-colored edges inside a component."""
    comp = set(comp)
    for i, (a, b) in enumerate(g.edges):
        if a not in comp:
            continue
        ca, cb = g.color[a], g.color[b]
        if {ca, cb} == {Color.ZERO, Color.INFINITY} and (a, b) not in allowed_zero_infty:
            problems.append(f"edge {i} joins zero and infinite scaling")
        if ca is Color.COLORED and cb is Color.COLORED:
            problems.append(f"edge {i} joins two colored vertices")


def validate(g):
    """Return the list of violated invariants (empty when the graph is valid).

    Always the full check; :func:`require_valid` runs it once per value.
    """
    problems = []
    _check_references(g, problems)
    if problems:
        return problems

    labels = sorted(g.legs)
    if g.kind is Kind.COLORED_TREE:
        if 0 not in labels:
            problems.append("colored tree is missing the root leg 0")
        if g.root is not None:
            problems.append("colored trees carry leg 0, not a root vertex")
    else:
        if 0 in labels:
            problems.append("leg 0 is reserved for the colored-tree kind")
        if g.kind in ROOTED_KINDS:
            if g.root is None:
                problems.append("rooted kind needs a root vertex")
        elif g.root is not None:
            problems.append("only rooted kinds carry a root vertex")

    if g.kind is Kind.MODULAR:
        for v, gen in g.genus.items():
            if gen < 0:
                problems.append(f"vertex {v} has negative genus")
        return problems

    # tree kinds: forests only; one adjacency serves every check below
    adj = g.adjacency()
    if not g.is_forest(adj):
        problems.append("tree kinds must be loop-free, multi-edge-free forests")
        return problems
    if problems:
        return problems

    if g.kind is Kind.ROOTED_FOREST:
        return problems

    comps = g.components(adj)
    if g.kind is Kind.COLORED_TREE:
        v0 = g.legs[0]
        for comp in comps:
            if v0 in comp:
                if g.color[v0] is Color.ZERO:
                    problems.append("leg 0 sits on a zero-scaling vertex")
                for l in g.legs:
                    if l != 0 and g.legs[l] in comp:
                        _monotone_path_problems(g, l, v0, problems, adj)
                _component_edge_rule(g, comp, problems)
            else:
                cs = {g.color[v] for v in comp}
                if cs not in ({Color.ZERO}, {Color.INFINITY}):
                    problems.append(
                        f"component {comp} away from leg 0 must be uniformly "
                        "zero or infinite scaling")
        return problems

    # rooted colored tree
    r = g.root
    rc = g.color[r]
    if rc is Color.ZERO:
        problems.append("root vertex must be colored or infinite scaling")
        return problems
    for comp in comps:
        if r not in comp:
            cs = {g.color[v] for v in comp}
            if cs not in ({Color.ZERO}, {Color.INFINITY}):
                problems.append(
                    f"component {comp} away from the root must be uniformly "
                    "zero or infinite scaling")
            continue
        if rc is Color.COLORED:
            for v in comp:
                if v != r and g.color[v] is not Color.ZERO:
                    problems.append(
                        f"vertex {v}: with a colored root all other vertices "
                        "have zero scaling")
        else:
            # root at infinite scaling: each subtree off the root is a
            # colored tree with the attaching edge as its leg 0, or a
            # zero-only tree
            allowed = set()
            for w in set(adj[r]):
                sub = _subtree_vertices(r, w, adj)
                subcolors = {g.color[v] for v in sub}
                if subcolors == {Color.ZERO}:
                    allowed.add((min(r, w), max(r, w)))
                    continue
                for l, lv in g.legs.items():
                    if lv in sub:
                        _monotone_path_problems(g, l, r, problems, adj)
            for l, lv in g.legs.items():
                if lv == r:
                    problems.append(
                        f"leg {l} sits on the infinite-scaling root")
            _component_edge_rule(g, comp, problems, allowed_zero_infty=allowed)
    return problems


def _subtree_vertices(root, child, adj):
    """Vertices of the subtree containing ``child`` once ``root`` is removed."""
    seen = {root, child}
    stack = [child]
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    seen.discard(root)
    return seen


def require_valid(g):
    """Raise InvalidGraph unless ``g`` is valid.

    The full :func:`validate` runs on the first call for a value; a
    graph cannot change, so a success is recorded on it and later calls
    return at once.  An invalid graph is checked again on every call.
    """
    if g._valid:
        return
    problems = validate(g)
    if problems:
        raise InvalidGraph("; ".join(problems))
    object.__setattr__(g, "_valid", True)


def is_stable(g):
    """Stability of the combinatorial type.

    Modular: genus-0 vertices need valence >= 3 and genus-1 vertices
    valence >= 1.  Rooted forest: non-root vertices need valence >= 3.
    Colored kinds: zero/infinite-scaling vertices need valence >= 3 and
    colored vertices valence >= 2; the root vertex of a rooted colored
    tree is unconstrained.
    """
    require_valid(g)
    valences = g.valences()
    for v in g.vertex_ids:
        val = valences[v]
        if g.kind is Kind.MODULAR:
            gen = g.genus[v]
            if gen == 0 and val < 3:
                return False
            if gen == 1 and val < 1:
                return False
        elif g.kind is Kind.ROOTED_FOREST:
            if v != g.root and val < 3:
                return False
        else:
            if g.kind is Kind.ROOTED_COLORED_TREE and v == g.root:
                continue
            need = 2 if g.color[v] is Color.COLORED else 3
            if val < need:
                return False
    return True


# -- canonical form ----------------------------------------------------------
#
# A canonical key is ``repr((kind, codes))``.  For trees and tree-like
# modular graphs, ``codes`` is the sorted list of the component codes,
# each the code of the component rooted at a chosen vertex; the code of
# a rooted subtree is (decoration, loops, sorted legs, sorted child
# codes).  strata reads the same codes straight off its enumeration
# nodes, so both build them with the helpers below.

def _decoration(kind, value):
    """Decoration code of a vertex: ``value`` is its genus (modular
    kind), its Color (colored kinds) or whether it is the root (rooted
    forests)."""
    if kind is Kind.MODULAR:
        return ("g", value)
    if kind in COLORED_KINDS:
        return ("c", value.value)
    return ("r", 1 if value else 0)


def _decor(g, v):
    if g.kind is Kind.MODULAR:
        return _decoration(g.kind, g.genus[v])
    if g.kind in COLORED_KINDS:
        return _decoration(g.kind, g.color[v])
    return _decoration(g.kind, v == g.root)


def _vertex_code(decor, loops, legs, children):
    """Code of a rooted subtree from its top vertex's decoration, loop
    count and sorted leg tuple and the codes of its child subtrees."""
    return (decor, loops, legs, tuple(sorted(children)))


def _key_bytes(kind, codes):
    """The canonical key of a graph of ``kind`` from its component codes,
    already sorted."""
    return repr((kind.value, codes)).encode()


def _encode_rooted(g, v, parent, adj, legs_at, loops_at):
    return _vertex_code(
        _decor(g, v), loops_at.get(v, 0), tuple(legs_at.get(v, ())),
        [_encode_rooted(g, w, v, adj, legs_at, loops_at)
         for w in adj[v] if w != parent])


def _component_key(g, comp, adj, legs_at, loops_at):
    comp_set = set(comp)
    legs_in = [l for l, v in g.legs.items() if v in comp_set]
    forced = None
    if g.kind is Kind.COLORED_TREE and 0 in legs_in:
        forced = g.legs[0]
    elif g.kind in ROOTED_KINDS and g.root in comp_set:
        forced = g.root
    if forced is not None:
        return _encode_rooted(g, forced, None, adj, legs_at, loops_at)
    if legs_in:
        return _encode_rooted(g, g.legs[min(legs_in)], None, adj, legs_at,
                              loops_at)
    return min(_encode_rooted(g, v, None, adj, legs_at, loops_at) for v in comp)


def _modular_bruteforce_key(g):
    if len(g.vertex_ids) > MODULAR_CANONICAL_GUARD:
        raise TooLarge(
            f"modular canonical form limited to {MODULAR_CANONICAL_GUARD} vertices")
    # group vertices by an isomorphism invariant to cut the search space
    def inv(v):
        return (g.genus[v], g.degree(v), tuple(g.legs_at(v)))

    groups = {}
    for v in g.vertex_ids:
        groups.setdefault(inv(v), []).append(v)
    keys = sorted(groups)
    best = None
    pools = [itertools.permutations(groups[k]) for k in keys]
    for choice in itertools.product(*pools):
        relabel = {}
        pos = 0
        for perm in choice:
            for v in perm:
                relabel[v] = pos
                pos += 1
        sig = (
            tuple(sorted((relabel[v], g.genus[v]) for v in g.vertex_ids)),
            tuple(sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in g.edges)),
            tuple(sorted((l, relabel[v]) for l, v in g.legs.items())),
        )
        if best is None or sig < best:
            best = sig
    return best


def canonical_key(g):
    """A byte string equal for two graphs iff they are isomorphic.

    Isomorphisms preserve the kind, leg labels, genus/color decorations
    and the root.  Tree kinds (and tree-like modular graphs) use a
    rooted canonical encoding; modular graphs with cycles fall back to
    exhaustive minimization over decoration-compatible vertex orders.
    """
    require_valid(g)
    loops_at = {}
    simple = True
    seen_pairs = set()
    for a, b in g.edges:
        if a == b:
            loops_at[a] = loops_at.get(a, 0) + 1
        else:
            if (a, b) in seen_pairs:
                simple = False
            seen_pairs.add((a, b))
    adj = g.adjacency()
    comps = g.components(adj)
    if g.kind is Kind.MODULAR:
        acyclic = simple and (
            len(g.edges) - sum(loops_at.values())
            == len(g.vertex_ids) - len(comps))
        if not acyclic:
            return _key_bytes(g.kind, _modular_bruteforce_key(g))
    legs_at = {}
    for l, v in sorted(g.legs.items()):
        legs_at.setdefault(v, []).append(l)
    keys = sorted(_component_key(g, c, adj, legs_at, loops_at) for c in comps)
    return _key_bytes(g.kind, keys)


def is_isomorphic(a, b):
    """Label-, decoration- and root-preserving graph isomorphism."""
    if a.kind is not b.kind:
        raise KindMismatch(f"{a.kind.value} vs {b.kind.value}")
    return canonical_key(a) == canonical_key(b)
