"""Marked graphs: the combinatorial types of nodal curves.

Four species are supported, each a forest.  A modular graph records
the components, nodes and labelled markings of a stable rational curve,
so every vertex has genus 0.  A rooted forest is the type of a
parametrized curve, with the root vertex standing for the principal
component.  A colored tree is the type of a nodal scaled affine line:
vertices are partitioned into zero-scaling, colored (finite nonzero
scaling) and infinite-scaling classes, the outgoing marking is leg 0,
and every path from a leg to leg 0 crosses the colored level exactly
once.  A rooted colored tree is the type of a scaled parametrized
curve, with a root vertex in place of leg 0.

The constructor, the one way in, refuses a nonzero genus and any
non-integer id, label or root, a bool included, so a modular graph
stores no genus.

Values are immutable after construction: ``legs`` and ``color`` are
read-only mappings over dicts built in the constructor, and rebinding an
attribute raises ``AttributeError``.  So a graph that passed
:func:`validate` stays valid, and :func:`require_valid` runs the check
once per value, on its first call.  :func:`validate` decides a graph
that is one tree in one depth-first walk from its top, and returns there
when the tree obeys every rule of its kind.  Any other graph, a refused
one or a forest, is explained from the parents that walk recorded, with
one more pass to list the components and, on the colored kinds, a walk
up the path of each leg the rules concern.  All operations here are
pure.
"""

from __future__ import annotations

import json
from enum import Enum
from operator import index
from types import MappingProxyType

from .errors import InvalidGraph, KindMismatch


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


def _set_fields(g, kind, vertex_ids, color, edges, legs, root):
    """Store normalized fields on a new graph, the dicts behind read-only
    views."""
    init = object.__setattr__
    init(g, "kind", kind)
    init(g, "vertex_ids", vertex_ids)
    init(g, "color", MappingProxyType(color))
    init(g, "edges", edges)
    init(g, "legs", MappingProxyType(legs))
    init(g, "root", root)
    # set by require_valid once validate() found no problem
    init(g, "_valid", False)


def _int(what, value):
    """``value`` through :func:`operator.index`; a bool, which ``index``
    would read as 0 or 1, is refused."""
    if isinstance(value, bool):
        raise InvalidGraph(f"{what} {value!r} is not an integer")
    return index(value)


class MarkedGraph:
    """A graph with decorated vertices, finite edges and labelled legs.

    ``vertices`` maps vertex id to its decoration: genus 0 (or None)
    for the modular kind, a :class:`Color` for the colored kinds,
    ``None`` for rooted forests, which refuse any other decoration.  It
    is a dict or an iterable of ``(id, decoration)`` pairs, never bare
    ids; a repeated id is refused.
    ``edges`` is a sequence of unordered vertex-id pairs; the given order
    is kept and edge indices refer to it.  ``legs`` maps leg label to the vertex carrying it.  Every
    number goes through :func:`operator.index`, so a float raises
    ``TypeError`` rather than being truncated, and a bool, which
    ``index`` would read as 0 or 1, raises ``InvalidGraph``.

    ``legs`` and ``color`` are read-only mappings and no attribute can be
    rebound after construction.
    """

    __slots__ = ("kind", "vertex_ids", "color", "edges", "legs", "root",
                 "_valid")

    def __init__(self, kind, vertices, edges=(), legs=None, root=None):
        kind = Kind(kind)
        color = {}
        ids = []
        items = vertices.items() if isinstance(vertices, dict) else vertices
        for v, decor in items:
            v = _int("vertex id", v)
            ids.append(v)
            if kind is Kind.MODULAR:
                if decor is not None and _int("genus", decor) != 0:
                    raise InvalidGraph(f"vertex {v} has genus {decor}, not 0")
            elif kind in COLORED_KINDS:
                if decor is None:
                    raise InvalidGraph(f"vertex {v}: colored kinds need a color")
                color[v] = Color(decor)
            elif decor is not None:
                raise InvalidGraph(f"vertex {v}: rooted forests take no "
                                   f"decoration, not {decor!r}")
        if len(set(ids)) != len(ids):
            raise InvalidGraph("duplicate vertex ids")
        ends = [(_int("edge end", a), _int("edge end", b)) for a, b in edges]
        _set_fields(
            self, kind, tuple(sorted(ids)), color,
            tuple((a, b) if a <= b else (b, a) for a, b in ends),
            {_int("leg label", l): _int("leg vertex", v)
             for l, v in (legs or {}).items()},
            None if root is None else _int("root", root))

    @classmethod
    def _trusted(cls, kind, decorations, edges, legs, root):
        """A graph from fields already in the form the constructor gives
        them, stored without a second pass.

        ``kind`` is a :class:`Kind`; ``decorations`` maps increasing int
        vertex ids to their :class:`Color` on the colored kinds, and only
        its keys are read on the others; ``edges`` holds int pairs
        ``(a, b)`` with ``a <= b``; ``legs`` maps int labels to vertex
        ids; ``root`` is an id or None.  The dicts pass to the graph and
        the caller must not keep them.  Nothing is checked here:
        :func:`require_valid` still runs :func:`validate` once, which
        decides a valid tree in one walk.

        The strata recursion builds each stratum this way, and every
        morphism in :mod:`treelevel.morphisms` builds its result this
        way from the fields of a valid input.
        """
        g = object.__new__(cls)
        color = decorations if kind in COLORED_KINDS else {}
        _set_fields(g, kind, tuple(decorations), color, tuple(edges), legs,
                    root)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"MarkedGraph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"MarkedGraph is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (MarkedGraph, (self.kind, self.decorations(), self.edges,
                              dict(self.legs), self.root))

    # -- basic accessors -------------------------------------------------

    @property
    def n(self):
        """Number of legs other than the root leg 0."""
        return len([l for l in self.legs if l != 0])

    @property
    def anchor(self):
        """The vertex holding leg 0 in a colored tree, else the root vertex
        (None for kinds without one)."""
        if self.kind is Kind.COLORED_TREE:
            return self.legs.get(0)
        return self.root

    def decorations(self):
        """A new dict of the vertex decorations, in the form the
        constructor takes them, keyed in ``vertex_ids`` order: genus 0
        on the modular kind, the colors on the colored kinds and None on
        rooted forests."""
        out = dict.fromkeys(self.vertex_ids,
                            0 if self.kind is Kind.MODULAR else None)
        out.update(self.color)
        return out

    def legs_at(self, v):
        return sorted(l for l, w in self.legs.items() if w == v)

    def degree(self, v):
        """Number of edges at ``v``."""
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

    # -- equality / hashing ----------------------------------------------

    def _signature(self):
        return (
            self.kind,
            self.vertex_ids,
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
                rec["genus"] = 0
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
            # a list, not a dict, so that a repeated id reaches the
            # constructor's duplicate check
            verts = []
            for rec in obj["vertices"]:
                if kind is Kind.MODULAR:
                    verts.append((rec["id"], rec.get("genus", 0)))
                elif kind in COLORED_KINDS:
                    verts.append((rec["id"], rec["color"]))
                else:
                    verts.append((rec["id"], None))
            # a key must spell its label plainly: "02" would merge with
            # "2", and int() would read "1_0" as 10
            legs = {}
            for key, v in obj.get("legs", {}).items():
                label = int(key)
                if str(label) != key:
                    raise InvalidGraph(
                        f"leg key {key!r} is not a plain decimal label")
                legs[label] = v
            return cls(
                kind,
                verts,
                [tuple(e) for e in obj.get("edges", [])],
                legs,
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
                attrs.append('label="g=0"')
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
    return MarkedGraph(Kind.ROOTED_FOREST, [(v, None) for v in vertex_ids],
                       edges, legs, root)


def colored_tree(colors, edges=(), legs=None):
    return MarkedGraph(Kind.COLORED_TREE, dict(colors), edges, legs)


def rooted_colored_tree(colors, edges=(), legs=None, root=0):
    return MarkedGraph(Kind.ROOTED_COLORED_TREE, dict(colors), edges, legs, root)


# -- validation --------------------------------------------------------------

def _check_references(g):
    """The unknown references and negative labels of ``g``, in order."""
    problems = []
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
    return problems


def _parents(adj, top):
    """The parent of each vertex of a tree component hung from ``top``;
    ``top`` itself maps to None.  Walks the component of ``top`` once."""
    parents = {top: None}
    stack = [top]
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if x not in parents:
                parents[x] = w
                stack.append(x)
    return parents


def _path_up(parents, v):
    """Vertices on the path from ``v`` up to the top of ``parents``, both
    included; KeyError when ``v`` is not below that top."""
    path = [v]
    up = parents[v]
    while up is not None:
        path.append(up)
        up = parents[up]
    return path


def _monotone_path_problems(g, leg, parents, problems):
    """Check the color pattern on the path from ``leg``'s vertex up to
    the top of ``parents``, which must hold that vertex.

    Exactly one colored vertex; zero scaling strictly before it and
    infinite scaling strictly after it.
    """
    path = _path_up(parents, g.legs[leg])
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


def validate(g):
    """Return the list of violated invariants (empty when the graph is valid).

    One depth-first walk hangs the graph from its top (leg 0's vertex,
    else the root, else the first vertex) and records each vertex's
    parent.  On the colored kinds it also reads the scaling pattern
    downward: infinite vertices have infinite or colored children,
    colored and zero vertices have zero children, and only the infinite
    root of a rooted colored tree may also have zero children.  A graph
    that is one tree (``|V| - 1`` edges reaching every vertex), obeys
    its kind's leg-0 and root rules, keeps that pattern, has no zero top
    and no leg but 0 on an infinite vertex is valid, and ``[]`` returns
    at once: every path from a leg up to the top then crosses one
    colored vertex, with zero scaling below it and infinite above.

    Any other graph has its problems listed in a fixed order.  Unknown
    references or negative labels, found while the adjacency is built,
    are listed alone.  Else come the kind, leg-0 and root rules and
    whether the graph is a forest; then, on the colored kinds, each
    component in order of its least vertex.  Away from the top a
    component must be uniformly zero or infinite.  In the top's
    component, the path from each leg but 0 up to the top is walked over
    the parents (below an infinite root, only in subtrees that are not
    all zero), and the edges are checked.  So a valid forest, or an
    infinite vertex below a colored one, gives ``[]`` here as well.
    :func:`require_valid` runs this once per value.
    """
    kind, ids, edges, legs, root = g.kind, g.vertex_ids, g.edges, g.legs, g.root
    adj = {v: [] for v in ids}
    try:
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
    except KeyError:
        return _check_references(g)
    if root is not None and root not in adj:
        return _check_references(g)
    for l, v in legs.items():
        if l < 0 or v not in adj:
            return _check_references(g)

    problems = []
    if kind is Kind.COLORED_TREE:
        if 0 not in legs:
            problems.append("colored tree is missing the root leg 0")
        if root is not None:
            problems.append("colored trees carry leg 0, not a root vertex")
    else:
        if 0 in legs:
            problems.append("leg 0 is reserved for the colored-tree kind")
        if kind in ROOTED_KINDS:
            if root is None:
                problems.append("rooted kind needs a root vertex")
        elif root is not None:
            problems.append("only rooted kinds carry a root vertex")
    if not ids:
        return problems

    top = legs[0] if 0 in legs else ids[0] if root is None else root
    parents = {top: None}
    stack = [top]
    colored, bent = kind in COLORED_KINDS, False
    if colored:
        color, inf, zero = g.color, Color.INFINITY, Color.ZERO
        bent = color[top] is zero
        for l, v in legs.items():
            if l and color[v] is inf:
                bent = True
        while stack:
            w = stack.pop()
            # a finite parent has only zero children, an infinite one
            # only infinite or colored children, but for the infinite root
            finite = color[w] is not inf
            any_below = w == root and not finite
            for x in adj[w]:
                if x not in parents:
                    if (color[x] is zero) is not finite and not any_below:
                        bent = True
                    parents[x] = w
                    stack.append(x)
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if x not in parents:
                parents[x] = w
                stack.append(x)
    if (not problems and not bent and len(parents) == len(ids)
            and len(edges) == len(ids) - 1):
        return problems

    comps = g.components(adj)
    if len(edges) != len(ids) - len(comps):
        # components ignore loops, so a loop, a parallel edge or a cycle
        # leaves more edges than a forest has
        problems.append("tree kinds must be loop-free, multi-edge-free forests")
        return problems
    if problems or not colored:
        return problems
    if color[top] is zero and root is not None:
        problems.append("root vertex must be colored or infinite scaling")
        return problems

    # below the top, ``branch`` names the top's child a vertex hangs from
    branch = {}
    for v, p in parents.items():
        if p is not None:
            branch[v] = v if p == top else branch[p]
    allowed = ()
    here = []
    if kind is Kind.COLORED_TREE:
        if color[top] is zero:
            here.append("leg 0 sits on a zero-scaling vertex")
        for l, v in legs.items():
            if l and v in parents:
                _monotone_path_problems(g, l, parents, here)
    elif color[top] is Color.COLORED:
        here = [f"vertex {v}: with a colored root all other vertices have "
                "zero scaling" for v in sorted(branch) if color[v] is not zero]
    else:
        # each subtree off the infinite root is a colored tree with the
        # attaching edge as its leg 0, or a zero-only tree
        mixed = {branch[v] for v in branch if color[v] is not zero}
        allowed = {(min(top, w), max(top, w)) for w in adj[top]
                   if w not in mixed}
        # child by child, in the order of the set of children
        for w in set(adj[top]):
            for l, v in legs.items():
                if w in mixed and branch.get(v) == w:
                    _monotone_path_problems(g, l, parents, here)
        here += [f"leg {l} sits on the infinite-scaling root"
                 for l, v in legs.items() if v == top]
    if kind is Kind.COLORED_TREE or color[top] is inf:
        for i, (a, b) in enumerate(edges):
            if a in parents:
                if {color[a], color[b]} == {zero, inf} and (a, b) not in allowed:
                    here.append(f"edge {i} joins zero and infinite scaling")
                if color[a] is color[b] is Color.COLORED:
                    here.append(f"edge {i} joins two colored vertices")

    away = "leg 0" if kind is Kind.COLORED_TREE else "the root"
    for comp in comps:
        if comp[0] in parents:
            problems += here
        elif {color[v] for v in comp} not in ({zero}, {inf}):
            problems.append(f"component {comp} away from {away} must be "
                            "uniformly zero or infinite scaling")
    return problems


def require_valid(g):
    """Raise InvalidGraph unless ``g`` is valid.

    :func:`validate` runs on the first call for a value, and decides a
    valid tree in one walk.  A graph cannot change, so a success is recorded on it and
    later calls return at once.  An invalid graph is checked again on
    every call.
    """
    if g._valid:
        return
    problems = validate(g)
    if problems:
        raise InvalidGraph("; ".join(problems))
    object.__setattr__(g, "_valid", True)


def min_valence(g, v):
    """The least valence at which vertex ``v`` of ``g`` is stable.

    The root vertex of a rooted kind is unconstrained, a colored vertex
    needs valence 2 (its component carries a free point at infinity) and
    every other vertex, a rational component, needs 3.
    """
    if v == g.root:
        return 0
    if g.kind in COLORED_KINDS and g.color[v] is Color.COLORED:
        return 2
    return 3


def is_stable(g, valences=None):
    """Stability of the combinatorial type: every vertex reaches its
    :func:`min_valence`.  ``valences``, when given, is ``g.valences()``,
    already counted by the caller."""
    require_valid(g)
    if valences is None:
        valences = g.valences()
    return all(valences[v] >= min_valence(g, v) for v in g.vertex_ids)


# -- canonical form ----------------------------------------------------------
#
# A canonical key is ``repr((kind, codes))``.  ``codes`` is the sorted
# list of the component codes, each the code of the component rooted at
# a chosen vertex; the code of a rooted subtree is (decoration, 0, sorted
# legs, sorted child codes), the 0 a fixed slot kept so that keys stay
# byte-stable.  strata reads the same codes straight off its enumeration
# nodes, so both build them with the helpers below.

def _decoration(kind, value):
    """Decoration code of a vertex: ``value`` is its Color (colored
    kinds) or whether it is the root (rooted forests); every modular
    vertex has genus 0 and the code ``("g", 0)``."""
    if kind is Kind.MODULAR:
        return ("g", 0)
    if kind in COLORED_KINDS:
        return ("c", value.value)
    return ("r", 1 if value else 0)


def _decor(g, v):
    if g.kind in COLORED_KINDS:
        return _decoration(g.kind, g.color[v])
    return _decoration(g.kind, v == g.root)


def _vertex_code(decor, legs, children):
    """Code of a rooted subtree from its top vertex's decoration and
    sorted leg tuple and the codes of its child subtrees."""
    return (decor, 0, legs, tuple(sorted(children)))


def _key_bytes(kind, codes):
    """The canonical key of a graph of ``kind`` from its component codes,
    already sorted."""
    return repr((kind.value, codes)).encode()


def _encode_rooted(g, v, parent, adj, legs_at):
    return _vertex_code(
        _decor(g, v), tuple(legs_at.get(v, ())),
        [_encode_rooted(g, w, v, adj, legs_at) for w in adj[v] if w != parent])


def _component_key(g, comp, adj, legs_at):
    comp_set = set(comp)
    if g.anchor in comp_set:
        return _encode_rooted(g, g.anchor, None, adj, legs_at)
    legs_in = [l for l, v in g.legs.items() if v in comp_set]
    if legs_in:
        return _encode_rooted(g, g.legs[min(legs_in)], None, adj, legs_at)
    return min(_encode_rooted(g, v, None, adj, legs_at) for v in comp)


def canonical_key(g):
    """A byte string equal for two graphs iff they are isomorphic.

    Isomorphisms preserve the kind, leg labels, decorations and the
    root.  Every valid graph is a forest, encoded component by component
    from a rooted canonical form.
    """
    require_valid(g)
    adj = g.adjacency()
    legs_at = {}
    for l, v in sorted(g.legs.items()):
        legs_at.setdefault(v, []).append(l)
    keys = sorted(_component_key(g, c, adj, legs_at)
                  for c in g.components(adj))
    return _key_bytes(g.kind, keys)


def is_isomorphic(a, b):
    """Label-, decoration- and root-preserving graph isomorphism."""
    if a.kind is not b.kind:
        raise KindMismatch(f"{a.kind.value} vs {b.kind.value}")
    return canonical_key(a) == canonical_key(b)
