"""Strata of the four moduli-space kinds: enumeration, dimensions,
boundary divisors and the closure poset.

Space kinds:

* ``m0(n)``     -- stable n-marked genus-zero curves (n >= 3),
* ``fm(n)``     -- stable n-marked parametrized curves,
* ``mult(n)``   -- stable n-marked scaled affine lines (n >= 1),
* ``scaled(n)`` -- stable n-marked scaled parametrized curves.

A stratum is a stable connected combinatorial type, kept as a canonical
representative.  Enumeration is a structural recursion: pick the legs
sitting on the top vertex, partition the rest into branches and recurse;
its independent check lives in :mod:`treelevel.bruteforce`.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

from . import morphisms
from .combis import bell, set_partitions, subsets
from .errors import (
    ForbiddenCollapse,
    InvalidGraph,
    KindMismatch,
    NothingToCollapse,
    TooLarge,
)
from .graphs import (
    COLORED_KINDS,
    ROOTED_KINDS,
    Color,
    Kind,
    MarkedGraph,
    _decoration,
    _key_bytes,
    _vertex_code,
    canonical_key,
    is_stable,
    min_valence,
    require_valid,
)

FAMILIES = ("m0", "fm", "mult", "scaled")

_GRAPH_KIND = {
    "m0": Kind.MODULAR,
    "fm": Kind.ROOTED_FOREST,
    "mult": Kind.COLORED_TREE,
    "scaled": Kind.ROOTED_COLORED_TREE,
}
# ambient dimension minus n
_AMBIENT_SHIFT = {"m0": -3, "fm": 0, "mult": -1, "scaled": 1}

DEFAULT_MAX_N = 7


def _max_n():
    env = os.environ.get("MODULI_MAX_N")
    if not env:
        return DEFAULT_MAX_N
    try:
        return int(env)
    except ValueError:
        raise TooLarge(
            f"MODULI_MAX_N={env!r} is not an integer enumeration guard") from None


@dataclass(frozen=True, order=True)
class SpaceKind:
    """One of the moduli-space families together with a marking count."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KindMismatch(f"unknown space family {self.family!r}")
        if self.family == "m0" and self.n < 3:
            raise InvalidGraph("m0 needs n >= 3")
        if self.family == "mult" and self.n < 1:
            raise InvalidGraph("mult needs n >= 1")
        if self.n < 0:
            raise InvalidGraph("n must be nonnegative")

    @property
    def graph_kind(self):
        return _GRAPH_KIND[self.family]

    @property
    def ambient_dimension(self):
        return self.n + _AMBIENT_SHIFT[self.family]

    def guard(self):
        if self.n > _max_n():
            raise TooLarge(
                f"n={self.n} exceeds the enumeration guard {_max_n()} "
                "(override with MODULI_MAX_N)")

    def __str__(self):
        return f"{self.family}({self.n})"


def M0(n):
    return SpaceKind("m0", n)


def FM(n):
    return SpaceKind("fm", n)


def MULT(n):
    return SpaceKind("mult", n)


def SCALED(n):
    return SpaceKind("scaled", n)


# -- structural enumeration ---------------------------------------------------
#
# Intermediate representation: node = (tag, legs frozenset, children tuple)
# with tags "b" (genus-zero bubble / zero scaling), "c" (colored),
# "i" (infinite scaling), "r" (parametrized root component).

def _branches(tag, legset, min_branches, memo):
    """Nodes tagged ``tag`` over the frozenset ``legset``: the legs on the
    node's own vertex, and stable bubble trees on blocks of at least two
    of the other legs, with at least ``min_branches`` legs and blocks
    in all."""
    for own in subsets(legset):
        for blocks in set_partitions(legset - own, min_block=2):
            if len(own) + len(blocks) >= min_branches:
                for combo in itertools.product(
                        *(_m0_rooted(b, memo) for b in blocks)):
                    yield (tag, own, combo)


def _infinite(legset, min_blocks, memo):
    """Infinite-scaling nodes over ``legset`` with at least ``min_blocks``
    colored branches below them."""
    for blocks in set_partitions(legset, min_blocks=min_blocks):
        for combo in itertools.product(*(_mult_rooted(b, memo) for b in blocks)):
            yield ("i", frozenset(), combo)


# ``memo`` maps (tag, legset) to the list of subtrees over legset; it
# lives for one enumeration, so equal subtrees within it are one object.

def _m0_rooted(legset, memo):
    """Stable bubble trees over the frozenset ``legset`` hanging from one
    upward edge: with that edge a bubble needs three special points."""
    key = ("b", legset)
    if key not in memo:
        memo[key] = list(_branches("b", legset, 2, memo))
    return memo[key]


def _mult_rooted(legset, memo):
    """Stable colored trees over the frozenset ``legset`` hanging from an
    upward root edge."""
    if not legset:
        raise InvalidGraph("a colored branch must carry at least one leg")
    key = ("c", legset)
    if key not in memo:
        memo[key] = (list(_branches("c", legset, 0, memo))
                     + list(_infinite(legset, 2, memo)))
    return memo[key]


_TAG_COLOR = {"b": Color.ZERO, "c": Color.COLORED, "i": Color.INFINITY}
# The vertex decoration MarkedGraph takes for each node tag, per kind.
_TAG_VERTEX = {
    Kind.MODULAR: {"b": 0},
    Kind.ROOTED_FOREST: {"r": None, "b": None},
    **dict.fromkeys(COLORED_KINDS, _TAG_COLOR),
}
# graphs.min_valence of a vertex that is not the root, by its node tag;
# "r" tags only the root of a parametrized curve, which has none.
_MIN_VALENCE = {"b": 3, "c": 2, "i": 3, "r": 0}


def _place(node, decor, verts, edges, legs, up):
    """Number the vertices of ``node`` in preorder; each edge is added
    once its child's subtree is placed.

    Returns the sum over the placed vertices of their valence less their
    ``_MIN_VALENCE``; ``up`` is the valence ``node``'s vertex takes from
    above it (its edge to the parent, or leg 0).
    """
    tag, own, children = node
    vid = len(verts)
    verts[vid] = decor[tag]
    for l in own:
        legs[l] = vid
    margin = len(own) + len(children) + up - _MIN_VALENCE[tag]
    for child in children:
        cid = len(verts)
        margin += _place(child, decor, verts, edges, legs, 1)
        edges.append((vid, cid))
    return margin


def _placed(space, node):
    """The graph of ``node`` with its dimension and codimension, all from
    one placement of the node.

    The graph is built by :meth:`MarkedGraph._trusted`: the placement
    gives its fields in normal form, so nothing is normalized again, and
    it is validated at its first :func:`~treelevel.graphs.require_valid`
    like any other.  The two numbers are read off the placement apart
    from each other: the dimension sums the per-vertex valence terms of
    :func:`stratum_dimension`, the codimension counts edges and, on the
    colored kinds, adds 1 - #colored (the one component holds the
    anchor).
    """
    kind = space.graph_kind
    verts = {}
    edges = []
    legs = {}
    # leg 0 sits on the top vertex of a colored tree
    colored_tree = kind is Kind.COLORED_TREE
    dimension = _place(node, _TAG_VERTEX[kind], verts, edges, legs,
                       int(colored_tree))
    root = None
    if colored_tree:
        legs[0] = 0
    elif kind in ROOTED_KINDS:
        root = 0
        # the root has no least valence, and a colored root counts the
        # scaling value as well
        tag = node[0]
        dimension += _MIN_VALENCE[tag] + (tag == "c")
    codimension = len(edges)
    if kind in COLORED_KINDS:
        codimension += 1 - list(verts.values()).count(Color.COLORED)
    return (MarkedGraph._trusted(kind, verts, edges, legs, root),
            dimension, codimension)


def _raw_strata(space):
    n = space.n
    legset = frozenset(range(1, n + 1))
    memo = {}
    if space.family == "m0":
        # a bubble tree on legs 1..n-1 whose upward edge becomes leg n;
        # _branches, not _m0_rooted, so the memo keeps no list of them
        yield from (("b", own | {n}, combo)
                    for _, own, combo in _branches("b", legset - {n}, 2, memo))
    elif space.family == "fm":
        yield from _branches("r", legset, 0, memo)
    elif space.family == "mult":
        yield from _mult_rooted(legset, memo)
    else:
        yield from itertools.chain(_branches("c", legset, 0, memo),
                                   _infinite(legset, 0, memo))


# -- canonical keys of nodes --------------------------------------------------
#
# The key of a node is canonical_key of the graph _placed builds from
# it, read off the node: the same codes, rooted where canonical_key
# roots them (the top vertex, which carries leg 0 or is the root, except
# for m0, whose key is rooted at the vertex holding leg 1).

_TAG_DECOR = {
    Kind.MODULAR: {"b": _decoration(Kind.MODULAR, 0)},
    Kind.ROOTED_FOREST: {"r": _decoration(Kind.ROOTED_FOREST, True),
                         "b": _decoration(Kind.ROOTED_FOREST, False)},
    **{kind: {tag: _decoration(kind, color) for tag, color in _TAG_COLOR.items()}
       for kind in COLORED_KINDS},
}


def _down_code(node, decor, memo):
    """Code of the subtree below ``node``, memoized by node identity."""
    code = memo.get(id(node))
    if code is None:
        tag, own, children = node
        code = memo[id(node)] = _vertex_code(
            decor[tag], tuple(sorted(own)),
            [_down_code(c, decor, memo) for c in children])
    return code


def _holds(node, leg):
    tag, own, children = node
    return leg in own or any(_holds(c, leg) for c in children)


def _rerooted_code(node, decor, memo, leg):
    """Code of the tree of ``node`` rooted at the vertex holding ``leg``.

    Walks down to that vertex; each vertex on the way is coded with the
    part above it as one more child.
    """
    path = [(node, None)]
    while leg not in path[-1][0][1]:
        children = path[-1][0][2]
        j = next(i for i, c in enumerate(children) if _holds(c, leg))
        path[-1] = (path[-1][0], j)
        path.append((children[j], None))
    above = []
    for (tag, own, children), down in path:
        code = _vertex_code(
            decor[tag], tuple(sorted(own)),
            [_down_code(c, decor, memo) for i, c in enumerate(children)
             if i != down] + above)
        above = [code]
    return code


def _node_key(space, node, memo):
    """``canonical_key(_placed(space, node)[0])``, without the graph.

    ``memo`` holds subtree codes by node identity for as long as the
    caller keeps the nodes alive.
    """
    kind = space.graph_kind
    decor = _TAG_DECOR[kind]
    if kind is Kind.MODULAR:
        return _key_bytes(kind, [_rerooted_code(node, decor, memo, 1)])
    tag, own, children = node
    if kind is Kind.COLORED_TREE:
        own = own | {0}
    return _key_bytes(kind, [_vertex_code(
        decor[tag], tuple(sorted(own)),
        [_down_code(c, decor, memo) for c in children])])


def enumerate_strata(space):
    """All stable connected types of ``space``, one per isomorphism class,
    in canonical order by construction.

    The recursion yields each class exactly once, so nothing is
    deduplicated.  Each node's canonical key is read off the node, the
    nodes are sorted by it and only then materialized, so the list is
    sorted by :func:`~treelevel.graphs.canonical_key` and the order is
    deterministic.  The graphs are validated at their first
    :func:`~treelevel.graphs.require_valid`.
    """
    return [_placed(space, node)[0] for node in iter_strata(space).nodes]


def _keyed_nodes(space):
    """The ``(canonical key, node)`` pairs of the strata of ``space``,
    sorted by key; the keys are distinct."""
    space.guard()
    memo = {}
    return sorted((_node_key(space, node, memo), node)
                  for node in _raw_strata(space))


def iter_strata(space):
    """The strata of ``space`` in the order of :func:`enumerate_strata`,
    built one at a time.

    Returns a sized iterable.  Its ``len`` is the number of strata,
    known from the sorted recursion nodes before any graph is built.
    Iterating it yields ``(graph, dimension, codimension)`` for one
    stratum at a time, all three from one placement of its node (see
    :func:`_placed`): the graph is built without normalizing its fields
    again, and the dimension and codimension are read off the
    placement, apart from each other, with the values of
    :func:`stratum_dimension` and :func:`stratum_codimension`.  Each
    graph still passes one :func:`~treelevel.graphs.validate`, a single
    walk that returns at once on a stratum, and one :func:`is_stable`
    before it is yielded, and raises as those functions do.  Only the
    nodes are held, never the list of graphs.
    """
    # the keys and the memo of subtree codes go before any graph is built
    return _Strata(space, [node for _, node in _keyed_nodes(space)])


class _Strata:
    """The sorted recursion nodes of one space; see :func:`iter_strata`.

    Each node is placed once; the graph, its dimension and its
    codimension come from that placement, and the graph is checked by
    :func:`is_stable`, which runs its one validate walk first.
    """

    __slots__ = ("space", "nodes")

    def __init__(self, space, nodes):
        self.space = space
        self.nodes = nodes

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        space = self.space
        for node in self.nodes:
            stratum = _placed(space, node)
            if not is_stable(stratum[0]):
                raise InvalidGraph("dimension is defined for stable types")
            yield stratum


# -- dimension bookkeeping ----------------------------------------------------

def _check_space_graph(g, space):
    if g.kind is not space.graph_kind:
        raise KindMismatch(f"{g.kind.value} graph in space {space}")
    require_valid(g)


def stratum_dimension(g, space):
    """Sum of per-vertex moduli dimensions.

    A vertex of valence k other than the root contributes k less its
    :func:`~treelevel.graphs.min_valence`: k - 2 for a colored vertex
    and k - 3 for the rest.  A parametrized root
    contributes k (a configuration of k points on the curve) and a
    colored root k + 1 (k points plus the scaling value).
    """
    _check_space_graph(g, space)
    if not is_stable(g):
        raise InvalidGraph("dimension is defined for stable types")
    total = 0
    valences = g.valences()
    for v in g.vertex_ids:
        k = valences[v]
        if v == g.root:
            total += k + 1 if g.color.get(v) is Color.COLORED else k
        else:
            total += k - min_valence(g, v)
    return total


def stratum_codimension(g, space):
    """Edge count corrected by the number of gluing-parameter relations.

    For colored kinds each connected component with colored vertices
    imposes (#colored - 1) relations, so it contributes
    #edges + 1 - #colored; the component holding leg 0 or the root
    always takes the corrected form.  Plain kinds count edges.
    """
    _check_space_graph(g, space)
    if g.kind in (Kind.MODULAR, Kind.ROOTED_FOREST):
        return len(g.edges)
    total = 0
    for comp in g.components():
        comp_set = set(comp)
        e = sum(1 for a, b in g.edges if a in comp_set)
        v1 = sum(1 for v in comp if g.color[v] is Color.COLORED)
        if g.anchor in comp_set or v1 >= 1:
            total += e + 1 - v1
        else:
            total += e
    return total


# -- stratum counts by codimension --------------------------------------------
#
# The symbolic method (Flajolet & Sedgewick, Analytic Combinatorics, ch.
# II) over the recursions above.  The strata over a label set depend
# only on its size, so each recursion becomes a polynomial in y by size,
# the coefficient of y^c counting nodes of codimension c.  A vertex
# weighs y for the edge above it and a colored vertex y^-1 more; on the
# colored kinds the top vertex weighs y too, for the 1 in #edges + 1 -
# #colored, and on the plain kinds it weighs 1.  Polynomials are dicts
# from exponent to coefficient.

def _poly_add(acc, p, scale=1):
    for e, c in p.items():
        acc[e] = acc.get(e, 0) + scale * c


def _poly_mul(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            out[a + b] = out.get(a + b, 0) + c * d
    return out


def count_strata(space):
    """The f-vector of ``space``: ``{codimension: number of strata}``,
    by codimension, counted from the recursions of the enumeration with
    no stratum built.  Its values sum to ``len(iter_strata(space))``."""
    y = {1: 1}
    one = {0: 1}

    # the caches live for one call; no caller changes a cached dict
    @functools.cache
    def blocks(tree, m, r):
        """Partitions of an m-set into r blocks, each holding a tree
        (a bubble tree "b" on two labels or more, a colored tree "c"),
        summed over the size s of the block of the smallest label."""
        if r == 0:
            return one if m == 0 else {}
        out = {}
        least = 2 if tree == "b" else 1
        for s in range(least, m - least * (r - 1) + 1):
            _poly_add(out, _poly_mul(rooted(tree, s), blocks(tree, m - s, r - 1)),
                      math.comb(m - 1, s - 1))
        return out

    def branches(weight, m, min_branches):
        """_branches: own legs, bubble trees on blocks of the rest."""
        out = {}
        for k in range(m + 1):
            for r in range(max(0, min_branches - k), (m - k) // 2 + 1):
                _poly_add(out, blocks("b", m - k, r), math.comb(m, k))
        return _poly_mul(weight, out)

    def infinite(m, min_blocks):
        """_infinite: an infinite vertex over colored trees on blocks."""
        out = {}
        for r in range(min_blocks, m + 1):
            _poly_add(out, blocks("c", m, r))
        return _poly_mul(y, out)

    @functools.cache
    def rooted(tree, m):
        """_m0_rooted ("b") and _mult_rooted ("c")."""
        if tree == "b":
            return branches(y, m, 2)
        out = branches(one, m, 0)
        _poly_add(out, infinite(m, 2))
        return out

    n = space.n
    if space.family == "m0":
        counts = branches(one, n - 1, 2)
    elif space.family == "fm":
        counts = branches(one, n, 0)
    elif space.family == "mult":
        counts = rooted("c", n)
    else:
        counts = branches(one, n, 0)
        _poly_add(counts, infinite(n, 0))
    return {c: counts[c] for c in sorted(counts) if counts[c]}


# -- boundary divisors --------------------------------------------------------

@dataclass(frozen=True)
class BoundaryDivisor:
    """A codimension-one boundary family of a moduli space.

    ``shape`` is ``("subset", I)``, ``("partition", blocks)`` or
    ``("rho", label)``; ``generic_type`` is the combinatorial type of
    its generic point (for the fixed-scaling family this is the open
    type of the parametrized-curve space it is isomorphic to).
    """

    space: SpaceKind
    shape: tuple
    generic_type: MarkedGraph = field(compare=False)

    @property
    def name(self):
        kind, data = self.shape
        if kind == "subset":
            return "D_{%s}" % ",".join(str(i) for i in sorted(data))
        if kind == "partition":
            blocks = sorted(sorted(b) for b in data)
            return "D_[%s]" % "|".join(
                "{%s}" % ",".join(str(i) for i in b) for b in blocks)
        return "iota_%s" % data

    def dimension(self):
        if self.shape[0] == "rho":
            return stratum_dimension(self.generic_type, FM(self.space.n))
        return stratum_dimension(self.generic_type, self.space)

    def codimension(self):
        return self.space.ambient_dimension - self.dimension()

    def __str__(self):
        return f"{self.name} in {self.space}"


def _subset_divisor(space, I):
    I = frozenset(I)
    rest = frozenset(range(1, space.n + 1)) - I
    top = {"m0": "b", "fm": "r"}.get(space.family, "c")
    g = _placed(space, (top, rest, (("b", I, ()),)))[0]
    return BoundaryDivisor(space, ("subset", I), g)


def _partition_divisor(space, blocks):
    blocks = tuple(sorted((frozenset(b) for b in blocks), key=sorted))
    g = _placed(space, ("i", frozenset(),
                        tuple(("c", block, ()) for block in blocks)))[0]
    return BoundaryDivisor(space, ("partition", frozenset(blocks)), g)


def _rho_divisor(space, label="rho"):
    n = space.n
    g = _placed(FM(n), ("r", frozenset(range(1, n + 1)), ()))[0]
    return BoundaryDivisor(space, ("rho", label), g)


def boundary_divisors(space):
    """All boundary divisors of the space, deterministically ordered.

    m0: stable splittings; fm: bubbling subsets; mult: bubbling subsets
    plus scaling partitions with at least two blocks; scaled: bubbling
    subsets, scaling partitions with at least one block, and the
    fixed-scaling family.
    """
    space.guard()
    n = space.n
    out = []
    legset = range(1, n + 1)
    if space.family == "m0":
        for I in subsets(range(1, n), minsize=2, maxsize=n - 2):
            out.append(_subset_divisor(space, I))
    elif space.family == "fm":
        for I in subsets(legset, minsize=2):
            out.append(_subset_divisor(space, I))
    elif space.family == "mult":
        for I in subsets(legset, minsize=2):
            out.append(_subset_divisor(space, I))
        for blocks in set_partitions(legset, min_blocks=2):
            out.append(_partition_divisor(space, blocks))
    else:
        for I in subsets(legset, minsize=2):
            out.append(_subset_divisor(space, I))
        for blocks in set_partitions(legset, min_blocks=1):
            out.append(_partition_divisor(space, blocks))
        out.append(_rho_divisor(space))
    out.sort(key=lambda d: (d.shape[0], d.name))
    return out


def mult_divisor_count(n):
    """2^n - n - 1 bubbling divisors plus Bell(n) - 1 scaling divisors."""
    return 2**n - n - 1 + bell(n) - 1


# -- closure poset ------------------------------------------------------------

@dataclass
class ClosurePoset:
    """Degeneration order on strata.

    ``covers[k]`` holds the canonical keys of the strata reached from
    stratum ``k`` by a single collapse; an arrow means "is in the
    boundary of".  Grading: every arrow drops the codimension by
    exactly one.
    """

    space: SpaceKind
    strata: dict
    covers: dict
    codim: dict

    def maximal_chain_lengths(self):
        """Longest chain from each stratum up to the open stratum."""
        memo = {}

        def depth(k):
            if k not in memo:
                nexts = self.covers[k]
                memo[k] = 0 if not nexts else 1 + max(depth(t) for t in nexts)
            return memo[k]

        return {k: depth(k) for k in self.strata}


def closure_poset(space):
    if space.n > 5:
        raise TooLarge("closure poset is guarded at n <= 5")
    strata = {k: _placed(space, node)[0] for k, node in _keyed_nodes(space)}
    codim = {k: stratum_codimension(g, space) for k, g in strata.items()}
    covers = {k: set() for k in strata}
    for k, g in strata.items():
        targets = set()
        for i in range(len(g.edges)):
            try:
                targets.add(canonical_key(morphisms.collapse_edge(g, i)))
            except ForbiddenCollapse:
                pass
        if g.kind in COLORED_KINDS:
            for v in g.vertex_ids:
                if g.color[v] is Color.INFINITY:
                    try:
                        targets.add(
                            canonical_key(morphisms.collapse_with_relations(g, v)))
                    except (ForbiddenCollapse, NothingToCollapse):
                        pass
        for t in targets:
            if t not in strata:
                raise InvalidGraph("collapse left the stratum set")
            if codim[k] - codim[t] != 1:
                raise InvalidGraph("collapse is not a covering relation")
            covers[k].add(t)
    return ClosurePoset(space, strata, covers, codim)
