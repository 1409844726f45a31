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
    require_valid,
)

FAMILIES = ("m0", "fm", "mult", "scaled")

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
        return {
            "m0": Kind.MODULAR,
            "fm": Kind.ROOTED_FOREST,
            "mult": Kind.COLORED_TREE,
            "scaled": Kind.ROOTED_COLORED_TREE,
        }[self.family]

    @property
    def ambient_dimension(self):
        return {
            "m0": self.n - 3,
            "fm": self.n,
            "mult": self.n - 1,
            "scaled": self.n + 1,
        }[self.family]

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

def _partitions_min2(legset):
    if not legset:
        yield ()
        return
    yield from set_partitions(legset, min_block=2)


@functools.cache
def _m0_rooted(legset):
    """Stable bubble trees over the frozenset ``legset`` hanging from one
    upward edge."""
    out = []
    for own in subsets(legset):
        rest = legset - own
        for blocks in _partitions_min2(rest):
            if 1 + len(own) + len(blocks) < 3:
                continue
            for combo in itertools.product(*[_m0_rooted(b) for b in blocks]):
                out.append(("b", own, combo))
    return out


@functools.cache
def _mult_rooted(legset):
    """Stable colored trees over the frozenset ``legset`` hanging from an
    upward root edge."""
    if not legset:
        raise InvalidGraph("a colored branch must carry at least one leg")
    out = []
    for own in subsets(legset):
        rest = legset - own
        for blocks in _partitions_min2(rest):
            for combo in itertools.product(*[_m0_rooted(b) for b in blocks]):
                out.append(("c", own, combo))
    for blocks in set_partitions(legset, min_blocks=2):
        for combo in itertools.product(*[_mult_rooted(b) for b in blocks]):
            out.append(("i", frozenset(), combo))
    return out


_TAG_COLOR = {"b": Color.ZERO, "c": Color.COLORED, "i": Color.INFINITY}
# The vertex decoration MarkedGraph takes for each node tag, per kind.
_TAG_VERTEX = {
    Kind.MODULAR: {"b": 0},
    Kind.ROOTED_FOREST: {"r": None, "b": None},
    **dict.fromkeys(COLORED_KINDS, _TAG_COLOR),
}


def _place(node, decor, verts, edges, legs):
    """Number the vertices of ``node`` in preorder; each edge is added
    once its child's subtree is placed."""
    tag, own, children = node
    vid = len(verts)
    verts[vid] = decor[tag]
    for l in own:
        legs[l] = vid
    for child in children:
        edges.append((vid, _place(child, decor, verts, edges, legs)))
    return vid


def _materialize(space, node):
    kind = space.graph_kind
    verts = {}
    edges = []
    legs = {}
    top = _place(node, _TAG_VERTEX[kind], verts, edges, legs)
    root = None
    if kind is Kind.COLORED_TREE:
        legs[0] = top
    elif kind in ROOTED_KINDS:
        root = top
    return MarkedGraph(kind, verts, edges, legs, root)


def _raw_strata(space):
    n = space.n
    legset = frozenset(range(1, n + 1))
    if space.family == "m0":
        top = n
        rest = legset - {top}
        for own in subsets(rest):
            for blocks in _partitions_min2(rest - own):
                if len(own) + 1 + len(blocks) < 3:
                    continue
                for combo in itertools.product(*[_m0_rooted(b) for b in blocks]):
                    yield ("b", own | {top}, combo)
    elif space.family == "fm":
        for own in subsets(legset):
            for blocks in _partitions_min2(legset - own):
                for combo in itertools.product(*[_m0_rooted(b) for b in blocks]):
                    yield ("r", own, combo)
    elif space.family == "mult":
        yield from _mult_rooted(legset)
    else:
        for own in subsets(legset):
            for blocks in _partitions_min2(legset - own):
                for combo in itertools.product(*[_m0_rooted(b) for b in blocks]):
                    yield ("c", own, combo)
        if n == 0:
            yield ("i", frozenset(), ())
        else:
            for blocks in set_partitions(legset, min_blocks=1):
                for combo in itertools.product(*[_mult_rooted(b) for b in blocks]):
                    yield ("i", frozenset(), combo)


# -- canonical keys of nodes --------------------------------------------------
#
# The key of a node is canonical_key of the graph _materialize builds
# from it, read off the node: the same codes, rooted where canonical_key
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
            decor[tag], 0, tuple(sorted(own)),
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
            decor[tag], 0, tuple(sorted(own)),
            [_down_code(c, decor, memo) for i, c in enumerate(children)
             if i != down] + above)
        above = [code]
    return code


def _node_key(space, node, memo):
    """``canonical_key(_materialize(space, node))``, without the graph.

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
        decor[tag], 0, tuple(sorted(own)),
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
    space.guard()
    # the memo of subtree codes is dropped before any graph is built
    nodes = sorted(_raw_strata(space),
                   key=functools.partial(_node_key, space, memo={}))
    return [_materialize(space, node) for node in nodes]


# -- dimension bookkeeping ----------------------------------------------------

def _check_space_graph(g, space):
    if g.kind is not space.graph_kind:
        raise KindMismatch(f"{g.kind.value} graph in space {space}")
    require_valid(g)


def stratum_dimension(g, space):
    """Sum of per-vertex moduli dimensions.

    A genus-g vertex of valence k contributes 3g - 3 + k; zero- and
    infinite-scaling vertices behave like genus zero, a colored vertex
    contributes k - 2 (its component carries a free point at infinity),
    a parametrized root contributes k (a configuration of k points on
    the curve) and a colored root k + 1 (k points plus the scaling
    value).
    """
    _check_space_graph(g, space)
    if not is_stable(g):
        raise InvalidGraph("dimension is defined for stable types")
    total = 0
    valences = g.valences()
    for v in g.vertex_ids:
        k = valences[v]
        if g.kind is Kind.MODULAR:
            total += 3 * g.genus[v] - 3 + k
        elif g.kind is Kind.ROOTED_FOREST:
            total += k if v == g.root else k - 3
        elif g.kind is Kind.ROOTED_COLORED_TREE and v == g.root:
            total += k + 1 if g.color[v] is Color.COLORED else k
        else:
            total += k - 2 if g.color[v] is Color.COLORED else k - 3
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
    anchor = g.legs.get(0) if g.kind is Kind.COLORED_TREE else g.root
    total = 0
    for comp in g.components():
        comp_set = set(comp)
        e = sum(1 for a, b in g.edges if a in comp_set)
        v1 = sum(1 for v in comp if g.color[v] is Color.COLORED)
        if anchor in comp_set or v1 >= 1:
            total += e + 1 - v1
        else:
            total += e
    return total


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
    n = space.n
    I = frozenset(I)
    rest = frozenset(range(1, n + 1)) - I
    if space.family == "m0":
        g = MarkedGraph(Kind.MODULAR, {0: 0, 1: 0}, [(0, 1)],
                        {**{l: 0 for l in rest}, **{l: 1 for l in I}})
    elif space.family == "fm":
        g = MarkedGraph(Kind.ROOTED_FOREST, [0, 1], [(0, 1)],
                        {**{l: 0 for l in rest}, **{l: 1 for l in I}}, root=0)
    elif space.family == "mult":
        g = MarkedGraph(Kind.COLORED_TREE,
                        {0: Color.COLORED, 1: Color.ZERO}, [(0, 1)],
                        {0: 0, **{l: 0 for l in rest}, **{l: 1 for l in I}})
    else:
        g = MarkedGraph(Kind.ROOTED_COLORED_TREE,
                        {0: Color.COLORED, 1: Color.ZERO}, [(0, 1)],
                        {**{l: 0 for l in rest}, **{l: 1 for l in I}}, root=0)
    return BoundaryDivisor(space, ("subset", I), g)


def _partition_divisor(space, blocks):
    blocks = tuple(sorted((frozenset(b) for b in blocks), key=sorted))
    verts = {0: Color.INFINITY}
    edges = []
    legs = {}
    for i, block in enumerate(blocks, start=1):
        verts[i] = Color.COLORED
        edges.append((0, i))
        for l in block:
            legs[l] = i
    if space.family == "mult":
        legs[0] = 0
        g = MarkedGraph(Kind.COLORED_TREE, verts, edges, legs)
    else:
        g = MarkedGraph(Kind.ROOTED_COLORED_TREE, verts, edges, legs, root=0)
    return BoundaryDivisor(space, ("partition", frozenset(blocks)), g)


def _rho_divisor(space, label="rho"):
    n = space.n
    g = MarkedGraph(Kind.ROOTED_FOREST, [0], [],
                    {l: 0 for l in range(1, n + 1)}, root=0)
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
    strata = {canonical_key(g): g for g in enumerate_strata(space)}
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
