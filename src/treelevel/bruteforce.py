"""Generate-and-filter stratum enumeration.

This is the slow, independent route used to check
:func:`treelevel.strata.enumerate_strata`: run over all tree shapes on
up to the maximal possible vertex count, all root placements, all
colorings and all ways to distribute the legs, then keep what passes
``validate`` and ``is_stable``.  The only shortcuts taken are provably
necessary conditions (legs never sit on infinite-scaling vertices, an
infinite-scaling vertex that can never reach valence three is dropped
early); every surviving candidate is still pushed through the full
validity and stability checks.
"""

from __future__ import annotations

import itertools

from .errors import TooLarge
from .graphs import Color, Kind, MarkedGraph, canonical_key, is_stable, validate


def _tree_shapes(v):
    """Edge lists of all unlabeled trees on vertices 0..v-1."""
    if v == 1:
        yield ()
        return
    import networkx as nx  # only the oracle needs it; keeps CLI start-up light

    for t in nx.nonisomorphic_trees(v):
        yield tuple(sorted(tuple(sorted(e)) for e in t.edges()))


def _max_vertices(space):
    n = space.n
    return {
        "m0": max(1, n - 2),
        "fm": n + 1,
        "mult": 2 * n - 1,
        "scaled": max(1, 2 * n),
    }[space.family]


def _colorings(v, adj, top, has_root_leg):
    """Colorings compatible with monotonicity, found by DFS from ``top``.

    Along any downward path the scaling pattern is infinite*, colored,
    zero*; the top vertex is colored or infinite.  Infinite-scaling
    vertices never carry legs, so any such vertex that cannot reach
    valence three from edges alone (plus leg 0 when it carries the root
    leg) is hopeless and pruned here; the root vertex of a scaled
    parametrized curve is exempt from stability and gets a pass.
    """
    order = [top]
    parent = {top: None}
    stack = [top]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
                stack.append(y)

    def feasible_inf(vertex):
        bonus = 1 if (vertex == top and has_root_leg) else 0
        exempt = vertex == top and not has_root_leg
        return exempt or len(adj[vertex]) + bonus >= 3

    def rec(i, assignment):
        if i == len(order):
            yield dict(assignment)
            return
        x = order[i]
        if x == top:
            options = (Color.COLORED, Color.INFINITY)
        else:
            p = assignment[parent[x]]
            if p is Color.INFINITY:
                options = (Color.INFINITY, Color.COLORED)
            else:
                options = (Color.ZERO,)
        for c in options:
            if c is Color.INFINITY and not feasible_inf(x):
                continue
            assignment[x] = c
            yield from rec(i + 1, assignment)
        assignment.pop(x, None)

    yield from rec(0, {})


def _count_vectors(slots, minima, total):
    """All (c_v) with c_v >= minima[v] on ``slots`` summing to ``total``."""

    def rec(i, remaining):
        if i == len(slots):
            if remaining == 0:
                yield {}
            return
        needed_rest = sum(minima[s] for s in slots[i + 1:])
        lo = minima[slots[i]]
        for c in range(lo, remaining - needed_rest + 1):
            for tail in rec(i + 1, remaining - c):
                tail[slots[i]] = c
                yield tail

    yield from rec(0, total)


def _label_assignments(slots, counts, labels):
    """Ways to hand the label set out in groups of the prescribed sizes."""

    def rec(i, remaining):
        if i == len(slots):
            yield {}
            return
        s = slots[i]
        for group in itertools.combinations(sorted(remaining), counts[s]):
            rest = remaining - set(group)
            for tail in rec(i + 1, rest):
                for l in group:
                    tail[l] = s
                yield tail

    yield from rec(0, set(labels))


def _candidates(space, v, edges):
    n = space.n
    labels = range(1, n + 1)
    adj = {x: [] for x in range(v)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    deg = {x: len(adj[x]) for x in range(v)}
    kind = space.graph_kind

    if kind is Kind.MODULAR:
        minima = {x: max(0, 3 - deg[x]) for x in range(v)}
        slots = list(range(v))
        for counts in _count_vectors(slots, minima, n):
            for assign in _label_assignments(slots, counts, labels):
                yield MarkedGraph(kind, {x: 0 for x in range(v)}, edges, assign)
        return

    if kind is Kind.ROOTED_FOREST:
        for root in range(v):
            minima = {x: 0 if x == root else max(0, 3 - deg[x])
                      for x in range(v)}
            slots = list(range(v))
            for counts in _count_vectors(slots, minima, n):
                for assign in _label_assignments(slots, counts, labels):
                    yield MarkedGraph(kind, list(range(v)), edges, assign, root)
        return

    has_root_leg = kind is Kind.COLORED_TREE
    for top in range(v):
        for coloring in _colorings(v, adj, top, has_root_leg):
            slots = [x for x in range(v) if coloring[x] is not Color.INFINITY]
            minima = {}
            for x in slots:
                need = 2 if coloring[x] is Color.COLORED else 3
                bonus = 1 if (x == top and has_root_leg) else 0
                exempt = kind is Kind.ROOTED_COLORED_TREE and x == top
                minima[x] = 0 if exempt else max(0, need - deg[x] - bonus)
            if sum(minima.values()) > n:
                continue
            for counts in _count_vectors(slots, minima, n):
                for assign in _label_assignments(slots, counts, labels):
                    legs = dict(assign)
                    root = None
                    if has_root_leg:
                        legs[0] = top
                    else:
                        root = top
                    yield MarkedGraph(kind, dict(coloring), edges, legs, root)


def brute_force_strata(space):
    """Strata of ``space`` by exhaustive generation, as a canonical-key map."""
    if space.n > 6:
        raise TooLarge("brute force is guarded at n <= 6")
    found = {}
    for v in range(1, _max_vertices(space) + 1):
        for edges in _tree_shapes(v):
            for g in _candidates(space, v, edges):
                if validate(g):
                    continue
                if not is_stable(g):
                    continue
                found[canonical_key(g)] = g
    return found
