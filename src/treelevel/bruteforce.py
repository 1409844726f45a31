"""Generate-and-filter stratum enumeration.

This is the slow, independent route used to check
:func:`treelevel.strata.enumerate_strata`: run over all rooted tree
shapes on up to the maximal possible vertex count, all colorings and
all ways to distribute the legs, then keep what passes ``validate`` and
``is_stable``.  The only shortcuts taken are provably necessary
conditions (legs never sit on infinite-scaling vertices, an
infinite-scaling vertex that can never reach valence three is dropped
early); every surviving candidate is still pushed through the full
validity and stability checks.
"""

from __future__ import annotations

import itertools

from .errors import TooLarge
from .graphs import Color, Kind, MarkedGraph, canonical_key, is_stable, validate


def _rooted_shapes(v):
    """Parent lists of all unlabelled rooted trees on ``v`` vertices.

    Vertex 0 is the root, with parent ``None``, and every parent comes
    before its children.  A rooted tree is a root plus a multiset of
    rooted subtrees whose sizes sum to ``v - 1``; listing the subtrees
    in non-increasing (size, index among the shapes of that size) order
    picks each multiset once, so each shape appears once (OEIS A000081).
    """
    table = [[], [(None,)]]

    def forests(total, top, offset):
        # subtrees hang from vertex 0 and take the vertices from offset on
        if total == 0:
            yield ()
            return
        for size in range(min(total, top[0]), 0, -1):
            for i, tree in enumerate(table[size]):
                if (size, i) > top:
                    break
                head = tuple(0 if p is None else p + offset for p in tree)
                for rest in forests(total - size, (size, i), offset + size):
                    yield head + rest

    for size in range(2, v + 1):
        # (size, 0) lies above every (size - 1, i), so no subtree is excluded
        table.append([(None,) + f for f in forests(size - 1, (size, 0), 1)])
    return table[v]


def _max_vertices(space):
    n = space.n
    return {
        "m0": max(1, n - 2),
        "fm": n + 1,
        "mult": 2 * n - 1,
        "scaled": max(1, 2 * n),
    }[space.family]


def _colorings(parents, deg, has_root_leg):
    """Colorings compatible with monotonicity, assigned in vertex order.

    Along any downward path the scaling pattern is infinite*, colored,
    zero*; the top vertex 0 is colored or infinite.  Infinite-scaling
    vertices never carry legs, so any such vertex that cannot reach
    valence three from edges alone (plus leg 0 when it carries the root
    leg) is hopeless and pruned here; the root vertex of a scaled
    parametrized curve is exempt from stability and gets a pass.
    """
    colors = [None] * len(parents)

    def feasible_inf(x):
        if x == 0:
            return not has_root_leg or deg[0] + 1 >= 3
        return deg[x] >= 3

    def rec(x):
        if x == len(parents):
            yield dict(enumerate(colors))
            return
        p = parents[x]
        if p is None:
            options = (Color.COLORED, Color.INFINITY)
        elif colors[p] is Color.INFINITY:
            options = (Color.INFINITY, Color.COLORED)
        else:
            options = (Color.ZERO,)
        for c in options:
            if c is Color.INFINITY and not feasible_inf(x):
                continue
            colors[x] = c
            yield from rec(x + 1)

    yield from rec(0)


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


def _candidates(space, parents):
    """Candidate graphs on one rooted shape, hung from vertex 0: the root
    of ``fm`` and ``scaled``, the holder of leg 0 for ``mult``.  The
    modular kind ignores the root, so its shapes repeat up to
    isomorphism; the caller's key map removes the repeats."""
    n = space.n
    v = len(parents)
    labels = range(1, n + 1)
    edges = [(p, x) for x, p in enumerate(parents) if p is not None]
    deg = [parents.count(x) + (p is not None) for x, p in enumerate(parents)]
    kind = space.graph_kind

    if kind in (Kind.MODULAR, Kind.ROOTED_FOREST):
        root = 0 if kind is Kind.ROOTED_FOREST else None
        minima = {x: 0 if x == root else max(0, 3 - deg[x]) for x in range(v)}
        slots = list(range(v))
        decor = dict.fromkeys(slots)
        for counts in _count_vectors(slots, minima, n):
            for assign in _label_assignments(slots, counts, labels):
                yield MarkedGraph(kind, decor, edges, assign, root)
        return

    has_root_leg = kind is Kind.COLORED_TREE
    root = None if has_root_leg else 0
    for coloring in _colorings(parents, deg, has_root_leg):
        slots = [x for x in range(v) if coloring[x] is not Color.INFINITY]
        minima = {}
        for x in slots:
            need = 2 if coloring[x] is Color.COLORED else 3
            bonus = 1 if (x == 0 and has_root_leg) else 0
            exempt = kind is Kind.ROOTED_COLORED_TREE and x == 0
            minima[x] = 0 if exempt else max(0, need - deg[x] - bonus)
        if sum(minima.values()) > n:
            continue
        for counts in _count_vectors(slots, minima, n):
            for assign in _label_assignments(slots, counts, labels):
                legs = {**assign, 0: 0} if has_root_leg else assign
                yield MarkedGraph(kind, coloring, edges, legs, root)


def brute_force_strata(space):
    """Strata of ``space`` by exhaustive generation, as a canonical-key map."""
    if space.n > 6:
        raise TooLarge("brute force is guarded at n <= 6")
    found = {}
    for v in range(1, _max_vertices(space) + 1):
        for parents in _rooted_shapes(v):
            for g in _candidates(space, parents):
                if validate(g):
                    continue
                if not is_stable(g):
                    continue
                found[canonical_key(g)] = g
    return found
