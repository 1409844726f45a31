"""Shared test helpers: the exhaustive isomorphism oracle."""

import itertools


def bijection_isomorphic(a, b):
    """Label/decoration/root-preserving isomorphism by brute force."""
    if a.kind != b.kind:
        return False
    va, vb = a.vertex_ids, b.vertex_ids
    if len(va) != len(vb) or sorted(a.legs) != sorted(b.legs):
        return False
    edges_b = sorted(tuple(sorted(e)) for e in b.edges)
    for perm in itertools.permutations(vb):
        f = dict(zip(va, perm))
        if a.root is not None and f[a.root] != b.root:
            continue
        if any(a.color.get(v) != b.color.get(f[v]) for v in va):
            continue
        if any(f[a.legs[l]] != b.legs[l] for l in a.legs):
            continue
        edges_a = sorted(tuple(sorted((f[x], f[y]))) for x, y in a.edges)
        if edges_a == edges_b:
            return True
    return False
