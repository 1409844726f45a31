"""Exact integer linear algebra used by the cone and counting modules:
rank and determinant by fraction-free (Bareiss) elimination, the Smith
normal form with its right transform (the cones read the quotient
lattice off it), the Hermite form of a row lattice, cone membership
and extremal-ray filtering (the reference for the rays that the cones
read off the tree).

Rank, primitive vectors and cone membership accept Fraction entries
and clear their denominators once per vector, after which everything
runs over Python ints.  No floats anywhere.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import TooLarge

#: Most bases :func:`cone_contains` may try.  The test of a point tries
#: every basis of the span among the generators, C(#generators, rank) of
#: them.  A point outside the cone of 14 generators of rank 5, 2002
#: bases, takes about 0.1 s; :func:`extremal_rays` runs one test per
#: generator.
MAX_CONE_BASES = 2500


def _integral(vec):
    """``vec`` scaled by a positive integer into a tuple of ints.

    Positive scaling keeps ranks, spans and cone membership, so callers
    may hand in Fractions and work over the integers from here on.
    """
    if all(type(x) is int for x in vec):
        return tuple(vec)
    fracs = [Fraction(x) for x in vec]
    denom = math.lcm(*[f.denominator for f in fracs])
    return tuple(int(f * denom) for f in fracs)


def _bareiss(rows):
    """Fraction-free (Bareiss) row echelon form of integer rows.

    Returns the pivot columns, the last pivot and the sign of the row
    permutation.  Every intermediate entry is a minor of the input, so
    each division is exact, and on a square matrix of full rank the
    sign times the last pivot is the determinant.
    """
    a = [list(row) for row in rows]
    m = len(a)
    cols = len(a[0]) if a else 0
    pivots = []
    prev = sign = 1
    for j in range(cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, m) if a[i][j]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        p = top[j]
        for i in range(rank + 1, m):
            row = a[i]
            f = row[j]
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(j)
    return pivots, prev, sign


def frac_rank(rows):
    """Rank of a matrix given as a list of rows (ints or Fractions)."""
    return len(_bareiss([_integral(row) for row in rows])[0])


def cone_contains(target, generators):
    """Exact membership of ``target`` in the rational cone of the generators.

    By the conic Caratheodory theorem a point of the cone lies in the
    cone over a linearly independent subset of the generators, which
    extends to a basis of their span with zero coefficients.  So after
    an integer rank test for the span, only the bases are tried; each
    is read on r pivot coordinates (r the rank), where the signs of
    its coefficients come from integer determinants by Cramer's rule.
    Raises TooLarge when there are more than :data:`MAX_CONE_BASES`
    bases to try.
    """
    target = _integral(target)
    if not any(target):
        return True
    gens = [g for g in map(_integral, generators) if any(g)]
    if not gens:
        return False
    cols = _bareiss(gens)[0]
    rank = len(cols)
    bases = math.comb(len(gens), rank)
    if bases > MAX_CONE_BASES:
        raise TooLarge(f"cone membership would try {bases} bases, more "
                       f"than {MAX_CONE_BASES}")
    if len(_bareiss(gens + [target])[0]) > rank:
        return False
    # projecting onto the pivot coordinates is injective on the span
    t = tuple(target[j] for j in cols)
    gens = [tuple(g[j] for j in cols) for g in gens]
    for basis in itertools.combinations(gens, rank):
        d = det(basis)
        if d and all(d * det(basis[:i] + (t,) + basis[i + 1:]) >= 0
                     for i in range(rank)):
            return True
    return False


def primitive(vec):
    """The primitive integer vector on the ray of ``vec`` (nonzero input)."""
    ints = _integral(vec)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def extremal_rays(rays):
    """Subset of pairwise non-parallel rays not expressible over the others."""
    rays = [primitive(r) for r in rays]
    distinct = sorted(set(rays))
    out = []
    for i, r in enumerate(distinct):
        others = distinct[:i] + distinct[i + 1:]
        if not cone_contains(r, others):
            out.append(r)
    return out


def smith_normal_form(mat):
    """Smith form with its right transform: returns (D, V) with
    U*mat*V = D for a unimodular U that is not built.

    V is unimodular; D is diagonal with the nonzero entries first, each
    dividing the next.  Past the rank s of D, row i of V is the image of
    the i-th unit vector in Z^columns modulo the saturation of the row
    lattice, which is Z^(columns - s).  ``mat`` is a list of integer
    rows.
    """
    a = [list(map(int, row)) for row in mat]
    r = len(a)
    c = len(a[0]) if r else 0
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    def reduce_from(t):
        # pivot on a smallest nonzero entry of the trailing block and
        # clear its row and column, until the block is diagonal
        while t < min(r, c):
            # the first smallest in row-major order; V depends on it
            pivots = [(abs(a[i][j]), i, j) for i in range(t, r)
                      for j in range(t, c) if a[i][j]]
            if not pivots:
                return
            _, i, j = min(pivots)
            a[t], a[i] = a[i], a[t]
            for row in a + V:
                row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            top = a[t]
            p = top[t]
            # a row step touches only the columns where the pivot row is
            # nonzero, and never V
            nonzero = [j for j, y in enumerate(top) if y]
            dirty = False
            for i in range(t + 1, r):
                row = a[i]
                if row[t] != 0:
                    f = -(row[t] // p)
                    for j in nonzero:
                        row[j] += f * top[j]
                    if row[t] != 0:
                        dirty = True
            for j in range(t + 1, c):
                if top[j] != 0:
                    add_col(t, j, -(top[j] // p))
                    if top[j] != 0:
                        dirty = True
            if not dirty:
                t += 1

    reduce_from(0)
    # enforce the divisibility chain d_t | d_{t+1}
    changed = True
    while changed:
        changed = False
        for i in range(min(r, c) - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj and dj % di != 0:
                add_col(i + 1, i, 1)
                reduce_from(i)
                changed = True
                break
    return a, V


def row_hermite_form(rows):
    """Canonical Hermite basis of the integer row lattice of ``rows``.

    Equal outputs characterize equal row lattices, which is how the
    relation lattices of two labelled trees are compared.
    """
    mat = [list(map(int, r)) for r in rows if any(r)]
    if not mat:
        return ()
    cols = len(mat[0])
    i = 0
    for j in range(cols):
        piv = None
        for k in range(i, len(mat)):
            if mat[k][j] != 0:
                piv = k
                break
        if piv is None:
            continue
        mat[i], mat[piv] = mat[piv], mat[i]
        for k in range(i + 1, len(mat)):
            while mat[k][j] != 0:
                q = mat[i][j] // mat[k][j]
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[k])]
                mat[i], mat[k] = mat[k], mat[i]
        if mat[i][j] < 0:
            mat[i] = [-x for x in mat[i]]
        for k in range(i):
            q = mat[k][j] // mat[i][j]
            if q:
                mat[k] = [x - q * y for x, y in zip(mat[k], mat[i])]
        i += 1
    return tuple(tuple(r) for r in mat[:i] if any(r))


def det(mat):
    """Determinant of a square integer matrix, by Bareiss elimination."""
    pivots, last, sign = _bareiss(mat)
    return sign * last if len(pivots) == len(mat) else 0


def lattice_equivalent(rays_a, rays_b):
    """Whether two ray sets differ by a GL(d, Z) change of lattice basis.

    Brute force over images of one independent subset; the ray sets in
    play are tiny (a handful of rays in dimension at most five or so).
    """
    A = sorted({primitive(r) for r in rays_a})
    B = sorted({primitive(r) for r in rays_b})
    if len(A) != len(B):
        return False
    if not A:
        return True
    d = len(A[0])
    if len(B[0]) != d:
        return False
    basis = None
    for subset in itertools.combinations(range(len(A)), d):
        if frac_rank([A[i] for i in subset]) == d:
            basis = [A[i] for i in subset]
            break
    if basis is None:
        # degenerate span; compare spans and fall back to rank equality
        return frac_rank(A) == frac_rank(B)
    S = [list(col) for col in zip(*basis)]  # columns are the basis rays
    # S^{-1} = adj(S) / det(S), with adj(S)[i][j] the (j, i) cofactor
    D = det(S)
    adj = [[(-1) ** (i + j) * det([row[:i] + row[i + 1:]
                                   for k, row in enumerate(S) if k != j])
            for j in range(d)] for i in range(d)]
    for image in itertools.permutations(range(len(B)), d):
        T = [list(col) for col in zip(*[B[i] for i in image])]
        # U maps basis -> image: U = T * adj(S) / det(S), integral exactly
        # when det(S) divides every entry of T * adj(S)
        U = [[sum(T[i][k] * adj[k][j] for k in range(d)) for j in range(d)]
             for i in range(d)]
        if any(x % D for row in U for x in row):
            continue
        U = [[x // D for x in row] for row in U]
        if abs(det(U)) != 1:
            continue
        mapped = {tuple(sum(U[i][k] * a[k] for k in range(d))
                        for i in range(d)) for a in A}
        if mapped == set(B):
            return True
    return False
