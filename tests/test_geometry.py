"""Oracles for the strata counts derived from the geometry alone.

Schröder's equation: a stratum of M0(n) is a tree with the leg n at its
root, the legs 1..n-1 at its leaves and every vertex of valence at
least three.  Let T(x, y) count the rooted subtrees, x marking a leg
and y an internal edge: a subtree is one leg or a vertex over at least
two subtrees, so T = x + y (e^T - 1 - T).  The root vertex carries no
edge above it, so F = e^T - 1 - T counts the strata, and
(n-1)! [x^(n-1) y^c] F is the number of codimension-c strata of M0(n)
(Flajolet & Sedgewick, *Analytic Combinatorics*, ch. II).  The series
is solved here as a fixed point over Fractions and shares no code with
the enumeration's recursions.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from treelevel.cones import classify_cone
from treelevel.linalg import det, frac_rank
from treelevel.strata import (
    FM,
    M0,
    MULT,
    SCALED,
    closure_poset,
    count_strata,
    enumerate_strata,
)

MAX_N = 12
X_CAP = MAX_N - 1

# OEIS A000311 at n - 1 legs: the total number of strata of M0(n)
SCHROEDER_TOTALS = {3: 1, 4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208,
                    9: 660032, 10: 12818912, 11: 282137824,
                    12: 6939897856}


def _poly_mul(a, b):
    out = {}
    for i, c in a.items():
        for j, d in b.items():
            out[i + j] = out.get(i + j, 0) + c * d
    return out


def _poly_add(acc, a, factor=1):
    for i, c in a.items():
        acc[i] = acc.get(i, 0) + factor * c


def _exp(t):
    """exp(t) for t without constant term, through the last power of x
    that t holds, from e' = t' e; a series is the list of its x
    coefficients, Laurent polynomials in y."""
    e = [{0: Fraction(1)}]
    for n in range(1, len(t)):
        acc = {}
        for k in range(1, n + 1):
            _poly_add(acc, _poly_mul(t[k], e[n - k]), Fraction(k, n))
        e.append(acc)
    return e


def schroeder_series():
    """F = e^T - 1 - T with T = x + y F, through x^X_CAP."""
    f = [{} for _ in range(X_CAP + 1)]
    # each pass fixes one more power of x
    for _ in range(X_CAP + 1):
        t = [{}, {0: Fraction(1)}] + [{} for _ in range(X_CAP - 1)]
        for n, fn in enumerate(f):
            _poly_add(t[n], {c + 1: v for c, v in fn.items()})
        e = _exp(t)
        f = [{}]
        for en, tn in zip(e[1:], t[1:]):
            fn = dict(en)
            _poly_add(fn, tn, -1)
            f.append({c: v for c, v in fn.items() if v})
    return f


@pytest.fixture(scope="module")
def schroeder():
    return schroeder_series()


@pytest.mark.parametrize("n", range(3, MAX_N + 1))
def test_m0_fvector_solves_schroeders_equation(n, schroeder):
    counts = {c: v * math.factorial(n - 1)
              for c, v in sorted(schroeder[n - 1].items())}
    assert all(v.denominator == 1 for v in counts.values())
    fvector = {c: int(v) for c, v in counts.items()}
    assert count_strata(M0(n)) == fvector
    assert sum(fvector.values()) == SCHROEDER_TOTALS[n]


# -- one functional equation per family ----------------------------------

FAMILY_N = 9

# the total number of strata of mult(n), n = 1..9
MULT_TOTALS = {1: 1, 2: 3, 3: 18, 4: 170, 5: 2208, 6: 36648, 7: 742528,
               8: 17794736, 9: 492879008}


def _times_y(series, k):
    """``series`` times y^k."""
    return [{c + k: v for c, v in sn.items()} for sn in series]


def _plus(a, b, factor=1):
    """a + factor * b, through the last power of x that a holds."""
    out = [dict(an) for an in a]
    for on, bn in zip(out, b):
        _poly_add(on, bn, factor)
    return [{c: v for c, v in on.items() if v} for on in out]


def family_series(schroeder):
    """The exponential generating series of each family's strata,
    through x^FAMILY_N, x marking a leg and y the codimension.

    B = x + y (e^B - 1 - B) counts the bubble trees hanging from an
    edge; it is Schröder's T.  C = y^-1 (e^B - 1) + (e^(yC) - 1 - yC)
    counts the colored branches: a colored vertex over legs and bubble
    trees, or an infinite vertex over at least two colored branches; y
    counts edges and y^-1 each colored vertex, the codimension being
    edges + 1 - #colored.  fm is e^B, mult is yC and scaled is
    e^B + y e^(yC): a colored root, or an infinite root over any
    number of colored branches.
    """
    b = [{}, {0: Fraction(1)}] + [{} for _ in range(FAMILY_N - 1)]
    b = _plus(b, _times_y(schroeder[:FAMILY_N + 1], 1))
    e_b = _exp(b)
    colored_vertex = [{}] + _times_y(e_b[1:], -1)
    c = [{} for _ in range(FAMILY_N + 1)]
    # each pass fixes one more power of x
    for _ in range(FAMILY_N + 1):
        yc = _times_y(c, 1)
        infinite = _plus(_exp(yc), yc, -1)
        infinite[0] = {}
        c = _plus(colored_vertex, infinite)
    yc = _times_y(c, 1)
    return {"fm": e_b, "mult": yc,
            "scaled": _plus(e_b, _times_y(_exp(yc), 1))}


@pytest.fixture(scope="module")
def families(schroeder):
    return family_series(schroeder)


@pytest.mark.parametrize(
    "space", [FM(n) for n in range(FAMILY_N + 1)]
    + [MULT(n) for n in range(1, FAMILY_N + 1)]
    + [SCALED(n) for n in range(FAMILY_N + 1)], ids=str)
def test_fvector_solves_its_family_equation(space, families):
    counts = {c: v * math.factorial(space.n)
              for c, v in sorted(families[space.family][space.n].items())}
    assert all(v.denominator == 1 for v in counts.values())
    fvector = {c: int(v) for c, v in counts.items()}
    assert count_strata(space) == fvector
    if space.family == "mult":
        assert sum(fvector.values()) == MULT_TOTALS[space.n]


# -- cone faces are the strata above -------------------------------------
#
# The gluing cone of a stratum S of codimension c lives in the
# character lattice of its local toric chart, so by the orbit-cone
# correspondence (Cox, Little & Schenck, *Toric Varieties*, Thm 3.2.6)
# its faces of dimension j match the strata D with S in the closure of
# D, S included, of codimension c - j.  The face lattice comes from the
# rays alone and the strata above from closure_poset's collapses, so
# this ties cones to morphisms.

def face_counts(rays):
    """Faces of dimension j of the pointed full-dimensional cone over
    ``rays``, for each j: a facet is spanned by rays on a hyperplane
    with every ray on one side of it, and the faces are the cone and the
    intersections of facets."""
    c = len(rays[0])
    facets = set()
    for subset in itertools.combinations(rays, c - 1):
        # the cofactors span the null space of a rank c - 1 subset
        normal = [(-1) ** j * det([r[:j] + r[j + 1:] for r in subset])
                  for j in range(c)]
        if not any(normal):
            continue
        sides = [sum(a * b for a, b in zip(normal, r)) for r in rays]
        if min(sides) >= 0 or max(sides) <= 0:
            facets.add(frozenset(i for i, x in enumerate(sides) if x == 0))
    faces = set(facets)
    new = facets
    while new:
        new = {a & b for a in new for b in facets} - faces
        faces |= new
    faces.add(frozenset(range(len(rays))))
    return Counter(frac_rank([rays[i] for i in f]) if f else 0
                   for f in faces)


def strata_above(poset):
    """Each stratum's key to the keys of the strata whose closure holds
    it, itself included: the transitive closure of the covers."""
    above = {}

    def walk(k):
        if k not in above:
            above[k] = frozenset({k}).union(*map(walk, poset.covers[k]))
        return above[k]

    for k in poset.strata:
        walk(k)
    return above


@pytest.mark.parametrize(
    "space", [MULT(3), MULT(4), SCALED(3), SCALED(4),
              pytest.param(MULT(5), marks=pytest.mark.slow)], ids=str)
def test_cone_faces_are_the_strata_above(space):
    poset = closure_poset(space)
    above = strata_above(poset)
    checked = 0
    for k, g in poset.strata.items():
        c = poset.codim[k]
        if c < 2:
            continue
        rays = classify_cone(g).rays
        assert face_counts(rays) == Counter(c - poset.codim[d]
                                            for d in above[k]), g
        checked += 1
    assert checked


# -- Keel's Poincaré polynomials -----------------------------------------
#
# The open M_0,k has E-polynomial prod_{j=2..k-2} (q - j) (Getzler,
# "Operads and moduli spaces of genus 0 Riemann surfaces", 1995), and a
# stratum of M0(n) is the product of the open moduli of its vertices.
# Summed over the strata, this must equal Keel's recursion P_3 = 1,
# P_{n+1} = (1 + q) P_n + (q/2) sum_{j=2..n-2} C(n, j) P_{j+1} P_{n-j+1}
# (Keel, Trans. AMS 330, 1992).  Unlike a count, this reads the valence
# of every vertex of every stratum.

KEEL = {3: [1], 4: [1, 1], 5: [1, 5, 1], 6: [1, 16, 16, 1],
        7: [1, 42, 127, 42, 1]}


def _coeffs(poly):
    """The coefficient list of a polynomial in q given as {power: c}."""
    return [poly.get(i, 0) for i in range(max(poly) + 1)]


def keel_polynomials(top):
    """Keel's P_3..P_top as {power of q: coefficient}."""
    p = {3: {0: 1}}
    for n in range(3, top):
        nxt = _poly_mul({0: 1, 1: 1}, p[n])
        half = {}
        for j in range(2, n - 1):
            _poly_add(half, _poly_mul(p[j + 1], p[n - j + 1]),
                      math.comb(n, j))
        assert all(c % 2 == 0 for c in half.values())
        _poly_add(nxt, {i + 1: c // 2 for i, c in half.items()})
        p[n + 1] = nxt
    return p


@pytest.mark.parametrize("n", sorted(KEEL))
def test_m0_strata_sum_to_keels_polynomial(n):
    total = {}
    for g in enumerate_strata(M0(n)):
        e = {0: 1}
        for k in g.valences().values():
            for j in range(2, k - 1):
                e = _poly_mul(e, {0: -j, 1: 1})
        _poly_add(total, e)
    assert _coeffs(total) == KEEL[n]
    assert _coeffs(keel_polynomials(n)[n]) == KEEL[n]


# -- the diamond property ------------------------------------------------
#
# Each rank-2 interval of a closure poset, a stratum and a stratum two
# collapses up from it, has exactly two strata in between: the face
# lattice of a cone has this property (Ziegler, *Lectures on Polytopes*,
# ch. 2), and it is the only oracle here that reaches the m0 and fm
# posets.

DIAMOND_SPACES = ([M0(n) for n in range(3, 6)] + [FM(n) for n in range(6)]
                  + [MULT(n) for n in range(1, 6)]
                  + [SCALED(n) for n in range(6)])


@pytest.mark.parametrize("space", DIAMOND_SPACES, ids=str)
def test_rank_two_intervals_are_diamonds(space):
    poset = closure_poset(space)
    middles = Counter()
    for k, ups in poset.covers.items():
        for m in ups:
            for top in poset.covers[m]:
                middles[k, top] += 1
    bad = [(poset.strata[k], poset.strata[top], c)
           for (k, top), c in middles.items() if c != 2]
    assert not bad, bad[0]


# -- real faces are polytope faces ---------------------------------------
#
# Call a stratum an interval stratum when the legs below each vertex form
# an interval of 1..n, the tree hung from leg 0 (from leg n on m0, whose
# legs below then lie in 1..n-1).  These strata are the faces of the real
# locus: Stasheff's associahedron for M0(n), whose f-vector is Kirkman
# and Cayley's dissection count C(n-3, k) C(n+k-1, k) / (k+1) (Cayley,
# "On the partitions of a polygon", 1891), and the multiplihedron J_n for
# mult(n) (Ma'u & Woodward, "Geometric realizations of the
# multiplihedra", Compositio Math. 146, 2010; its vertex counts are OEIS
# A121988).  The codimension is read off the tree: the edge count on m0,
# and edges + 1 - #colored on mult.  Each f-vector obeys Euler-Poincaré,
# sum over faces of (-1)^dim = 1 (Ziegler, *Lectures on Polytopes*, 8.1).

REAL_FACES = {
    M0(4): [1, 2], M0(5): [1, 5, 5], M0(6): [1, 9, 21, 14],
    M0(7): [1, 14, 56, 84, 42], M0(8): [1, 20, 120, 300, 330, 132],
    MULT(1): [1], MULT(2): [1, 2], MULT(3): [1, 6, 6],
    MULT(4): [1, 13, 32, 21], MULT(5): [1, 25, 110, 165, 80],
    MULT(6): [1, 46, 313, 788, 841, 322],
}


def is_interval_stratum(g):
    """Whether the legs below every vertex form an interval, the tree
    hung from the vertex holding the top leg."""
    top_leg = 0 if 0 in g.legs else max(g.legs)
    adj = g.adjacency()
    top = g.legs[top_leg]
    parent, order = {top: None}, [top]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    below = {v: set() for v in order}
    for l, v in g.legs.items():
        if l != top_leg:
            below[v].add(l)
    for v in reversed(order):
        legs = below[v]
        if legs and max(legs) - min(legs) + 1 != len(legs):
            return False
        if parent[v] is not None:
            below[parent[v]] |= legs
    return True


def real_face_counts(space):
    counts = Counter()
    for g in enumerate_strata(space):
        if is_interval_stratum(g):
            colored = sum(c.value == "colored" for c in g.color.values())
            counts[len(g.edges) + (1 - colored if g.color else 0)] += 1
    return [counts[c] for c in range(max(counts) + 1)]


@pytest.mark.parametrize("space", [
    pytest.param(s, marks=pytest.mark.slow) if s in (M0(8), MULT(6)) else s
    for s in REAL_FACES], ids=str)
def test_real_faces_are_polytope_faces(space, monkeypatch):
    # m0(8) lies past the default enumeration guard of 7
    monkeypatch.setenv("MODULI_MAX_N", "8")
    f = real_face_counts(space)
    assert f == REAL_FACES[space]
    dim = len(f) - 1
    assert sum((-1) ** (dim - c) * fc for c, fc in enumerate(f)) == 1
    if space.family == "m0":
        n = space.n
        assert f == [math.comb(n - 3, k) * math.comb(n + k - 1, k) // (k + 1)
                     for k in range(n - 2)]
