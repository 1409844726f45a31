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

import math
from fractions import Fraction

import pytest

from treelevel.strata import M0, count_strata

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
    """exp(t) through x^X_CAP for t without constant term, from e' = t' e;
    a series is the list of its x coefficients, polynomials in y."""
    e = [{0: Fraction(1)}]
    for n in range(1, X_CAP + 1):
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
