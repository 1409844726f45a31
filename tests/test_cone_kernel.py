"""The integer cone kernel against the plain Fraction Caratheodory test.

The reference below tries every linearly independent subset of the
generators and solves for its coefficients over Fractions; the kernel
in treelevel.linalg tries only bases of the span and reads signs off
integer determinants.  The two must agree on every input, including
zero, duplicate and parallel generators, rank-deficient spans,
non-pointed cones and Fraction targets.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelevel import linalg
from treelevel.errors import TooLarge
from treelevel.kirwan import _in_open_halfspace
from treelevel.linalg import cone_contains, det, extremal_rays, frac_rank, primitive

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


# -- reference: Caratheodory over all independent subsets, in Fractions --

def ref_rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        mat[rank] = [x / mat[rank][j] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][j] != 0:
                f = mat[i][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def ref_solve(vectors, target):
    """Coefficients of ``target`` over independent ``vectors``, or None."""
    m, k = len(target), len(vectors)
    aug = [[Fraction(vec[i]) for vec in vectors] + [Fraction(target[i])]
           for i in range(m)]
    row = 0
    for col in range(k):
        piv = next(i for i in range(row, m) if aug[i][col] != 0)
        aug[row], aug[piv] = aug[piv], aug[row]
        aug[row] = [x / aug[row][col] for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
    if any(aug[i][k] != 0 for i in range(row, m)):
        return None
    return tuple(aug[i][k] for i in range(k))


def ref_cone_contains(target, generators):
    if all(x == 0 for x in target):
        return True
    gens = [g for g in generators if any(x != 0 for x in g)]
    for size in range(1, min(len(gens), ref_rank(gens) if gens else 0) + 1):
        for subset in itertools.combinations(gens, size):
            if ref_rank(subset) < size:
                continue
            coeffs = ref_solve(subset, target)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def ref_extremal_rays(rays):
    distinct = sorted({primitive(r) for r in rays})
    return [r for i, r in enumerate(distinct)
            if not ref_cone_contains(r, distinct[:i] + distinct[i + 1:])]


def ref_in_open_halfspace(weights):
    s = len(weights[0])
    if any(all(x == 0 for x in w) for w in weights):
        return False
    for size in range(1, min(len(weights), s + 1) + 1):
        for subset in itertools.combinations(weights, size):
            lifted = [tuple(w) + (1,) for w in subset]
            if ref_rank(lifted) < size:
                continue
            coeffs = ref_solve(lifted, (0,) * s + (1,))
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return False
    return True


def leibniz_det(mat):
    k = len(mat)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


# -- inputs --

small = st.integers(-3, 3)


@st.composite
def generator_sets(draw, max_dim=4, max_gens=7):
    """Generators spanning a subspace of a random rank, with zero,
    duplicate and parallel (positive and negative) copies mixed in."""
    dim = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, dim))
    basis = draw(st.lists(st.tuples(*[small] * dim), min_size=k, max_size=k))

    def in_span():
        coeffs = draw(st.lists(small, min_size=k, max_size=k))
        return tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                     for i in range(dim))

    gens = []
    for _ in range(draw(st.integers(0, max_gens))):
        kind = draw(st.sampled_from(["span", "span", "zero", "copy", "parallel"]))
        if kind == "zero" or (kind in ("copy", "parallel") and not gens):
            gens.append((0,) * dim)
        elif kind == "span":
            gens.append(in_span())
        else:
            g = draw(st.sampled_from(gens))
            f = 1 if kind == "copy" else draw(st.sampled_from([-2, -1, 2, 3]))
            gens.append(tuple(f * x for x in g))
    free = draw(st.booleans())
    target = draw(st.tuples(*[small] * dim)) if free else in_span()
    den = draw(st.sampled_from([1, 1, 2, 3]))
    target = tuple(Fraction(x, den) if den > 1 else x for x in target)
    return gens, target


class TestAgainstFractionCaratheodory:
    @SETTINGS
    @given(generator_sets())
    def test_cone_contains(self, data):
        gens, target = data
        assert cone_contains(target, gens) == ref_cone_contains(target, gens)

    @SETTINGS
    @given(generator_sets())
    def test_cone_contains_generators_and_negatives(self, data):
        gens, _ = data
        for g in gens:
            assert cone_contains(g, gens)
            neg = tuple(-x for x in g)
            assert cone_contains(neg, gens) == ref_cone_contains(neg, gens)

    @SETTINGS
    @given(generator_sets())
    def test_extremal_rays(self, data):
        gens, _ = data
        rays = [g for g in gens if any(g)]
        assert extremal_rays(rays) == ref_extremal_rays(rays)

    @SETTINGS
    @given(generator_sets(max_dim=3))
    def test_open_halfspace(self, data):
        gens, _ = data
        if gens:
            assert _in_open_halfspace(gens) == ref_in_open_halfspace(gens)

    @SETTINGS
    @given(generator_sets())
    def test_rank(self, data):
        gens, target = data
        assert frac_rank(gens) == ref_rank(gens)
        assert frac_rank(gens + [target]) == ref_rank(gens + [target])

    @SETTINGS
    @given(st.integers(0, 4).flatmap(
        lambda k: st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    def test_det(self, mat):
        assert det(mat) == leibniz_det(mat)


def test_fraction_targets_scale_away():
    assert not cone_contains((Fraction(-1, 3),), [(2,)])
    assert cone_contains((Fraction(1, 2), Fraction(1, 3)), [(1, 0), (0, 1)])
    assert cone_contains((1, 1), [(Fraction(1, 2), 0), (0, Fraction(2, 3))])


def test_basis_guard_counts_bases_of_the_span(monkeypatch):
    # five nonzero generators spanning a plane, and a zero one: C(5, 2) = 10
    gens = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 0), (1, 3, 0)]
    monkeypatch.setattr(linalg, "MAX_CONE_BASES", 10)
    assert cone_contains((1, 2, 0), gens)
    monkeypatch.setattr(linalg, "MAX_CONE_BASES", 9)
    with pytest.raises(TooLarge, match="10 bases"):
        cone_contains((1, 2, 0), gens)
