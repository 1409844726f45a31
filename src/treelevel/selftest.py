"""The acceptance suite: one callable per criterion.

Each criterion returns (ok, detail).  The CLI ``selftest`` command and
the test module both run these; everything asserted here is exact, no
tolerances.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from . import cohft, divrel, kirwan
from .bruteforce import brute_force_strata
from .combis import bell, set_partitions, subsets
from .cones import classify_cone, relation_lattice
from .graphs import Color, canonical_key, colored_tree, rooted_colored_tree
from .linalg import lattice_equivalent, row_hermite_form
from .series import SeriesRing
from .strata import (
    FM,
    M0,
    MULT,
    SCALED,
    boundary_divisors,
    count_strata,
    enumerate_strata,
    mult_divisor_count,
    stratum_codimension,
    stratum_dimension,
)


def singular_cone_tree():
    """The four-colored tree whose gluing cone has four extremal rays in
    rank three: an infinite root-leg vertex over two infinite vertices,
    each carrying two colored leaves.  Edges are ordered so that the
    relations read gamma3 = gamma4, gamma1 gamma3 = gamma2 gamma5,
    gamma5 = gamma6 up to lattice equality."""
    return colored_tree(
        {0: Color.INFINITY, 1: Color.INFINITY, 2: Color.INFINITY,
         3: Color.COLORED, 4: Color.COLORED, 5: Color.COLORED,
         6: Color.COLORED},
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
        {0: 0, 1: 3, 2: 4, 3: 5, 4: 6})


def scaled_relations_tree():
    """Seven-marked scaled type with eight edges and four colored
    vertices: two infinite vertices hang off the infinite root, each
    with two colored components, and a zero-scaling chain hangs below
    the first colored vertex.  Edge order gamma1..gamma8."""
    return rooted_colored_tree(
        {0: Color.INFINITY, 1: Color.INFINITY, 2: Color.INFINITY,
         3: Color.COLORED, 4: Color.COLORED, 5: Color.COLORED,
         6: Color.COLORED, 7: Color.ZERO, 8: Color.ZERO},
        [(1, 3), (1, 4), (2, 5), (2, 6), (0, 1), (0, 2), (3, 7), (7, 8)],
        {1: 6, 2: 5, 3: 5, 4: 4, 5: 8, 6: 8, 7: 7},
        root=0)


def criterion_1():
    """Projective spaces: the presentation is xi^k = q for 2 <= k <= 6."""
    start = time.monotonic()
    for k in range(2, 7):
        act = kirwan.TorusAction([(1,)] * k, (1,))
        pres = kirwan.qh_presentation(act, 1)
        if pres.presentation_string() != f"xi^{k} = q":
            return False, f"k={k}: got {pres.presentation_string()}"
        rel = pres.ring_relation
        if rel.image_of_xi_power() != 1 or rel.q_exponent != 1:
            return False, f"k={k}: wrong image {rel}"
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        return False, f"took {elapsed:.2f}s (budget 1s)"
    return True, "xi^k = q for k = 2..6"


def criterion_2():
    """Teardrop: 4 xi^3 = q at degree one and the twisted relation
    2 xi^2 -> q^(1/2) 1_Z2 at degree one half."""
    act = kirwan.TorusAction([(1,), (2,)], (1,))
    pres = kirwan.qh_presentation(act, 1)
    by_degree = {rel.q_exponent: rel for rel in pres.relations}
    r1 = by_degree.get(Fraction(1))
    rh = by_degree.get(Fraction(1, 2))
    if r1 is None or rh is None:
        return False, "missing a degree"
    if r1.monomial() != "4*xi^3" or r1.image_of_xi_power() != Fraction(1, 4):
        return False, f"degree 1: {r1}"
    if r1.sector.twisted:
        return False, "degree 1 should be untwisted"
    if rh.monomial() != "2*xi^2" or rh.image_of_xi_power() != Fraction(1, 2):
        return False, f"degree 1/2: {rh}"
    if not (rh.sector.twisted and rh.sector.order == 2
            and rh.q_exponent == Fraction(1, 2)):
        return False, f"degree 1/2 sector: {rh.sector}"
    if "4*xi^3 = q" not in pres.presentation_string():
        return False, pres.presentation_string()
    return True, ("D0k(xi^3) = q/4, D0k(xi^2) = q^(1/2) 1_Z2 / 2, "
                  "presentation 4*xi^3 = q")


def criterion_3():
    """The singular example: rank 3, four extremal rays, not simplicial,
    lattice-equivalent to {e1, e2, e3, (1,-1,1)}."""
    cone = classify_cone(singular_cone_tree())
    if cone.ambient_rank != 3:
        return False, f"ambient rank {cone.ambient_rank}"
    if len(cone.rays) != 4:
        return False, f"{len(cone.rays)} rays"
    if cone.simplicial or cone.smooth:
        return False, "cone wrongly simplicial/smooth"
    target = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)]
    if not lattice_equivalent(cone.rays, target):
        return False, f"rays {cone.rays} not equivalent to {target}"
    return True, f"rank 3, rays {list(cone.rays)}, non-simplicial"


def criterion_4():
    """The scaled-relations tree: relation rank 3 with the printed
    relations, ambient rank 5 = codimension = 8 + 1 - 4."""
    g = scaled_relations_tree()
    rel = relation_lattice(g)
    if rel.rank != 3:
        return False, f"rank {rel.rank}"
    expected = [
        (1, -1, 0, 0, 0, 0, 0, 0),     # gamma1 = gamma2
        (0, 0, 1, -1, 0, 0, 0, 0),     # gamma3 = gamma4
        (1, 0, -1, 0, 1, -1, 0, 0),    # gamma1 gamma5 = gamma3 gamma6
    ]
    if row_hermite_form(rel.matrix) != row_hermite_form(expected):
        return False, f"relation lattice {rel.matrix}"
    cone = classify_cone(g)
    codim = stratum_codimension(g, SCALED(7))
    if cone.ambient_rank != 5 or codim != 5:
        return False, f"ambient {cone.ambient_rank}, codim {codim}"
    if len(g.edges) + 1 - 4 != 5:
        return False, "edge/colored arithmetic broke"
    return True, "relations {g1=g2, g3=g4, g1g5=g3g6}, rank 3, codim 5 = 8+1-4"


def criterion_5():
    """The two-marking scaled-line space: 3 strata, 2 divisors, a curve
    with two boundary points."""
    space = MULT(2)
    strata = enumerate_strata(space)
    divisors = boundary_divisors(space)
    if len(strata) != 3:
        return False, f"{len(strata)} strata"
    if len(divisors) != 2:
        return False, f"{len(divisors)} divisors"
    if space.ambient_dimension != 1:
        return False, f"ambient {space.ambient_dimension}"
    dims = sorted(d.dimension() for d in divisors)
    if dims != [0, 0]:
        return False, f"divisor dimensions {dims}"
    return True, "3 strata, 2 point divisors in a 1-dimensional space"


def _pullback_recount(n):
    lhs = sum(1 for p in set_partitions(range(1, n + 1), min_blocks=2)
              if divrel._separates(frozenset(p), 1, 2))
    rhs = sum(1 for I in subsets(range(1, n + 1), minsize=2)
              if {1, 2} <= set(I))
    return lhs, rhs


def criterion_6():
    """Forgetful classification realizes the divisor relation for
    n = 2, 3, 4 with all multiplicities one; counts match the direct
    recount."""
    details = []
    for n in (2, 3, 4):
        report = divrel.verify_multiplihedron_pullback(n)
        if not report.ok:
            return False, f"n={n}: {report.detail}"
        lhs, rhs = _pullback_recount(n)
        if (len(report.lhs), len(report.rhs)) != (lhs, rhs):
            return False, (f"n={n}: classified {len(report.lhs)}/"
                           f"{len(report.rhs)}, recount {lhs}/{rhs}")
        if any(c.multiplicity != 1 for c in report.lhs + report.rhs):
            return False, f"n={n}: multiplicity != 1"
        details.append(f"n={n}: {lhs}+{rhs}")
    return True, "; ".join(details)


# every space of every kind with n <= 5, for criteria 7 and 8
_SMALL_SPACES = (*(M0(k) for k in (3, 4, 5)), *(FM(k) for k in range(6)),
                 *(MULT(k) for k in range(1, 6)), *(SCALED(k) for k in range(6)))


def criterion_7():
    """dim + codim equals the ambient dimension on every stratum
    (n <= 5, all kinds); divisor count 2^n - n - 1 + Bell(n) - 1
    (n <= 6), both as listed divisors and as the codimension-1 entry of
    the f-vector."""
    checked = 0
    for sp in _SMALL_SPACES:
        for g in enumerate_strata(sp):
            if (stratum_dimension(g, sp) + stratum_codimension(g, sp)
                    != sp.ambient_dimension):
                return False, f"{sp}: identity fails on {g}"
            checked += 1
    for n in range(1, 7):
        want = mult_divisor_count(n)
        for got in (len(boundary_divisors(MULT(n))),
                    count_strata(MULT(n)).get(1, 0)):
            if got != want:
                return False, f"n={n}: {got} != {want}"
    return True, f"{checked} strata checked; divisor counts match"


def criterion_8():
    """Structural enumeration equals brute force for every kind, n <= 5."""
    start = time.monotonic()
    total = 0
    for sp in _SMALL_SPACES:
        main = {canonical_key(g) for g in enumerate_strata(sp)}
        oracle = set(brute_force_strata(sp))
        if main != oracle:
            return False, (f"{sp}: {len(main)} structural vs "
                           f"{len(oracle)} brute force")
        total += len(main)
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        return False, f"took {elapsed:.1f}s (budget 60s)"
    return True, f"{total} strata matched"


def criterion_9():
    """Associativity of the projective products; the derivative identity
    for the identity morphism (20 random algebras), the projective
    quotient morphism at the basepoint, and the one-dimensional shift;
    the doubled map fails with a witness."""
    for k in (2, 3, 4):
        ok, wit = cohft.check_associativity(cohft.small_quantum_projective(k))
        if not ok:
            return False, f"P^{k-1} associativity: {wit}"
    for seed in range(20):
        alg = cohft.random_even_algebra(seed, dim=3, max_arity=4, t_cap=3)
        phi = cohft.identity_morphism(alg.ring, alg.dim)
        ok, wit = cohft.check_star_morphism(phi, alg, alg)
        if not ok:
            return False, f"identity morphism, seed {seed}: {wit}"
    for k in (2, 3):
        ok, wit = _quotient_morphism_check(k)
        if not ok:
            return False, f"quotient morphism k={k}: {wit}"
    ring1 = SeriesRing(tvars=["t0"], t_cap=4)
    one_dim = cohft.algebra_from_terms(ring1, ("e",), [((0, 0), 0, 1)])
    shift = cohft.morphism_from_terms(
        ring1, 1, 1, [((0,), 0, 1)], phi0=[Fraction(1, 2)])
    ok, _ = cohft.check_star_morphism(shift, one_dim, one_dim)
    if not ok:
        return False, "v + c morphism failed"
    double = cohft.morphism_from_terms(ring1, 1, 1, [((0,), 0, 2)])
    ok, wit = cohft.check_star_morphism(double, one_dim, one_dim)
    if ok or wit is None:
        return False, "doubled map did not fail with a witness"
    return True, "associativity, identity/quotient/shift pass, 2*id fails"


def _quotient_morphism_check(k):
    m = 2 * (k - 1)
    ring = SeriesRing(tvars=[f"t{i}" for i in range(m + 1)], t_cap=2, q_cap=3)
    terms = [((i, j), i + j, 1)
             for i in range(m + 1) for j in range(i, m + 1) if i + j <= m]
    alg_v = cohft.algebra_from_terms(
        ring, tuple(f"x^{i}" for i in range(m + 1)), terms)
    w_terms = [((i, j), (i + j) % k, ring.q_power((i + j) // k))
               for i in range(k) for j in range(i, k)]
    alg_w = cohft.algebra_from_terms(
        ring, tuple(f"xi^{i}" for i in range(k)), w_terms)
    phi = cohft.morphism_from_terms(
        ring, m + 1, k,
        [((i,), i % k, ring.q_power(i // k)) for i in range(m + 1)])
    zero = [ring.zero()] * (m + 1)
    pairs = [(i, j)
             for i, j in itertools.combinations_with_replacement(range(m + 1), 2)
             if i + j <= m]
    return cohft.check_star_morphism(phi, alg_v, alg_w, v=zero, pairs=pairs)


def criterion_10():
    """Substitution and partition-sum potentials agree through order six
    on 20 random flat morphisms; the induced two-point family is an
    isometry and a perturbed coefficient is caught."""
    ring = SeriesRing(tvars=["t0", "t1"], t_cap=6)
    for seed in range(20):
        phi = cohft.random_flat_morphism(seed, ring, 2, 2, max_arity=4)
        tau = cohft.random_trace(seed + 1000, ring, 2, max_arity=5)
        ct = cohft.compose_trace(tau, phi, cohft.generic_point(ring, 2))
        if not ct.agree:
            return False, f"seed {seed}: routes disagree"
    ring1 = SeriesRing(tvars=["t0"], t_cap=4)
    pp = [((0, 0), tuple([0] * n), 1) for n in range(5)]
    tau_w = cohft.trace_from_terms(ring1, 1, [], pp_terms=pp)
    phi = cohft.morphism_from_terms(ring1, 1, 1, [((0,), 0, 1), ((0, 0), 0, 2)])
    tau_v = cohft.pp_family_from(tau_w, phi, bulk_max=4)
    ok, wit = cohft.check_isometry(tau_v, tau_w, phi)
    if not ok:
        return False, f"generated family is not an isometry: {wit}"
    perturbed = {n: dict(t) for n, t in tau_v.tau_pp.items()}
    key = sorted(perturbed[2])[0]
    perturbed[2][key] = perturbed[2][key] + 1
    tau_bad = cohft.Trace(ring1, 1, {}, perturbed)
    ok, wit = cohft.check_isometry(tau_bad, tau_w, phi)
    if ok or wit is None:
        return False, "perturbed family not caught"
    return True, "20 exponential-formula cases, isometry holds, defect caught"


def criterion_11():
    """The quantum differential recursion has exactly zero residual
    through q^3 for the projective line and plane, and its first
    correction matches the hand-run values."""
    sol1 = cohft.solve_qde(cohft.small_quantum_projective(2), xi=1, q_cap=3)
    if not sol1.residual_is_zero():
        return False, "projective line residual"
    # hand-run: S_1 = A_1/h + ad(A_1)/h^2 + ad^2(A_1)/h^3
    #         = [[-h^-2, h^-1], [-2 h^-3, h^-2]]
    expected = {
        (0, 0): [(Fraction(1), 2, Fraction(-1))],
        (0, 1): [(Fraction(1), 1, Fraction(1))],
        (1, 0): [(Fraction(1), 3, Fraction(-2))],
        (1, 1): [(Fraction(1), 2, Fraction(1))],
    }
    for (i, j), want in expected.items():
        got = [(qe, h, c) for (_, qe, h, c) in sol1.sigma[i][j].terms()
               if qe == 1]
        if got != want:
            return False, f"S_1[{i}][{j}] = {got}, expected {want}"
    sol2 = cohft.solve_qde(cohft.small_quantum_projective(3), xi=1, q_cap=3)
    if not sol2.residual_is_zero():
        return False, "projective plane residual"
    sol0 = cohft.solve_qde(cohft.small_quantum_projective(2), xi=1, q_cap=0)
    ident = all(
        sol0.sigma[i][j] == (sol0.ring.one() if i == j else sol0.ring.zero())
        for i in range(2) for j in range(2))
    if not ident:
        return False, "q_cap = 0 is not the identity"
    return True, ("residuals vanish through q^3; first correction "
                  "-q hbar^-2 on the identity component as hand-derived")


def criterion_12():
    """Fixed-scaling relation: Bell(n) scaling partitions, each of
    dimension n, for n <= 5."""
    for n in range(1, 6):
        report = divrel.rho_divisor_enumeration(n)
        if not report.ok:
            return False, f"n={n}: {report.detail}"
        if len(report.partitions) != bell(n):
            return False, f"n={n}: {len(report.partitions)} != Bell({n})"
    return True, "Bell counts and dimensions match for n = 1..5"


CRITERIA = [
    (1, "projective-space relations", criterion_1),
    (2, "teardrop relations", criterion_2),
    (3, "singular cone", criterion_3),
    (4, "scaled-relations consistency", criterion_4),
    (5, "two-marking geometry", criterion_5),
    (6, "forgetful divisor relation", criterion_6),
    (7, "dimension identity and divisor counts", criterion_7),
    (8, "enumeration oracle equivalence", criterion_8),
    (9, "products and morphism checks", criterion_9),
    (10, "trace composition and isometry", criterion_10),
    (11, "quantum differential equation", criterion_11),
    (12, "fixed-scaling enumeration", criterion_12),
]


def run_all(selected=None):
    """(number, name, ok, detail, milliseconds) for each selected
    criterion, in order."""
    results = []
    for num, name, fn in CRITERIA:
        if selected and num not in selected:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(err).__name__}: {err}"
        ms = (time.perf_counter() - start) * 1000
        results.append((num, name, ok, detail, ms))
    return results
