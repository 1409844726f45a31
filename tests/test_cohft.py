import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from treelevel import cohft
from treelevel.cohft import (
    CohFTAlgebra,
    Morphism,
    Trace,
    algebra_from_terms,
    as_vector,
    bilinear_form,
    check_associativity,
    check_isometry,
    check_star_morphism,
    compose_trace,
    derivative,
    generic_point,
    identity_morphism,
    morphism_from_terms,
    potential,
    pp_family_from,
    push_forward,
    random_even_algebra,
    random_flat_morphism,
    random_trace,
    small_quantum_projective,
    solve_qde,
    star_product,
    trace_from_terms,
)
from treelevel.errors import (
    CurvedMorphismUnsupported,
    DegenerateQDE,
    InvalidArgument,
    MissingArity,
)
from treelevel.series import Series, SeriesRing


def ring1(t_cap=5):
    return SeriesRing(tvars=["t0"], t_cap=t_cap)


class TestStarProduct:
    def test_mu2_only_is_v_independent(self):
        r = SeriesRing(tvars=["t0", "t1"], t_cap=4)
        alg = algebra_from_terms(r, ("1", "x"),
                                 [((0, 0), 0, 1), ((0, 1), 1, 1),
                                  ((1, 1), 0, 1)])
        at_zero = star_product(alg, [r.zero(), r.zero()], 1, 1)
        at_generic = star_product(alg, generic_point(r, 2), 1, 1)
        assert at_zero == at_generic

    def test_small_quantum_p1(self):
        alg = small_quantum_projective(2)
        r = alg.ring
        out = star_product(alg, [r.zero(), r.zero()], 1, 1)
        assert out[0] == r.q_power(1) and out[1].is_zero()

    def test_mu3_linear_in_v(self):
        r = SeriesRing(tvars=["t0"], t_cap=3)
        alg = algebra_from_terms(r, ("e",),
                                 [((0, 0), 0, 1), ((0, 0, 0), 0, 6)])
        # e *_v e = e + 6 mu^3(e,e,v)/1! = 1 + 6v as coefficient
        out = star_product(alg, generic_point(r, 1), 0, 0)
        assert out[0] == r.one() + 6 * r.t(0)

    def test_missing_arity(self):
        r = ring1()
        alg = CohFTAlgebra(r, ("e",), {3: {(0, 0, 0): {0: r.one()}}})
        with pytest.raises(MissingArity):
            star_product(alg, [r.zero()], 0, 0)


class TestAssociativity:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_projective(self, k):
        ok, _ = check_associativity(small_quantum_projective(k))
        assert ok

    def test_commutative_associative_mu2(self):
        r = SeriesRing(tvars=["t0", "t1"], t_cap=3)
        alg = algebra_from_terms(r, ("1", "x"),
                                 [((0, 0), 0, 1), ((0, 1), 1, 1)])
        ok, _ = check_associativity(alg)
        assert ok

    def test_defect_reported(self):
        r = SeriesRing(tvars=["t0", "t1"], t_cap=3)
        bad = algebra_from_terms(r, ("1", "x"),
                                 [((0, 0), 0, 1), ((0, 1), 1, 2),
                                  ((1, 1), 1, 1)])
        ok, wit = check_associativity(bad)
        assert not ok
        assert wit["lhs"] != wit["rhs"]


# -- the checks from their definitions, one product or derivative per use --

def ref_associativity(alg):
    v = generic_point(alg.ring, alg.dim)
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        lhs = star_product(alg, v, star_product(alg, v, i, j), k)
        rhs = star_product(alg, v, i, star_product(alg, v, j, k))
        wit = cohft._witness(
            {"triple": (alg.basis[i], alg.basis[j], alg.basis[k])},
            lhs, rhs, alg.basis)
        if wit:
            return False, wit
    return True, None


def ref_star_morphism(phi, alg_v, alg_w):
    v = generic_point(phi.ring, phi.dim_v)
    w = push_forward(phi, v)
    for i, j in itertools.combinations_with_replacement(range(phi.dim_v), 2):
        lhs = derivative(phi, v, star_product(alg_v, v, i, j))
        rhs = star_product(alg_w, w, derivative(phi, v, i),
                           derivative(phi, v, j))
        wit = cohft._witness({"pair": (i, j)}, lhs, rhs, range(phi.dim_w))
        if wit:
            return False, wit
    return True, None


def ref_isometry(tau_v, tau_w, phi):
    v = generic_point(phi.ring, phi.dim_v)
    w = push_forward(phi, v)
    for i, j in itertools.combinations_with_replacement(range(phi.dim_v), 2):
        lhs = bilinear_form(tau_v, v, i, j)
        rhs = bilinear_form(tau_w, w, derivative(phi, v, i),
                            derivative(phi, v, j))
        wit = cohft._witness({"pair": (i, j)}, (lhs,), (rhs,))
        if wit:
            return False, wit
    return True, None


TABLE_SEEDS = range(30)


class TestTablesMatchDefinitions:
    """The table forms of the checks return the (ok, witness) of the
    nested definitions, failing first triple or pair included."""

    @pytest.mark.parametrize("seed", TABLE_SEEDS)
    def test_random_algebras_and_morphisms(self, seed):
        dim = 2 + seed % 2
        alg = random_even_algebra(seed, dim=dim, max_arity=3 + seed % 2)
        other = random_even_algebra(seed + 100, dim=dim, max_arity=3)
        phi = random_flat_morphism(seed, alg.ring, dim, dim, max_arity=3)
        ident = identity_morphism(alg.ring, dim)
        assert repr(check_associativity(alg)) == repr(ref_associativity(alg))
        for m, target in ((phi, other), (phi, alg), (ident, alg)):
            assert (repr(check_star_morphism(m, alg, target))
                    == repr(ref_star_morphism(m, alg, target)))

    def test_random_cases_include_failures(self):
        outcomes = []
        for seed in TABLE_SEEDS:
            alg = random_even_algebra(seed, dim=2 + seed % 2,
                                      max_arity=3 + seed % 2)
            outcomes.append(check_associativity(alg)[0])
        assert outcomes.count(False) >= 10

    @pytest.mark.parametrize("k", range(2, 7))
    def test_projective(self, k):
        alg = small_quantum_projective(k)
        assert check_associativity(alg) == ref_associativity(alg) \
            == (True, None)
        ident = identity_morphism(alg.ring, k)
        assert check_star_morphism(ident, alg, alg) \
            == ref_star_morphism(ident, alg, alg) == (True, None)

    @pytest.mark.parametrize("seed", range(10))
    def test_isometry(self, seed):
        r = SeriesRing(tvars=["t0", "t1"], t_cap=4)
        pp = [(p, b, Fraction(len(b) + 1, sum(p) + 1))
              for n in range(4)
              for p in itertools.combinations_with_replacement(range(2), 2)
              for b in itertools.combinations_with_replacement(range(2), n)]
        tau_w = trace_from_terms(r, 2, [], pp_terms=pp)
        phi = random_flat_morphism(seed, r, 2, 2, max_arity=3)
        tau_v = pp_family_from(tau_w, phi, bulk_max=3)
        for source in (tau_v, tau_w):
            assert (repr(check_isometry(source, tau_w, phi))
                    == repr(ref_isometry(source, tau_w, phi)))

    def test_associativity_takes_dim_squared_products(self, monkeypatch):
        # the table's products run through the private form that takes
        # the call's contraction memo, one memo for all of them
        calls = []
        product = cohft._star_product

        def counted(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(cohft, "_star_product", counted)
        assert check_associativity(small_quantum_projective(6)) == (True, None)
        assert len(calls) == 36
        assert len({id(args[-1]) for args in calls}) == 1


class TestMorphism:
    def test_identity(self):
        r = ring1()
        phi = identity_morphism(r, 1)
        v = generic_point(r, 1)
        assert push_forward(phi, v) == v
        assert derivative(phi, v, 0) == (r.one(),)

    def test_curved_constant(self):
        r = ring1()
        phi = Morphism(r, 1, 1, {}, (r.scalar(7),))
        assert push_forward(phi, generic_point(r, 1)) == (r.scalar(7),)
        assert not phi.flat

    def test_exponential_series(self):
        # phi^n(1,...,1) = 1 for all n gives phi(v) = sum v^n / n!
        r = ring1(t_cap=5)
        phi = morphism_from_terms(
            r, 1, 1, [(tuple([0] * n), 0, 1) for n in range(1, 6)])
        out = push_forward(phi, generic_point(r, 1))[0]
        for n in range(1, 6):
            assert out.coefficient(texp=(n,)) == Fraction(1, math.factorial(n))

    def test_star_morphism_identity_random(self):
        for seed in range(5):
            alg = random_even_algebra(seed, dim=2, max_arity=3)
            ok, _ = check_star_morphism(
                identity_morphism(alg.ring, 2), alg, alg)
            assert ok

    def test_shift_passes_double_fails(self):
        r = ring1()
        one_dim = algebra_from_terms(r, ("e",), [((0, 0), 0, 1)])
        shift = morphism_from_terms(r, 1, 1, [((0,), 0, 1)],
                                    phi0=[Fraction(1, 3)])
        ok, _ = check_star_morphism(shift, one_dim, one_dim)
        assert ok
        double = morphism_from_terms(r, 1, 1, [((0,), 0, 2)])
        ok, wit = check_star_morphism(double, one_dim, one_dim)
        assert not ok and wit is not None


class TestTrace:
    def test_potential(self):
        r = ring1()
        tr = trace_from_terms(r, 1, [((0, 0), 1)])
        assert potential(tr, generic_point(r, 1)) == r.t(0) ** 2 / 2

    def test_compose_identity(self):
        r = ring1()
        tr = trace_from_terms(r, 1, [((0, 0), 1), ((0, 0, 0), 2)])
        ct = compose_trace(tr, identity_morphism(r, 1), generic_point(r, 1))
        assert ct.substitution == potential(tr, generic_point(r, 1))
        assert ct.agree

    def test_compose_hand_example(self):
        # tau potential w^2/2 composed with phi(v) = v + v^2/2
        r = ring1(t_cap=4)
        tr = trace_from_terms(r, 1, [((0, 0), 1)])
        phi = morphism_from_terms(r, 1, 1, [((0,), 0, 1), ((0, 0), 0, 1)])
        ct = compose_trace(tr, phi, generic_point(r, 1))
        t = r.t(0)
        expected = t ** 2 / 2 + t ** 3 / 2 + t ** 4 / 8
        assert ct.substitution == expected
        assert ct.partition_sum == expected

    def test_compose_constant_only(self):
        r = ring1()
        tr = trace_from_terms(r, 1, [((), 5)])
        phi = morphism_from_terms(r, 1, 1, [((0,), 0, 1)])
        ct = compose_trace(tr, phi, generic_point(r, 1))
        assert ct.substitution == r.scalar(5)
        assert ct.agree

    def test_compose_curved(self):
        r = ring1(t_cap=3)
        tr = trace_from_terms(r, 1, [((0, 0), 1)])
        phi = morphism_from_terms(r, 1, 1, [((0,), 0, 1)],
                                  phi0=[Fraction(1, 2)])
        ct = compose_trace(tr, phi, generic_point(r, 1))
        t = r.t(0)
        assert ct.substitution == (t + r.scalar(Fraction(1, 2))) ** 2 / 2
        assert ct.agree

    @pytest.mark.parametrize("seed", range(8))
    def test_exponential_formula_random(self, seed):
        r = SeriesRing(tvars=["t0", "t1"], t_cap=6)
        phi = random_flat_morphism(seed, r, 2, 2, max_arity=4)
        tau = random_trace(seed + 50, r, 2, max_arity=5)
        assert compose_trace(tau, phi, generic_point(r, 2)).agree


class TestIsometry:
    def _setup(self):
        r = ring1(t_cap=4)
        pp = [((0, 0), tuple([0] * n), 1) for n in range(5)]
        tau_w = trace_from_terms(r, 1, [], pp_terms=pp)
        phi = morphism_from_terms(r, 1, 1, [((0,), 0, 1), ((0, 0), 0, 2)])
        return r, tau_w, phi

    def test_identity_isometry(self):
        r = ring1(t_cap=4)
        pp = [((0, 0), tuple([0] * n), 1) for n in range(4)]
        tau = trace_from_terms(r, 1, [], pp_terms=pp)
        ok, _ = check_isometry(tau, tau, identity_morphism(r, 1))
        assert ok

    def test_generated_family(self):
        r, tau_w, phi = self._setup()
        tau_v = pp_family_from(tau_w, phi, bulk_max=4)
        ok, _ = check_isometry(tau_v, tau_w, phi)
        assert ok

    def test_perturbation_caught(self):
        r, tau_w, phi = self._setup()
        tau_v = pp_family_from(tau_w, phi, bulk_max=4)
        broken = {n: dict(t) for n, t in tau_v.tau_pp.items()}
        key = sorted(broken[1])[0]
        broken[1][key] = broken[1][key] + 1
        ok, wit = check_isometry(Trace(r, 1, {}, broken), tau_w, phi)
        assert not ok and wit is not None

    def test_curved_unsupported(self):
        r, tau_w, _ = self._setup()
        curved = morphism_from_terms(r, 1, 1, [((0,), 0, 1)], phi0=[1])
        with pytest.raises(CurvedMorphismUnsupported):
            check_isometry(tau_w, tau_w, curved)
        with pytest.raises(CurvedMorphismUnsupported):
            pp_family_from(tau_w, curved, 2)

    def test_bilinear_form_values(self):
        r = ring1(t_cap=3)
        pp = [((0, 0), tuple([0] * n), 1) for n in range(4)]
        tau = trace_from_terms(r, 1, [], pp_terms=pp)
        g = bilinear_form(tau, generic_point(r, 1), 0, 0)
        # sum_n v^n / n! through the cap
        t = r.t(0)
        assert g == r.one() + t + t ** 2 / 2 + t ** 3 / 6


class TestQde:
    def test_p1_first_order(self):
        sol = solve_qde(small_quantum_projective(2), xi=1, q_cap=3)
        assert sol.residual_is_zero()
        s = sol.sigma
        assert s[0][0].coefficient(q=1, h=2) == -1
        assert s[0][1].coefficient(q=1, h=1) == 1
        assert s[1][0].coefficient(q=1, h=3) == -2
        assert s[1][1].coefficient(q=1, h=2) == 1

    def test_p1_second_order_frozen(self):
        # engine value cross-checked by hand: S_2 = X/(2h) + ad(X)/(4h^2)
        # + ad^2(X)/(8h^3) with X = A_1 S_1
        sol = solve_qde(small_quantum_projective(2), xi=1, q_cap=2)
        s = sol.sigma
        assert s[0][0].coefficient(q=2, h=4) == Fraction(-5, 4)
        assert s[0][1].coefficient(q=2, h=3) == Fraction(1, 2)
        assert s[1][0].coefficient(q=2, h=5) == Fraction(-3, 4)
        assert s[1][1].coefficient(q=2, h=4) == Fraction(1, 4)

    def test_classical_limit(self):
        sol = solve_qde(small_quantum_projective(3), xi=1, q_cap=0)
        for i in range(3):
            for j in range(3):
                expected = sol.ring.one() if i == j else sol.ring.zero()
                assert sol.sigma[i][j] == expected

    @pytest.mark.parametrize("k", [2, 3])
    def test_residual_zero(self, k):
        sol = solve_qde(small_quantum_projective(k), xi=1, q_cap=3)
        assert sol.residual_is_zero()

    def test_degenerate_rejected(self):
        # a q^0 quantum term: xi * xi = 1 makes the classical part
        # non-nilpotent
        r = SeriesRing(tvars=["t0", "t1"], t_cap=2, q_cap=2)
        alg = algebra_from_terms(r, ("1", "x"),
                                 [((0, 0), 0, 1), ((0, 1), 1, 1),
                                  ((1, 1), 0, 1)])
        with pytest.raises(DegenerateQDE):
            solve_qde(alg, xi=1, q_cap=2)

    def test_fractional_novikov(self):
        # teardrop-flavoured scalars: q exponents in (1/2)Z
        r = SeriesRing(tvars=["t0", "t1"], t_cap=2, q_denominator=2, q_cap=2)
        alg = algebra_from_terms(
            r, ("1", "x"),
            [((0, 0), 0, 1), ((0, 1), 1, 1),
             ((1, 1), 0, r.q_power(Fraction(1, 2)))])
        sol = solve_qde(alg, xi=1, q_cap=1)
        assert sol.residual_is_zero()
        assert sol.sigma[0][0].coefficient(q=Fraction(1, 2), h=2) != 0

    @pytest.mark.parametrize("dim,denom", [(2, 1), (3, 1), (4, 1), (2, 2),
                                           (3, 2), (4, 2)])
    def test_residual_zero_dense(self, dim, denom):
        sol = solve_qde(dense_qde_algebra(dim, denom), xi=1, q_cap=3)
        assert sol.residual_is_zero()

    def test_pinned_solutions(self):
        # the fundamental solutions of three families, hashed; recompute
        # QDE_SHA256 only for a deliberate change of the solver
        text = "\n".join(repr((sol.sigma, sol.classical))
                         for sol in qde_pin_solutions())
        assert hashlib.sha256(text.encode()).hexdigest() == QDE_SHA256


def dense_qde_algebra(dim, denom):
    """xi = e_1 acts by a seeded matrix: a strictly upper-triangular
    classical part A0 plus a full part at q^(1/denom)."""
    ring = SeriesRing(tvars=[f"t{i}" for i in range(dim)], t_cap=2,
                      q_denominator=denom, q_cap=1)
    rng = random.Random(10 * dim + denom)
    q1 = ring.q_power(Fraction(1, denom))
    terms = []
    for j in range(dim):
        for k in range(dim):
            c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            terms.append(((1, j), k, q1 * c))
            if k < j:
                terms.append(((1, j), k, Fraction(rng.randint(1, 5),
                                                  rng.randint(1, 3))))
    return algebra_from_terms(ring, tuple(f"e{i}" for i in range(dim)), terms)


def qde_pin_solutions():
    """P^1..P^5 through q^8; the dense family in dims 2..4 at q
    denominators 1 and 2 through q^3; P^3 with xi^4 = q^(1/8), the spec
    of the CLI's unprintable-coefficient test, through q^20."""
    out = [solve_qde(small_quantum_projective(k), xi=1, q_cap=8)
           for k in range(2, 7)]
    out += [solve_qde(dense_qde_algebra(dim, denom), xi=1, q_cap=3)
            for denom in (1, 2) for dim in (2, 3, 4)]
    ring = SeriesRing(tvars=[f"t{i}" for i in range(4)], q_denominator=8,
                      t_cap=6, q_cap=1)
    alg = algebra_from_terms(
        ring, tuple(f"xi^{i}" for i in range(4)),
        [((i, j), (i + j) % 4, ring.q_power(Fraction((i + j) // 4, 8)))
         for i in range(4) for j in range(4)])
    out.append(solve_qde(alg, xi=1, q_cap=20))
    return out


# SHA-256 of the solutions above, computed at 60c0deb before the solver
# was rewritten around one matrix product
QDE_SHA256 = "c7781349c71e6fce9552e4f2a94fc5c2a0bb5f9833c1fd5af3f3bb9787202711"


# -- the sparse solver kernels against the dense ones they replaced --

def dense_mat_mul(a, b):
    """The product a b, a convolution over the hbar powers."""
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = {}
            for x, y in zip(row, col):
                if x and y:
                    for h1, c1 in x.items():
                        for h2, c2 in y.items():
                            acc[h1 + h2] = acc.get(h1 + h2, 0) + c1 * c2
            out_row.append({h: c for h, c in acc.items() if c})
        out.append(out_row)
    return out


def dense_mat_add(a, b, sign=1):
    """a + sign b."""
    return [[{h: c for h in x.keys() | y.keys()
              if (c := x.get(h, 0) + sign * y.get(h, 0))}
             for x, y in zip(a_row, b_row)] for a_row, b_row in zip(a, b)]


def to_dense(m, dim):
    return [[m.get((i, j), {}) for j in range(dim)] for i in range(dim)]


def to_sparse(rows):
    """The stored entries of a dense matrix; a sparse kernel's result
    must equal this exactly, so it may store no empty entry."""
    return {(i, j): e for i, row in enumerate(rows)
            for j, e in enumerate(row) if e}


def random_matrix(rng, dim, density):
    """Entries with hbar^-1 powers 0..2 and coefficients in {-2, -1, 1,
    2}/{1, 2}, so that sums of products often cancel."""
    m = {}
    for i in range(dim):
        for j in range(dim):
            if rng.random() < density:
                m[i, j] = {h: Fraction(rng.choice((-2, -1, 1, 2)),
                                       rng.randint(1, 2))
                           for h in rng.sample(range(3), rng.randint(1, 2))}
    return m


class TestSparseKernels:
    def test_against_dense(self):
        rng = random.Random(2501)
        cancelled = 0
        for _ in range(600):
            dim = rng.randint(1, 5)
            a = random_matrix(rng, dim, rng.choice((0.0, 0.2, 0.5, 1.0)))
            b = random_matrix(rng, dim, rng.choice((0.0, 0.2, 0.5, 1.0)))
            da, db = to_dense(a, dim), to_dense(b, dim)
            product = dense_mat_mul(da, db)
            assert cohft._mat_mul(a, b) == to_sparse(product)
            for sign in (1, -1):
                assert (cohft._mat_add(a, b, sign)
                        == to_sparse(dense_mat_add(da, db, sign)))
            met = {(i, j) for (i, k) in a for (k2, j) in b if k == k2}
            cancelled += len(met - to_sparse(product).keys())
        assert cancelled > 0

    def test_sums_that_cancel(self):
        a = {(0, 0): {0: Fraction(1)}, (0, 1): {0: Fraction(1), 1: Fraction(2)}}
        b = {(0, 0): {0: Fraction(1)}, (1, 0): {0: Fraction(-1)}}
        # (0, 0): 1 - 1 - 2 hbar^-1 keeps only the hbar^-1 term
        assert cohft._mat_mul(a, b) == {(0, 0): {1: Fraction(-2)}}
        # and with no hbar^-1 term the whole entry cancels
        assert cohft._mat_mul({(0, 0): {0: Fraction(1)},
                               (0, 1): {0: Fraction(1)}}, b) == {}
        assert cohft._mat_add(a, a, -1) == {}
        assert cohft._mat_add(a, {(0, 1): {1: Fraction(-2)}}) == {
            (0, 0): {0: Fraction(1)}, (0, 1): {0: Fraction(1)}}

    def test_empty_factors(self):
        a = random_matrix(random.Random(7), 3, 1.0)
        assert cohft._mat_mul({}, a) == cohft._mat_mul(a, {}) == {}
        assert cohft._mat_add(a, {}) == cohft._mat_add({}, a) == a
        assert cohft._mat_add({}, a, -1) == {
            ij: {h: -c for h, c in e.items()} for ij, e in a.items()}
        assert cohft._mat_add({}, {}) == {}


# -- the witness against the subtracting form it replaced --

def subtracting_witness(head, lhs, rhs, components=None):
    for c, (x, y) in enumerate(zip(lhs, rhs)):
        diff = x - y
        if not diff.is_zero():
            if components is not None:
                head["component"] = components[c]
            key = min(diff.coeffs)
            return {**head, "exponent": key,
                    "lhs": x.coeffs.get(key, Fraction(0)),
                    "rhs": y.coeffs.get(key, Fraction(0))}
    return None


def test_witness_matches_subtraction():
    r = SeriesRing(tvars=["t0", "t1"], t_cap=3)
    keys = [((a, b), 0, 0) for a in range(3) for b in range(3 - a)]
    rng = random.Random(2502)

    def entry():
        return Series(r, {k: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for k in rng.sample(keys, rng.randint(0, 3))})

    found = 0
    for _ in range(500):
        lhs = tuple(entry() for _ in range(3))
        rhs = tuple(x if rng.random() < 0.7 else entry() for x in lhs)
        for components in (None, ("a", "b", "c")):
            wit = cohft._witness({"pair": (0, 1)}, lhs, rhs, components)
            assert wit == subtracting_witness({"pair": (0, 1)}, lhs, rhs,
                                              components)
            found += wit is not None
    assert 0 < found < 1000


# -- a bool is not an index --

BOOL_INDEX_CALLS = {
    "as-vector": lambda r, alg: as_vector(r, 2, True),
    "star-product": lambda r, alg: star_product(
        alg, generic_point(r, 2), False, 1),
    "mu-inputs": lambda r, alg: algebra_from_terms(
        r, ("1", "x"), [((False, True), 0, 1)]),
    "mu-output": lambda r, alg: algebra_from_terms(
        r, ("1", "x"), [((0, 1), True, 1)]),
    "phi-output": lambda r, alg: morphism_from_terms(
        r, 2, 2, [((0,), False, 1)]),
    "tau-inputs": lambda r, alg: trace_from_terms(r, 2, [((True,), 1)]),
    "tau-pp-points": lambda r, alg: trace_from_terms(
        r, 2, [], pp_terms=[((0, True), (), 1)]),
    "pairs": lambda r, alg: check_star_morphism(
        identity_morphism(r, 2), alg, alg, pairs=[(True, 0)]),
    "qde-xi": lambda r, alg: solve_qde(alg, xi=True, q_cap=1),
}


@pytest.mark.parametrize("call", BOOL_INDEX_CALLS.values(),
                         ids=BOOL_INDEX_CALLS.keys())
def test_bool_index_refused(call):
    r = SeriesRing(tvars=["t0", "t1"], t_cap=2, q_cap=1)
    alg = algebra_from_terms(r, ("1", "x"),
                             [((0, 0), 0, 1), ((0, 1), 1, 1),
                              ((1, 1), 0, r.q_power(1))])
    with pytest.raises(InvalidArgument, match="is not an integer"):
        call(r, alg)
