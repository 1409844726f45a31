import copy
import operator
import pickle
import random
import re
from fractions import Fraction

import pytest

from treelevel import cohft
from treelevel.errors import CapExceeded, InvalidArgument
from treelevel.series import Series, SeriesRing, _accumulate, _finish, dot


def ring():
    return SeriesRing(tvars=["x", "y"], q_denominator=2, t_cap=6, q_cap=2,
                      h_cap=3)


def random_series(rng, r, nterms=5):
    coeffs = {}
    for _ in range(nterms):
        texp = (rng.randint(0, 2), rng.randint(0, 2))
        key = (texp, rng.randint(0, 2), rng.randint(0, 1))
        coeffs[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Series(r, coeffs)


class TestArithmetic:
    def test_ring_constants(self):
        r = ring()
        assert (r.one() + r.one()) == r.scalar(2)
        assert r.zero().is_zero()
        assert r.scalar(Fraction(1, 2)) * 2 == r.one()

    def test_mul_associative_random(self):
        r = ring()
        rng = random.Random(0)
        for _ in range(25):
            f, g, h = (random_series(rng, r) for _ in range(3))
            assert (f * g) * h == f * (g * h)

    def test_mul_commutative_and_distributive(self):
        r = ring()
        rng = random.Random(1)
        for _ in range(25):
            f, g, h = (random_series(rng, r) for _ in range(3))
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h

    def test_leibniz(self):
        r = ring()
        rng = random.Random(2)
        for _ in range(25):
            f, g = random_series(rng, r), random_series(rng, r)
            # truncation commutes with d/dx because degree only drops
            lhs = (f * g).partial("x")
            rhs = f.partial("x") * g + f * g.partial("x")
            for key, val in lhs.coeffs.items():
                if sum(key[0]) < r.t_cap:  # inside the reliable window
                    assert rhs.coeffs.get(key, Fraction(0)) == val

    def test_substitution_associativity(self):
        r = SeriesRing(tvars=["x"], t_cap=6)
        x = r.t("x")
        f = x * x + 2 * x
        g = x + x * x
        h = x * 3
        inner = g.substitute({"x": h})
        assert f.substitute({"x": g}).substitute({"x": h}) == \
            f.substitute({"x": inner})

    def test_substitution_constant_term(self):
        r = SeriesRing(tvars=["x"], t_cap=4)
        f = r.t("x") ** 2
        shifted = f.substitute({"x": r.t("x") + r.one()})
        assert shifted == r.t("x") ** 2 + 2 * r.t("x") + r.one()

    def test_q_log_derivative(self):
        r = ring()
        s = r.q_power(Fraction(1, 2)) + r.q_power(2) * 3
        d = s.q_log_derivative()
        assert d.coefficient(q=Fraction(1, 2)) == Fraction(1, 2)
        assert d.coefficient(q=2) == 6

    def test_truncation(self):
        r = SeriesRing(tvars=["x"], t_cap=2)
        x = r.t("x")
        assert (x ** 3).is_zero()
        assert (x * x * x).is_zero()

    def test_fractional_q_exponent_rejected(self):
        r = SeriesRing(q_denominator=2, q_cap=2)
        r.q_power(Fraction(1, 2))
        with pytest.raises(ValueError):
            r.q_power(Fraction(1, 3))

    def test_q_cap_exceeded(self):
        r = SeriesRing(q_denominator=1, q_cap=2)
        with pytest.raises(CapExceeded):
            r.q_power(3)

    def test_hbar(self):
        r = ring()
        h = r.h_inv()
        assert (h * h * h * h).is_zero()  # beyond h_cap 3
        assert not (h * h * h).is_zero()

    def test_repr_readable(self):
        r = ring()
        s = r.scalar(Fraction(5, 2)) * r.q_power(Fraction(1, 2)) * r.t("x")
        assert repr(s) == "5/2*x*q^(1/2)"
        assert repr(r.zero()) == "0"


class TestNegativeCaps:
    @pytest.mark.parametrize("cap", ["t_cap", "q_cap", "h_cap"])
    def test_negative_cap_rejected(self, cap):
        with pytest.raises(InvalidArgument, match=cap):
            SeriesRing(tvars=["t0"], **{cap: -1})

    def test_negative_fractional_q_cap_rejected(self):
        with pytest.raises(InvalidArgument, match="q_cap"):
            SeriesRing(q_denominator=2, q_cap=Fraction(-1, 2))

    @pytest.mark.parametrize("size, value", [
        ("t_cap", 2.9), ("h_cap", 1.5), ("q_denominator", 2.5),
        ("t_cap", "2"), ("t_cap", True), ("q_denominator", True)])
    def test_non_integer_size_refused(self, size, value):
        # refused, not truncated to an integer or read as 1
        with pytest.raises(InvalidArgument,
                           match=f"^{size} {value!r} is not an integer$"):
            SeriesRing(tvars=["t0"], **{size: value})

    @pytest.mark.parametrize("tvars, message", [
        ("t0", "tvars 't0' is a string, not a list of names"),
        (["t0", "t0"], "tvars ('t0', 't0') repeat the name 't0'"),
        (["x", "y", "x"], "tvars ('x', 'y', 'x') repeat the name 'x'"),
        (5, "tvars 5 is not a list of names"),
    ], ids=["string", "repeated", "repeated-later", "not-iterable"])
    def test_bad_tvars_refused(self, tvars, message):
        # a bare string is not split into its characters, and a repeated
        # name would make ring.t(name) always mean its first index
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            SeriesRing(tvars=tvars, t_cap=2)

    def test_zero_caps_keep_the_constants(self):
        r = SeriesRing(tvars=["t0"], t_cap=0, q_cap=0, h_cap=0)
        assert r.one() * r.one() == r.one()


class TestRingImmutable:
    @pytest.mark.parametrize("field", ["tvars", "q_denominator", "t_cap",
                                       "q_cap_num", "h_cap", "extra"])
    def test_fields_cannot_be_set_or_deleted(self, field):
        r = SeriesRing(tvars=["t0"], t_cap=2)
        h = hash(r)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(r, field, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(r, field)
        assert hash(r) == h and r == SeriesRing(tvars=["t0"], t_cap=2)

    def test_copy_and_pickle_keep_the_ring(self):
        r = SeriesRing(tvars=["x", "y"], q_denominator=3, t_cap=4,
                       q_cap=Fraction(5, 3), h_cap=2)
        for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert c == r and hash(c) == hash(r)
            assert c.q_cap_num == 5 and c.tvars == ("x", "y")


def reference_mul(f, g):
    """The product as one Fraction operation per term pair: each pair's
    key is built, kept when it lies inside the caps, and its coefficient
    added to that key's running Fraction.  Zeros are dropped at the end.
    Returns the coefficient dict, in insertion order."""
    ring = f.ring
    out = {}
    for (t1, q1, h1), c1 in f.coeffs.items():
        for (t2, q2, h2), c2 in g.coeffs.items():
            key = (tuple(a + b for a, b in zip(t1, t2)), q1 + q2, h1 + h2)
            if not ring._inside(key):
                continue
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


KERNEL_RINGS = (
    SeriesRing(tvars=["x", "y"], q_denominator=3, t_cap=4,
               q_cap=Fraction(5, 3), h_cap=2),
    SeriesRing(tvars=["t0", "t1", "t2"], t_cap=3, q_cap=2, h_cap=1),
    SeriesRing(tvars=[], q_denominator=2, t_cap=0, q_cap=3, h_cap=3),
)


def random_operand(rng, r):
    """A series with keys inside the caps, 0 to 8 terms, and int or
    Fraction coefficients of mixed denominators."""
    coeffs = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3, 5, 8])):
        while True:
            texp = tuple(rng.randint(0, r.t_cap) for _ in r.tvars)
            if sum(texp) <= r.t_cap:
                break
        key = (texp, rng.randint(0, r.q_cap_num), rng.randint(0, r.h_cap))
        if rng.random() < 0.3:
            coeffs[key] = rng.randint(-3, 3)
        else:
            coeffs[key] = Fraction(rng.randint(-6, 6),
                                   rng.choice([1, 2, 3, 4, 6, 8, 12]))
    return Series(r, coeffs)


class TestMulKernel:
    """Series.__mul__ against the per-pair Fraction loop it replaced."""

    def test_matches_reference_and_key_order(self):
        rng = random.Random(8)
        seen = set()
        for r in KERNEL_RINGS:
            caps = (r.t_cap, r.q_cap_num, r.h_cap)
            for _ in range(400):
                f, g = random_operand(rng, r), random_operand(rng, r)
                if rng.random() < 0.25:
                    # f with some signs flipped: (a + b)(a - b) cancels ab
                    g = Series(r, {k: -c if rng.random() < 0.5 else c
                                   for k, c in f.coeffs.items()})
                product, expected = (f * g).coeffs, reference_mul(f, g)
                assert product == expected
                assert list(product) == list(expected)
                assert all(type(c) is Fraction for c in product.values())
                if not f.coeffs or not g.coeffs:
                    seen.add("empty")
                landed = set()
                for (t1, q1, h1) in f.coeffs:
                    for (t2, q2, h2) in g.coeffs:
                        key = (tuple(map(operator.add, t1, t2)), q1 + q2,
                               h1 + h2)
                        landed.add(key)
                        degrees = (sum(key[0]), key[1], key[2])
                        for axis in range(3):
                            if degrees[axis] - caps[axis] in (0, 1):
                                seen.add((axis, degrees[axis] - caps[axis]))
                if any(r._inside(k) and k not in product for k in landed):
                    seen.add("cancelled")
        # every case the kernel treats specially was drawn
        assert seen == {"empty", "cancelled"} | {
            (axis, past) for axis in range(3) for past in (0, 1)}

    def test_cancellation_and_caps(self):
        r = SeriesRing(tvars=["x", "y"], q_denominator=2, t_cap=2,
                       q_cap=Fraction(1, 2), h_cap=0)
        x, y = r.t("x"), r.t("y")
        half = r.q_power(Fraction(1, 2))
        f = x * Fraction(1, 2) + y * Fraction(1, 3) + half
        g = x * Fraction(1, 2) - y * Fraction(1, 3) + 2 * half
        product = f * g
        assert product.coeffs == reference_mul(f, g)
        assert list(product.coeffs) == list(reference_mul(f, g))
        # x*y cancels, q^(1/2)*q^(1/2) lies past the q cap
        assert product == (x * x * Fraction(1, 4) - y * y * Fraction(1, 9)
                           + x * half * Fraction(3, 2)
                           + y * half * Fraction(1, 3))

    def test_empty_operand(self):
        r = KERNEL_RINGS[0]
        f = r.t("x") + r.scalar(Fraction(1, 2))
        assert (f * r.zero()).is_zero() and (r.zero() * f).is_zero()

    def test_equal_rings_multiply_and_different_rings_raise(self):
        a = SeriesRing(tvars=["x"], t_cap=3)
        b = SeriesRing(tvars=["x"], t_cap=3)
        assert (a.t("x") * b.t("x")).coeffs == {((2,), 0, 0): 1}
        with pytest.raises(ValueError, match="different rings"):
            a.t("x") * SeriesRing(tvars=["x"], t_cap=4).t("x")


class TestPower:
    def test_integer_powers(self):
        t = SeriesRing(tvars=["t0"], t_cap=3).t(0)
        assert t ** 0 == t.ring.one()
        assert t ** True == t
        assert t ** 3 == t * t * t
        assert (t ** 4).is_zero()

    @pytest.mark.parametrize("k", [-1, 2.7, Fraction(1, 2)],
                             ids=["negative", "float", "fraction"])
    def test_bad_exponent_rejected(self, k):
        t = SeriesRing(tvars=["t0"], t_cap=3).t(0)
        with pytest.raises(InvalidArgument, match="exponent"):
            t ** k


def reference_dot(pairs):
    """The sum of ``reference_mul`` over the pairs, zeros dropped."""
    out = {}
    for f, g in pairs:
        for key, c in reference_mul(f, g).items():
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


class TestDotKernel:
    """series.dot, the sum of products on one integer-pair table, against
    the sum of the per-pair Fraction products."""

    def test_matches_sum_of_reference_products(self):
        rng = random.Random(24)
        seen = set()
        for r in KERNEL_RINGS:
            caps = (r.t_cap, r.q_cap_num, r.h_cap)
            for _ in range(300):
                pairs = [(random_operand(rng, r), random_operand(rng, r))
                         for _ in range(rng.choice([1, 2, 3, 5]))]
                if rng.random() < 0.3:
                    # the negated product of one pair cancels it in the sum
                    f, g = rng.choice(pairs)
                    pairs.append((-f, g) if rng.random() < 0.5 else (f, -g))
                total, expected = dot(r, pairs).coeffs, reference_dot(pairs)
                assert total == expected
                assert all(type(c) is Fraction and c != 0
                           for c in total.values())
                products = [reference_mul(f, g) for f, g in pairs]
                if any(not f.coeffs or not g.coeffs for f, g in pairs):
                    seen.add("empty")
                if any(k not in total for p in products for k in p):
                    seen.add("cancelled")
                for f, g in pairs:
                    for (t1, q1, h1) in f.coeffs:
                        for (t2, q2, h2) in g.coeffs:
                            degrees = (sum(t1) + sum(t2), q1 + q2, h1 + h2)
                            for axis in range(3):
                                if degrees[axis] - caps[axis] in (0, 1):
                                    seen.add((axis, degrees[axis] - caps[axis]))
        # a key kept by a pair and cancelled by the sum, empty operands,
        # and keys at and one past each cap were all drawn
        assert seen == {"empty", "cancelled"} | {
            (axis, past) for axis in range(3) for past in (0, 1)}

    def test_weights_go_into_the_integers(self):
        # the kernel under dot, with the rational weight of each pair
        rng = random.Random(2401)
        for r in KERNEL_RINGS:
            for _ in range(100):
                acc, expected = {}, {}
                for _ in range(rng.randint(1, 4)):
                    f, g = random_operand(rng, r), random_operand(rng, r)
                    num, den = rng.randint(-5, 5), rng.choice([1, 2, 6, 24])
                    _accumulate(acc, r, f, g, num, den)
                    for key, c in reference_mul(f, g).items():
                        expected[key] = (expected.get(key, Fraction(0))
                                         + c * Fraction(num, den))
                assert _finish(r, acc).coeffs == {
                    k: v for k, v in expected.items() if v != 0}

    def test_cancellation_across_pairs(self):
        r = KERNEL_RINGS[0]
        x, y = r.t("x"), r.t("y")
        half = r.scalar(Fraction(1, 2))
        f = x * Fraction(1, 3) + y
        g = x * Fraction(3, 4) - y * half
        # x*y: 1/3 * -1/2 + 1 * 3/4 = 7/12 from the first pair, and
        # -7/12 from the second, so only x^2 and y^2 are left
        second = Series(r, {((1, 1), 0, 0): Fraction(-7, 12)})
        total = dot(r, [(f, g), (second, r.one())])
        assert ((1, 1), 0, 0) not in total.coeffs
        assert total.coeffs == {((2, 0), 0, 0): Fraction(1, 4),
                                ((0, 2), 0, 0): Fraction(-1, 2)}
        assert dot(r, [(f, g), (-f, g)]).coeffs == {}

    def test_keys_past_the_caps_are_dropped(self):
        r = SeriesRing(tvars=["x"], q_denominator=2, t_cap=2,
                       q_cap=Fraction(1, 2), h_cap=1)
        x, q, h = r.t("x"), r.q_power(Fraction(1, 2)), r.h_inv()
        total = dot(r, [(x, x * x), (q, q), (h, h), (x, q + h)])
        assert total.coeffs == {((1,), 1, 0): 1, ((1,), 0, 1): 1}

    def test_empty_operands_and_empty_list(self):
        r = KERNEL_RINGS[1]
        t = r.t("t0") + r.scalar(Fraction(2, 3))
        assert dot(r, []) == r.zero() and dot(r, []).coeffs == {}
        assert dot(r, [(t, r.zero()), (r.zero(), t)]).is_zero()
        assert dot(r, [(r.zero(), t), (t, t)]) == t * t

    def test_ring_mismatch_raises(self):
        a = SeriesRing(tvars=["x"], t_cap=3)
        b = SeriesRing(tvars=["x"], t_cap=4)
        assert dot(a, [(SeriesRing(tvars=["x"], t_cap=3).t("x"),
                        a.t("x"))]) == a.t("x") * a.t("x")
        for pair in [(b.t("x"), a.t("x")), (a.t("x"), b.t("x"))]:
            with pytest.raises(ValueError, match="different rings"):
                dot(a, [pair])
        with pytest.raises(ValueError, match="different rings"):
            dot(b, [(a.t("x"), a.t("x"))])

    @pytest.mark.slow
    def test_qde_residual_at_q_cap_60_is_zero(self):
        # P^3 with xi^4 = q^(1/8), whose sigma coefficients have many
        # large, distinct denominators
        ring = SeriesRing(tvars=[f"t{i}" for i in range(4)], q_denominator=8,
                          q_cap=1)
        terms = [((i, j), (i + j) % 4, ring.q_power(Fraction((i + j) // 4, 8)))
                 for i in range(4) for j in range(4)]
        alg = cohft.algebra_from_terms(ring, [f"xi^{i}" for i in range(4)],
                                       terms)
        solution = cohft.solve_qde(alg, 1, 60)
        assert solution.residual_is_zero()
        assert len(solution.sigma[0][3].coeffs) > 100
