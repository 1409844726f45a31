import random
from fractions import Fraction

import pytest

from treelevel.errors import CapExceeded, InvalidArgument
from treelevel.series import Series, SeriesRing


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

    def test_zero_caps_keep_the_constants(self):
        r = SeriesRing(tvars=["t0"], t_cap=0, q_cap=0, h_cap=0)
        assert r.one() * r.one() == r.one()
