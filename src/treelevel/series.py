"""Truncated multivariate formal series over exact rationals.

A ring fixes a tuple of coordinate variables, a Novikov variable q
whose exponents live in (1/l)Z_{>=0} for a fixed denominator l, and an
inverse symbol hbar^-1.  Series are sparse maps from exponent keys
(t-exponents, q-exponent numerator, hbar^-1 power) to Fractions; all
arithmetic truncates at the ring caps and stays exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapExceeded, InvalidArgument


class SeriesRing:
    """Exponent bookkeeping shared by a family of series.

    ``t_cap`` bounds the total degree in the coordinate variables,
    ``q_cap`` the q exponent (a rational; resolution 1/q_denominator),
    ``h_cap`` the power of hbar^-1.
    """

    def __init__(self, tvars=(), q_denominator=1, t_cap=6, q_cap=0, h_cap=0):
        self.tvars = tuple(tvars)
        self.q_denominator = int(q_denominator)
        if self.q_denominator < 1:
            raise ValueError("q denominator must be positive")
        self.t_cap = int(t_cap)
        q_cap = Fraction(q_cap)
        self.q_cap_num = int(q_cap * self.q_denominator)
        self.h_cap = int(h_cap)
        for name, cap in (("t_cap", self.t_cap), ("q_cap", q_cap),
                          ("h_cap", self.h_cap)):
            if cap < 0:
                raise InvalidArgument(f"{name} must be nonnegative, not {cap}")

    def __eq__(self, other):
        return isinstance(other, SeriesRing) and (
            self.tvars, self.q_denominator, self.t_cap, self.q_cap_num,
            self.h_cap,
        ) == (
            other.tvars, other.q_denominator, other.t_cap, other.q_cap_num,
            other.h_cap,
        )

    def __hash__(self):
        return hash((self.tvars, self.q_denominator, self.t_cap,
                     self.q_cap_num, self.h_cap))

    def _inside(self, key):
        texp, qnum, hpow = key
        return (sum(texp) <= self.t_cap and qnum <= self.q_cap_num
                and hpow <= self.h_cap)

    def zero(self):
        return Series(self, {})

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        key = ((0,) * len(self.tvars), 0, 0)
        return Series(self, {key: c})

    def t(self, which):
        if isinstance(which, str):
            which = self.tvars.index(which)
        texp = tuple(1 if i == which else 0 for i in range(len(self.tvars)))
        return Series(self, {(texp, 0, 0): Fraction(1)})

    def q_power(self, exponent):
        """The monomial q^exponent; explicit constructions must fit the
        caps (arithmetic, by contrast, truncates silently)."""
        qnum = Fraction(exponent) * self.q_denominator
        if qnum.denominator != 1 or qnum < 0:
            raise ValueError(
                f"q exponent {exponent} not in (1/{self.q_denominator})Z>=0")
        key = ((0,) * len(self.tvars), int(qnum), 0)
        if not self._inside(key):
            raise CapExceeded(f"q^{exponent} lies beyond the cap")
        return Series(self, {key: Fraction(1)})

    def h_inv(self, power=1):
        key = ((0,) * len(self.tvars), 0, int(power))
        if not self._inside(key):
            return self.zero()
        return Series(self, {key: Fraction(1)})


class Series:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("series from different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Series(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.ring, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Series(self.ring, {k: v * c for k, v in self.coeffs.items()})
        self._check(other)
        ring = self.ring
        out = {}
        for (t1, q1, h1), c1 in self.coeffs.items():
            for (t2, q2, h2), c2 in other.coeffs.items():
                key = (tuple(a + b for a, b in zip(t1, t2)), q1 + q2, h1 + h2)
                if not ring._inside(key):
                    continue
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return Series(ring, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = Fraction(scalar)
        return Series(self.ring, {k: v / c for k, v in self.coeffs.items()})

    def __pow__(self, k):
        out = self.ring.one()
        for _ in range(int(k)):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coeffs.items()))))

    def is_zero(self):
        return not self.coeffs

    def constant_term(self):
        return self.coeffs.get(((0,) * len(self.ring.tvars), 0, 0), Fraction(0))

    def coefficient(self, texp=None, q=0, h=0):
        texp = tuple(texp or (0,) * len(self.ring.tvars))
        qnum = Fraction(q) * self.ring.q_denominator
        if qnum.denominator != 1:
            return Fraction(0)
        return self.coeffs.get((texp, int(qnum), int(h)), Fraction(0))

    def partial(self, which):
        """Partial derivative in a coordinate variable."""
        ring = self.ring
        if isinstance(which, str):
            which = ring.tvars.index(which)
        out = {}
        for (texp, qnum, hpow), c in self.coeffs.items():
            e = texp[which]
            if e == 0:
                continue
            nt = tuple(x - 1 if i == which else x for i, x in enumerate(texp))
            out[(nt, qnum, hpow)] = out.get((nt, qnum, hpow), Fraction(0)) + c * e
        return Series(ring, out)

    def q_log_derivative(self):
        """q d/dq, scaling each term by its q exponent."""
        ring = self.ring
        out = {}
        for (texp, qnum, hpow), c in self.coeffs.items():
            if qnum == 0:
                continue
            out[(texp, qnum, hpow)] = c * Fraction(qnum, ring.q_denominator)
        return Series(ring, out)

    def substitute(self, mapping):
        """Replace coordinate variables by series from the same ring.

        Variables absent from ``mapping`` stay themselves.  The series
        is treated as the (finite) polynomial it stores, so results are
        exact for polynomial inputs and truncated at the ring caps.
        """
        ring = self.ring
        images = []
        for i, name in enumerate(ring.tvars):
            if name in mapping:
                images.append(mapping[name])
            elif i in mapping:
                images.append(mapping[i])
            else:
                images.append(ring.t(i))
        total = ring.zero()
        for (texp, qnum, hpow), c in self.coeffs.items():
            term = Series(ring, {((0,) * len(ring.tvars), qnum, hpow): c})
            for i, e in enumerate(texp):
                for _ in range(e):
                    term = term * images[i]
            total = total + term
        return total

    def terms(self):
        """Sorted (t-exponents, q-exponent, hbar-inverse power, coefficient)."""
        out = []
        for (texp, qnum, hpow), c in sorted(self.coeffs.items()):
            out.append((texp, Fraction(qnum, self.ring.q_denominator), hpow, c))
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for texp, qexp, hpow, c in self.terms():
            factors = []
            if c != 1 or (sum(texp) == 0 and qexp == 0 and hpow == 0):
                factors.append(str(c))
            for name, e in zip(self.ring.tvars, texp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if qexp != 0:
                factors.append(
                    "q" if qexp == 1 else
                    (f"q^{qexp}" if qexp.denominator == 1 else f"q^({qexp})"))
            if hpow:
                factors.append(f"hbar^-{hpow}")
            bits.append("*".join(factors))
        return " + ".join(bits)


def multinomial(n, parts):
    """n! / prod(parts!) for parts summing to at most n."""
    import math

    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out
