"""Truncated multivariate formal series over exact rationals.

A ring fixes a tuple of coordinate variables, a Novikov variable q
whose exponents live in (1/l)Z_{>=0} for a fixed denominator l, and an
inverse symbol hbar^-1.  Series are sparse maps from exponent keys
(t-exponents, q-exponent numerator, hbar^-1 power) to Fractions; all
arithmetic truncates at the ring caps and stays exact.

Products run through one kernel: ``_accumulate`` adds a truncated
product, times a rational weight, into a table of integer (numerator,
denominator) pairs, and ``_finish`` turns the table into a series with
one Fraction per key whose numerator is not zero.  ``Series.__mul__``
is the one-pair case, and ``dot`` a sum of products, so a sum is
normalized once per kept key rather than once per partial sum.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import CapExceeded, InvalidArgument


def _integer(name, value, error=InvalidArgument):
    """``value`` through :func:`operator.index`, else ``error``: a float
    is refused, not truncated, and a bool, not read as 0 or 1."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{name} {value!r} is not an integer")


def _names(tvars):
    """The coordinate variable names as a tuple without repeats; a bare
    string is one name too many, not a sequence of one-letter names."""
    if isinstance(tvars, str):
        raise InvalidArgument(f"tvars {tvars!r} is a string, not a list of names")
    try:
        names = tuple(tvars)
    except TypeError:
        raise InvalidArgument(f"tvars {tvars!r} is not a list of names") from None
    for i, name in enumerate(names):
        if name in names[:i]:
            raise InvalidArgument(f"tvars {names!r} repeat the name {name!r}")
    return names


class SeriesRing:
    """Exponent bookkeeping shared by a family of series.

    ``t_cap`` bounds the total degree in the coordinate variables,
    ``q_cap`` the q exponent (a rational; resolution 1/q_denominator),
    ``h_cap`` the power of hbar^-1.  ``q_denominator``, ``t_cap`` and
    ``h_cap`` are integers: a float is refused, not truncated.
    ``tvars`` lists distinct names; a bare string such as ``"t0"`` is
    refused, not split into its letters.

    A ring is immutable: no attribute can be set or deleted after
    construction, so its hash never changes.
    """

    __slots__ = ("tvars", "q_denominator", "t_cap", "q_cap_num", "h_cap")

    def __init__(self, tvars=(), q_denominator=1, t_cap=6, q_cap=0, h_cap=0):
        tvars = _names(tvars)
        q_denominator = _integer("q_denominator", q_denominator)
        if q_denominator < 1:
            raise ValueError("q denominator must be positive")
        t_cap = _integer("t_cap", t_cap)
        q_cap = Fraction(q_cap)
        h_cap = _integer("h_cap", h_cap)
        for name, cap in (("t_cap", t_cap), ("q_cap", q_cap),
                          ("h_cap", h_cap)):
            if cap < 0:
                raise InvalidArgument(f"{name} must be nonnegative, not {cap}")
        init = object.__setattr__
        init(self, "tvars", tvars)
        init(self, "q_denominator", q_denominator)
        init(self, "t_cap", t_cap)
        init(self, "q_cap_num", int(q_cap * q_denominator))
        init(self, "h_cap", h_cap)

    def __setattr__(self, name, value):
        raise AttributeError(f"SeriesRing is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SeriesRing is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (SeriesRing, (self.tvars, self.q_denominator, self.t_cap,
                             Fraction(self.q_cap_num, self.q_denominator),
                             self.h_cap))

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
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("series from different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
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
        acc = {}
        _accumulate(acc, self.ring, self, other)
        return _finish(self.ring, acc)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = Fraction(scalar)
        return Series(self.ring, {k: v / c for k, v in self.coeffs.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InvalidArgument(
                f"a series power needs an integer exponent >= 0, not {k!r}")
        out = self.ring.one()
        for _ in range(k):
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
        acc = {}
        for (texp, qnum, hpow), c in self.coeffs.items():
            term = Series(ring, {((0,) * len(ring.tvars), qnum, hpow): c})
            factors = [images[i] for i, e in enumerate(texp)
                       for _ in range(e)] or [ring.one()]
            for x in factors[:-1]:
                term = term * x
            _accumulate(acc, ring, term, factors[-1])
        return _finish(ring, acc)

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


def dot(ring, pairs):
    """The sum of the products a * b over the pairs (a, b) of series of
    ``ring``, each truncated at the ring caps, with one Fraction built
    per kept key of the sum."""
    acc = {}
    for a, b in pairs:
        _accumulate(acc, ring, a, b)
    return _finish(ring, acc)


def _accumulate(acc, ring, a, b, num=1, den=1):
    """Add (num/den) a b, truncated at the caps of ``ring``, into ``acc``.

    ``acc`` maps each exponent key to an integer pair (numerator,
    denominator): the numerator sum of the term pairs that landed on
    the key, over the least common denominator of those pairs, so no
    Fraction is built per term pair.  The weight num/den goes into the
    integers of each left term.  A pair is skipped before its key is
    built when it lands beyond a cap, the test of SeriesRing._inside.
    """
    for s in (a, b):
        if s.ring is not ring and s.ring != ring:
            raise ValueError("series from different rings")
    if not (a.coeffs and b.coeffs and num):
        return
    right = [(t2, sum(t2), q2, h2, c2.numerator, c2.denominator)
             for (t2, q2, h2), c2 in b.coeffs.items()]
    add = operator.add
    for (t1, q1, h1), c1 in a.coeffs.items():
        n1, d1 = c1.numerator * num, c1.denominator * den
        t_room = ring.t_cap - sum(t1)
        q_room = ring.q_cap_num - q1
        h_room = ring.h_cap - h1
        for t2, deg2, q2, h2, n2, d2 in right:
            if deg2 > t_room or q2 > q_room or h2 > h_room:
                continue
            key = (tuple(map(add, t1, t2)), q1 + q2, h1 + h2)
            d = d1 * d2
            old = acc.get(key)
            if old is None:
                acc[key] = (n1 * n2, d)
            elif old[1] == d:
                acc[key] = (old[0] + n1 * n2, d)
            else:
                n, e = old
                g = math.gcd(e, d)
                acc[key] = (n * (d // g) + n1 * n2 * (e // g), e // g * d)


def _finish(ring, acc):
    """The series of an accumulated table: one Fraction per key whose
    numerator is not zero, and no second zero filter."""
    out = object.__new__(Series)
    out.ring = ring
    out.coeffs = {k: Fraction(n, d) for k, (n, d) in acc.items() if n}
    return out


def multinomial(n, parts):
    """n! / prod(parts!) for parts summing to at most n."""
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out
