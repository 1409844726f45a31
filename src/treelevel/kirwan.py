"""Toric counting recipe for affine gauged maps.

A torus acts on a vector space through integer weights contained in an
open half-space; a rational stability character cuts out the semistable
locus.  For a rational degree d, the map space consists of polynomial
tuples whose j-th component has degree at most the pairing (d, mu_j),
with leading coefficients landing in the fixed locus of exp(d) inside
the semistable set.  Imposing vanishing of the derivatives at the
marking pins the map uniquely, which turns the Euler-class monomial
prod (mu_j xi)^(c_j) into a relation with value q^d on the sector of
exp(d); these relations present the small quantum cohomology of the
quotient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptySector,
    InvalidAction,
    RankUnsupported,
    TooLarge,
    UnstableSector,
)
from .linalg import cone_contains, frac_rank
from .series import _integer

# qh_presentation visits degree_bound * lcm(weights) degrees; refuse more.
PRESENTATION_DEGREE_GUARD = 10000
# check_stable_equals_semistable tests all 2^k weight supports; refuse more
# than this many weights.
WEIGHT_COUNT_GUARD = 15


@dataclass(frozen=True)
class TorusAction:
    """Integer weight vectors and a rational stability character.

    The weights must lie in an open half-space, which makes the
    quotient proper; construction fails otherwise.  A weight entry goes
    through ``operator.index``: a float, a string or a bool is refused.
    """

    weights: tuple
    theta: tuple

    def __post_init__(self):
        ws = tuple(tuple(_integer("weight entry", x, InvalidAction) for x in w)
                   for w in self.weights)
        th = tuple(Fraction(x) for x in self.theta)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "theta", th)
        if not ws:
            raise InvalidAction("no weights")
        s = len(ws[0])
        if any(len(w) != s for w in ws) or len(th) != s:
            raise InvalidAction("weight/character dimensions disagree")
        if not _in_open_halfspace(ws):
            raise InvalidAction("weights must lie in an open half-space")

    @property
    def rank(self):
        return len(self.weights[0])

    @property
    def k(self):
        return len(self.weights)


def _in_open_halfspace(weights):
    """Exact test: some eta pairs strictly positively with every weight.

    Equivalent to the origin not lying in the convex hull of the
    weights, that is, to e_(s+1) not lying in the cone of the weights
    lifted by a last coordinate 1 (a zero weight lifts onto e_(s+1)).
    """
    s = len(weights[0])
    return not cone_contains((0,) * s + (1,), [w + (1,) for w in weights])


def pairing(d, weight):
    return sum(Fraction(a) * b for a, b in zip(d, weight))


def is_semistable(support, action):
    """Whether a coordinate support meets the semistable locus.

    For a linearized torus action on a vector space this is membership
    of the character in the rational cone of the supported weights.
    """
    gens = [action.weights[j] for j in sorted(support)]
    return cone_contains(action.theta, gens)


def check_stable_equals_semistable(action):
    """No strictly semistable points and finite stabilizers throughout.

    Every support whose weight cone captures the character must span
    the full character space; a capture by a deficient-span support is
    exactly a GIT wall (the zero character is the degenerate case,
    captured by the empty support).
    """
    if action.k > WEIGHT_COUNT_GUARD:
        raise TooLarge(
            f"the stability check is limited to {WEIGHT_COUNT_GUARD} weights "
            f"(it tests all 2^k weight supports), got {action.k}")
    s = action.rank
    for size in range(0, action.k + 1):
        for support in itertools.combinations(range(action.k), size):
            gens = [action.weights[j] for j in support]
            if not cone_contains(action.theta, gens):
                continue
            if (frac_rank(gens) if gens else 0) < s:
                return False
    return True


def map_space_dimension(action, d):
    """Coefficient count of the polynomial tuples of degree d."""
    total = 0
    for w in action.weights:
        p = pairing(d, w)
        if p >= 0:
            total += math.floor(p) + 1
    return total


@dataclass(frozen=True)
class SectorElement:
    """Inertia-sector datum of a degree: the group element exp(d), the
    coordinates it fixes, and the stabilizer order of the sector."""

    exp_d: tuple
    support: frozenset
    order: int

    @property
    def twisted(self):
        return any(x != 0 for x in self.exp_d)

    @property
    def label(self):
        if not self.twisted:
            return "1"
        return "1_Z%d" % self.order

    def __str__(self):
        if not self.twisted:
            return "untwisted sector"
        return f"twisted sector {self.label} (exp(d) = {self.exp_d})"


def sector(action, d):
    """Sector of exp(d): fixed coordinates are the integer pairings.

    Raises EmptySector when the fixed locus misses the semistable set.
    The stabilizer order (rank one) is the gcd of the supported
    weights.
    """
    d = tuple(Fraction(x) for x in d)
    exp_d = tuple(x - math.floor(x) for x in d)
    support = frozenset(
        j for j, w in enumerate(action.weights)
        if pairing(d, w).denominator == 1)
    if not is_semistable(support, action):
        raise EmptySector(
            f"the fixed locus of exp({d}) has no semistable point")
    if action.rank == 1:
        positive = [abs(action.weights[j][0]) for j in support
                    if pairing(d, action.weights[j]) >= 0]
        order = math.gcd(*positive) if positive else 0
    else:
        order = 0  # not needed away from rank one
    return SectorElement(exp_d, support, order)


@dataclass(frozen=True)
class KirwanRelation:
    """One derivative-vanishing count: the Euler monomial
    prod_j (mu_j xi)^(c_j) maps to q^d times the sector class."""

    degree: tuple
    exponents: tuple           # c_j per weight
    scalar: int                # prod mu_j^(c_j)
    xi_power: int              # sum c_j
    q_exponent: Fraction
    sector: SectorElement
    count: int                 # 1, or 0 with a reason
    reason: str = ""

    def monomial(self):
        if self.scalar == 1:
            return f"xi^{self.xi_power}"
        return f"{self.scalar}*xi^{self.xi_power}"

    def value(self):
        """The image of the Euler monomial, as a display string."""
        if self.count == 0:
            return "0"
        q = "q" if self.q_exponent == 1 else f"q^({self.q_exponent})"
        if self.sector.twisted:
            return f"{q}*{self.sector.label}"
        return q

    def image_of_xi_power(self):
        """Coefficient of the image of the bare power xi^(sum c_j)."""
        return Fraction(self.count, self.scalar)

    def __str__(self):
        deg = "/".join(str(x) for x in self.degree) if len(self.degree) > 1 \
            else str(self.degree[0])
        return f"{self.monomial()} = {self.value()}   [degree {deg}]"


def kirwan_count(action, d):
    """Count degree-d maps with vanishing derivatives at the marking.

    Rank one only.  The exponent c_j counts the integers in
    [0, (d, mu_j)); after those coefficients vanish exactly the
    integer-pairing components keep a free leading coefficient, and the
    count of maps modulo the torus is one.
    """
    if action.rank != 1:
        raise RankUnsupported("counting is implemented for rank one")
    if not check_stable_equals_semistable(action):
        raise InvalidAction("counting requires stable = semistable")
    return _count(action, d)


def _count(action, d):
    """kirwan_count for a rank-one action already known to have
    stable = semistable."""
    d = tuple(Fraction(x) for x in d)
    if d[0] <= 0:
        raise InvalidAction("the degree must be positive")
    try:
        sec = sector(action, d)
    except EmptySector as err:
        raise UnstableSector(str(err)) from err

    exponents = []
    reason = ""
    count = 1
    for w in action.weights:
        p = pairing(d, w)
        if p <= 0:
            # the evaluation constraint on this component is unreachable
            exponents.append(0)
            count = 0
            reason = f"nonpositive pairing {p} on weight {w}"
            continue
        exponents.append(math.ceil(p))
    exponents = tuple(exponents)
    scalar = 1
    for w, c in zip(action.weights, exponents):
        scalar *= w[0] ** c
    rel = KirwanRelation(
        degree=d,
        exponents=exponents,
        scalar=scalar,
        xi_power=sum(exponents),
        q_exponent=d[0],
        sector=sec,
        count=count,
        reason=reason,
    )
    if count:
        free = sum(1 for j in sec.support if pairing(d, action.weights[j]) >= 0)
        if rel.xi_power + free != map_space_dimension(action, d):
            raise InvalidAction("constraint count disagrees with the map space")
    return rel


@dataclass
class Presentation:
    action: TorusAction
    relations: list
    ring_relation: KirwanRelation | None

    def presentation_string(self):
        if self.ring_relation is None:
            return "no integer-degree relation below the bound"
        r = self.ring_relation
        q = "q" if r.q_exponent == 1 else f"q^({r.q_exponent})"
        return f"{r.monomial()} = {q}"

    def summary(self):
        lines = [
            "weights " + ",".join(str(w[0]) for w in self.action.weights)
            + "  theta " + str(self.action.theta[0]),
        ]
        for rel in self.relations:
            lines.append("  " + str(rel))
        lines.append("presentation: QH = Lambda[xi] / (%s)"
                     % self.presentation_string().replace(" = ", " - "))
        return "\n".join(lines)


def qh_presentation(action, degree_bound):
    """All relations for degrees in (1/l)Z up to the bound, l = lcm of
    the weights; the smallest untwisted integer degree provides the
    ring presentation."""
    if action.rank != 1:
        raise RankUnsupported("presentations are implemented for rank one")
    ell = math.lcm(*[abs(w[0]) for w in action.weights])
    bound = Fraction(degree_bound)
    if math.floor(bound * ell) > PRESENTATION_DEGREE_GUARD:
        raise TooLarge(
            f"presentation limited to {PRESENTATION_DEGREE_GUARD} degrees "
            f"(degree bound times lcm of the weights)")
    # stable = semistable is a property of the action: check it once,
    # and only when some degree is visited
    if Fraction(1, ell) <= bound and not check_stable_equals_semistable(action):
        raise InvalidAction("counting requires stable = semistable")
    relations = []
    ring_rel = None
    t = 1
    while Fraction(t, ell) <= bound:
        d = (Fraction(t, ell),)
        try:
            rel = _count(action, d)
        except UnstableSector:
            t += 1
            continue
        relations.append(rel)
        if ring_rel is None and not rel.sector.twisted and rel.count:
            ring_rel = rel
        t += 1
    return Presentation(action, relations, ring_rel)
