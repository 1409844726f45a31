"""Classification of boundary divisors under forgetful maps and the
combinatorial content of the divisor-class relations.

Forgetting all but two markings sends each boundary divisor of the
scaled-line space either onto one of the two boundary points of the
two-marking space or onto the whole target; the two non-dominant
families are exactly the two sides of the divisor relation that makes
the derivative of a morphism potential multiplicative.  The analogous
statement for four-marked stable curves underlies associativity, and
the fixed-scaling relation equates the rho slice with the sum of all
scaling partitions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .combis import bell, set_partitions, subsets
from .errors import KindMismatch, TooLarge
from .graphs import canonical_key
from .morphisms import compact_legs, forget_tail
from .strata import (
    M0,
    MULT,
    SCALED,
    BoundaryDivisor,
    boundary_divisors,
    enumerate_strata,
    stratum_dimension,
)


@dataclass(frozen=True)
class Classification:
    divisor: BoundaryDivisor
    result: str                    # "boundary" or "dominant"
    target: BoundaryDivisor | None = None
    multiplicity: int | None = None

    def __str__(self):
        if self.result == "dominant":
            return f"{self.divisor.name} -> dominant"
        return f"{self.divisor.name} -> {self.target.name} (mult {self.multiplicity})"


def classify_under_forgetting(divisor, keep):
    """Push a divisor's generic type through the forgetful map.

    All legs outside ``keep`` are forgotten (with stabilization); the
    image is matched against the boundary divisors of the target space
    or declared dominant when it is the open type.  The multiplicity of
    a boundary image is one: the forgotten gluing parameter vanishes to
    first order.
    """
    space = divisor.space
    if space.family not in ("mult", "m0"):
        raise KindMismatch("classification applies to mult and m0 divisors")
    want = 2 if space.family == "mult" else 4
    keep = frozenset(keep)
    if len(keep) != want:
        raise KindMismatch(f"{space.family} forgetting keeps {want} legs")

    g = divisor.generic_type
    for leg in sorted(set(g.legs) - keep - {0}, reverse=True):
        g = forget_tail(g, leg)
    g = compact_legs(g)

    target_space = MULT(want) if space.family == "mult" else M0(want)
    key = canonical_key(g)
    target = _divisors_by_key(target_space).get(key)
    if target is not None:
        return Classification(divisor, "boundary", target, 1)
    if key not in _open_keys(target_space):
        raise KindMismatch("image is neither a divisor nor the open type")
    return Classification(divisor, "dominant")


@functools.cache
def _divisors_by_key(space):
    """The boundary divisors of ``space`` by the canonical key of their
    generic type, the first in order where two share a key."""
    out = {}
    for d in boundary_divisors(space):
        out.setdefault(canonical_key(d.generic_type), d)
    return out


@functools.cache
def _open_keys(space):
    """Canonical keys of the open strata (those without edges) of ``space``."""
    return frozenset(canonical_key(s) for s in enumerate_strata(space)
                     if not s.edges)


@dataclass
class PullbackReport:
    n: int
    lhs: list = field(default_factory=list)      # land on the separated point
    rhs: list = field(default_factory=list)      # land on the joined point
    dominant: list = field(default_factory=list)
    ok: bool = False
    detail: str = ""

    def summary(self):
        lines = [f"pullback of the two-marking divisor relation, n={self.n}"]
        lines.append(f"  LHS ({len(self.lhs)} divisors, multiplicities 1):")
        lines.extend(f"    {c.divisor.name}" for c in self.lhs)
        lines.append(f"  RHS ({len(self.rhs)} divisors, multiplicities 1):")
        lines.extend(f"    {c.divisor.name}" for c in self.rhs)
        lines.append(f"  dominant: {len(self.dominant)}")
        lines.append("  " + ("PASS" if self.ok else "FAIL: " + self.detail))
        return "\n".join(lines)


def verify_multiplihedron_pullback(n):
    """Check the forgetful classification of all scaled-line divisors.

    Divisors landing on the separated two-marking point must be exactly
    the scaling partitions with legs 1 and 2 in distinct blocks; those
    landing on the joined point exactly the bubbling subsets containing
    both; everything else must dominate.
    """
    if not 2 <= n <= 6:
        raise TooLarge("pullback verification is guarded at 2 <= n <= 6")
    space = MULT(n)
    report = PullbackReport(n=n)
    problems = []
    for div in boundary_divisors(space):
        cls = classify_under_forgetting(div, {1, 2})
        shape_kind, data = div.shape
        if cls.result == "dominant":
            report.dominant.append(cls)
            expect_dominant = not (
                (shape_kind == "subset" and {1, 2} <= set(data))
                or (shape_kind == "partition"
                    and _separates(data, 1, 2)))
            if not expect_dominant:
                problems.append(f"{div.name} should not dominate")
            continue
        tkind, tdata = cls.target.shape
        if tkind == "partition":
            report.lhs.append(cls)
            if not (shape_kind == "partition" and _separates(data, 1, 2)):
                problems.append(f"{div.name} wrongly lands on the separated point")
        else:
            report.rhs.append(cls)
            if not (shape_kind == "subset" and {1, 2} <= set(data)):
                problems.append(f"{div.name} wrongly lands on the joined point")
        if cls.multiplicity != 1:
            problems.append(f"{div.name} has multiplicity {cls.multiplicity}")

    expected_lhs = {frozenset(p) for p in set_partitions(range(1, n + 1),
                                                         min_blocks=2)
                    if _separates(frozenset(p), 1, 2)}
    expected_rhs = {I for I in subsets(range(1, n + 1), minsize=2)
                    if {1, 2} <= set(I)}
    got_lhs = {c.divisor.shape[1] for c in report.lhs}
    got_rhs = {c.divisor.shape[1] for c in report.rhs}
    if got_lhs != expected_lhs:
        problems.append("separated-partition family mismatch")
    if got_rhs != expected_rhs:
        problems.append("containing-subset family mismatch")
    report.ok = not problems
    report.detail = "; ".join(problems)
    return report


def _separates(blocks, a, b):
    for block in blocks:
        if a in block and b in block:
            return False
    return True


@dataclass
class SplitReport:
    n: int
    split: str
    preimage: list = field(default_factory=list)
    other: list = field(default_factory=list)
    dominant: list = field(default_factory=list)
    ok: bool = False
    detail: str = ""

    def summary(self):
        lines = [f"pullback of the four-point split {self.split}, n={self.n}"]
        lines.append(f"  preimage ({len(self.preimage)} divisors):")
        lines.extend(f"    {c.divisor.name}" for c in self.preimage)
        lines.append(f"  other boundary images: {len(self.other)}; "
                     f"dominant: {len(self.dominant)}")
        lines.append("  " + ("PASS" if self.ok else "FAIL: " + self.detail))
        return "\n".join(lines)


_SPLITS = {"12|34": ({1, 2}, {3, 4}),
           "13|24": ({1, 3}, {2, 4}),
           "14|23": ({1, 4}, {2, 3})}


def verify_m04_pullback(n, split):
    """Preimage of a four-marked split point under forgetting legs > 4.

    A splitting divisor of the n-marked space lies in the preimage
    exactly when it refines the split (the split's two pairs end up on
    opposite sides).
    """
    if not 4 <= n <= 7:
        raise TooLarge("m0 pullback verification is guarded at 4 <= n <= 7")
    if split not in _SPLITS:
        raise KindMismatch(f"unknown split {split!r}")
    left, right = _SPLITS[split]
    space = M0(n)
    report = SplitReport(n=n, split=split)
    problems = []
    for div in boundary_divisors(space):
        cls = classify_under_forgetting(div, {1, 2, 3, 4})
        I = set(div.shape[1])
        Ic = set(range(1, n + 1)) - I
        refines = ((left <= I and right <= Ic) or (left <= Ic and right <= I))
        if cls.result == "dominant":
            report.dominant.append(cls)
            if refines:
                problems.append(f"{div.name} should land on the split point")
            continue
        timage = set(cls.target.shape[1])
        hits = (timage in (left, right)
                or (set(range(1, 5)) - timage) in (left, right))
        if hits:
            report.preimage.append(cls)
            if not refines:
                problems.append(f"{div.name} wrongly refines {split}")
        else:
            report.other.append(cls)
            if refines:
                problems.append(f"{div.name} landed on the wrong split point")
    report.ok = not problems
    report.detail = "; ".join(problems)
    return report


@dataclass
class RhoReport:
    n: int
    rho: BoundaryDivisor = None
    partitions: list = field(default_factory=list)
    ok: bool = False
    detail: str = ""

    def summary(self):
        lines = [f"fixed-scaling divisor relation, n={self.n}"]
        lines.append(f"  LHS: {self.rho.name}, dimension {self.rho.dimension()}")
        lines.append(
            f"  RHS: {len(self.partitions)} scaling partitions "
            f"(Bell({self.n}) = {bell(self.n)}), all multiplicities 1:")
        for d in self.partitions:
            lines.append(f"    {d.name}, dimension {d.dimension()}")
        lines.append("  " + ("PASS" if self.ok else "FAIL: " + self.detail))
        return "\n".join(lines)


def rho_divisor_enumeration(n):
    """Both sides of the fixed-scaling relation in the scaled space.

    The rho slice is a copy of the parametrized-curve space, of
    dimension n; the right-hand side runs over all unordered partitions
    of the markings, each scaling divisor appearing with multiplicity
    one and having the same dimension n.
    """
    if not 1 <= n <= 6:
        raise TooLarge("rho enumeration is guarded at 1 <= n <= 6")
    space = SCALED(n)
    report = RhoReport(n=n)
    problems = []
    for div in boundary_divisors(space):
        kind = div.shape[0]
        if kind == "rho":
            report.rho = div
        elif kind == "partition":
            report.partitions.append(div)
            if stratum_dimension(div.generic_type, space) != n:
                problems.append(f"{div.name} has the wrong dimension")
            if div.codimension() != 1:
                problems.append(f"{div.name} is not a divisor")
    if len(report.partitions) != bell(n):
        problems.append(
            f"expected Bell({n}) = {bell(n)} partitions, "
            f"found {len(report.partitions)}")
    if report.rho is None or report.rho.dimension() != n:
        problems.append("rho slice missing or of wrong dimension")
    report.ok = not problems
    report.detail = "; ".join(problems)
    return report
