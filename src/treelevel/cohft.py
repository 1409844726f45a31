"""Formal CohFT-algebra calculus over truncated exact series.

An algebra is a finite basis with symmetric multilinear products mu^n
(fundamental-class insertions only, even parity); a morphism is a
family phi^n plus a curvature term phi^0; a trace is a family tau^n of
scalar correlators, optionally with a two-point-class family tau_pp.
The operations below realize the star product, the derivative identity
that makes a morphism's potential a homomorphism of tangent algebras,
trace composition through the exponential formula, the induced metric
and its isometry property, and the small quantum differential equation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .combis import set_partitions
from .errors import (
    CurvedMorphismUnsupported,
    DegenerateQDE,
    InvalidArgument,
    MissingArity,
)
from .series import Series, SeriesRing, _accumulate, _finish, dot, multinomial


def _as_series(ring, c):
    if isinstance(c, Series):
        return c
    return ring.scalar(c)


def as_vector(ring, dim, x):
    """Coerce a basis index, scalar list or series vector to a series vector.

    A tuple of ``dim`` series is returned as it is, so a vector keeps its
    identity, which the contraction memo of one call is keyed by.
    """
    if isinstance(x, int):
        _check_indices((x,), dim, "basis")
        return tuple(ring.one() if i == x else ring.zero() for i in range(dim))
    if (isinstance(x, tuple) and len(x) == dim
            and all(isinstance(entry, Series) for entry in x)):
        return x
    out = tuple(_as_series(ring, entry) for entry in x)
    if len(out) != dim:
        raise ValueError("vector has the wrong length")
    return out


def generic_point(ring, dim):
    """The formal point whose coordinates are the ring's t-variables."""
    if len(ring.tvars) < dim:
        raise ValueError("ring needs at least one t-variable per coordinate")
    return tuple(ring.t(i) for i in range(dim))


def _check_indices(indices, dim, what):
    """Raise InvalidArgument unless every index is an int in range(dim);
    a bool is refused, not read as 0 or 1."""
    for i in indices:
        if isinstance(i, bool):
            raise InvalidArgument(f"{what} index {i!r} is not an integer")
        if not isinstance(i, int) or not 0 <= i < dim:
            raise InvalidArgument(f"{what} index {i!r} is not in range({dim})")


def _contraction(ring, args, memo):
    """Map a sorted index tuple ``key`` to the sum, over its distinct
    orderings idx, of args[0][idx[0]] * ... * args[-1][idx[-1]] (zero
    when len(key) != len(args)).

    The sum is the first coordinate times the contraction of the
    indices left with the later arguments.  The ring caps are
    downward-closed in nonnegative exponents, so truncated
    multiplication is associative and distributive: this regrouping
    changes no coefficient.  Each such sum of products, like every
    other in this module, accumulates the integer pairs of
    :func:`series._accumulate` and normalizes one Fraction per kept key
    at the end; a rational sum does not depend on its order, so that
    changes no coefficient either.

    ``memo`` is the contraction memo of one public call, made empty by
    that call and dropped when it returns.  It keeps one table of
    suffix sums per argument suffix, keyed by the ring and the
    identities of the suffix's vectors, so the tensors evaluated in one
    check share every suffix they have in common: a star product's
    trailing copies of v, the one-hot vector of a basis index, a
    block image of the partition sum.  Each entry holds its suffix
    tuple, so no id in a key can be recycled while the memo lives.
    """
    n = len(args)
    tables = []
    for m in range(n + 1):
        suffix = tuple(args[n - m:])
        ident = (ring, *map(id, suffix))
        entry = memo.get(ident)
        if entry is None:
            entry = memo[ident] = (suffix, {} if m else {(): ring.one()})
        tables.append(entry[1])
    return lambda key: (_suffix_sum(ring, args, tables, key)
                        if len(key) == n else ring.zero())


def _suffix_sum(ring, args, tables, key):
    # A module-level function rather than a closure: a recursive closure
    # is a reference cycle, which keeps ``tables`` alive until the cyclic
    # garbage collector runs.
    table = tables[len(key)]
    total = table.get(key)
    if total is None:
        vec = args[len(args) - len(key)]
        acc = {}
        for k, i in enumerate(key):
            if (k and key[k - 1] == i) or vec[i].is_zero():
                continue
            _accumulate(acc, ring, vec[i],
                        _suffix_sum(ring, args, tables, key[:k] + key[k + 1:]))
        total = table[key] = _finish(ring, acc)
    return total


def _apply_tensor(ring, dim_out, tensor, args, memo):
    """Evaluate a map stored as {sorted inputs: {output index: coefficient}}."""
    accs = [{} for _ in range(dim_out)]
    _tensor_into(accs, ring, tensor, args, memo)
    return tuple(_finish(ring, acc) for acc in accs)


def _tensor_into(accs, ring, tensor, args, memo, den=1):
    """Add the map stored in ``tensor``, evaluated at ``args`` and divided
    by ``den``, into the accumulator ``accs[j]`` of each output j."""
    contract = _contraction(ring, args, memo)
    for key, val in tensor.items():
        x = contract(key)
        if x.is_zero():
            continue
        for j, c in val.items():
            _accumulate(accs[j], ring, _as_series(ring, c), x, 1, den)


def _tensors_from_terms(ring, terms, dim_in, dim_out=None):
    """Sum (inputs, output, coefficient) terms into {arity: {sorted
    inputs: {output: series}}}; with ``dim_out`` None, sum (inputs,
    coefficient) terms into {arity: {sorted inputs: series}}."""
    tensors = {}
    for term in terms:
        inputs = tuple(term[0])
        _check_indices(inputs, dim_in, "input")
        tensor = tensors.setdefault(len(inputs), {})
        key = tuple(sorted(inputs))
        if dim_out is None:
            slot, index = tensor, key
        else:
            index = term[1]
            _check_indices((index,), dim_out, "output")
            slot = tensor.setdefault(key, {})
        slot[index] = slot.get(index, ring.zero()) + _as_series(ring, term[-1])
    return tensors


@dataclass
class CohFTAlgebra:
    """Finite even basis with symmetric products mu^n, n >= 2.

    ``mu[n]`` maps a sorted tuple of input indices to a dict
    {output index: coefficient}; coefficients may carry q powers.
    """

    ring: SeriesRing
    basis: tuple
    mu: dict = field(default_factory=dict)

    @property
    def dim(self):
        return len(self.basis)

    def arities(self):
        return sorted(self.mu)

    def apply_mu(self, n, args):
        if n not in self.mu:
            raise MissingArity(f"mu^{n} not supplied")
        return _apply_tensor(self.ring, self.dim, self.mu[n], args, {})


def algebra_from_terms(ring, basis, terms):
    """Build an algebra from (inputs, output index, coefficient) triples."""
    basis = tuple(basis)
    mu = _tensors_from_terms(ring, terms, len(basis), len(basis))
    return CohFTAlgebra(ring, basis, mu)


def small_quantum_projective(k, ring=None, t_cap=4, q_cap=4):
    """Small quantum cohomology of the (k-1)-dimensional projective space:
    basis 1, xi, ..., xi^(k-1) with xi^i * xi^j = q^floor((i+j)/k) xi^((i+j) mod k).
    """
    if ring is None:
        ring = SeriesRing(tvars=[f"t{i}" for i in range(k)], t_cap=t_cap,
                          q_cap=q_cap)
    terms = []
    for i in range(k):
        for j in range(i, k):
            s = i + j
            terms.append(((i, j), s % k, ring.q_power(s // k)))
    return algebra_from_terms(ring, tuple(f"xi^{i}" for i in range(k)), terms)


def star_product(alg, v, a, b):
    """a *_v b = sum_n mu^n(a, b, v, ..., v) / (n-2)! within the caps."""
    return _star_product(alg, v, a, b, {})


def _star_product(alg, v, a, b, memo):
    ring = alg.ring
    if 2 not in alg.mu:
        raise MissingArity("a product needs the arity-two tensor")
    a = as_vector(ring, alg.dim, a)
    b = as_vector(ring, alg.dim, b)
    v = as_vector(ring, alg.dim, v)
    return _weighted_sum(
        ring, [ring.zero()] * alg.dim,
        ((alg.mu[n], [a, b] + [v] * (n - 2), math.factorial(n - 2))
         for n in alg.arities()), memo)


def _weighted_sum(ring, start, terms, memo):
    """The series vector ``start`` plus the sum of tensor(args) / divisor
    over (tensor, args, divisor) triples, each tensor as in
    :func:`_apply_tensor`."""
    accs = [{} for _ in start]
    one = ring.one()
    for acc, x in zip(accs, start):
        _accumulate(acc, ring, x, one)
    for tensor, args, divisor in terms:
        _tensor_into(accs, ring, tensor, args, memo, divisor)
    return tuple(_finish(ring, acc) for acc in accs)


def _basis_vectors(ring, dim):
    """The one-hot vector of each basis index, built once per call so
    the products of one check share their contraction suffixes."""
    return [as_vector(ring, dim, i) for i in range(dim)]


def check_associativity(alg, v=None):
    """(a *_v b) *_v c = a *_v (b *_v c) on all basis triples.

    Works from the table C[i, j] = e_i *_v e_j of dim^2 star products:
    the two sides of the triple (i, j, k) are sum_l C[i, j]_l C[l, k]
    and sum_l C[j, k]_l C[i, l].  The star product is bilinear over the
    truncated ring (see ``_contraction``), so these equal the nested
    products coefficient by coefficient.  Returns (ok, witness); the
    witness names the first failing triple and the differing
    coefficient.
    """
    ring = alg.ring
    if v is None:
        v = generic_point(ring, alg.dim)
    v = as_vector(ring, alg.dim, v)
    basis = range(alg.dim)
    one_hot, memo = _basis_vectors(ring, alg.dim), {}
    table = {(i, j): _star_product(alg, v, one_hot[i], one_hot[j], memo)
             for i, j in itertools.product(basis, repeat=2)}
    for i, j, k in itertools.product(basis, repeat=3):
        lhs = _combination(ring, alg.dim, table[i, j],
                           [table[l, k] for l in basis])
        rhs = _combination(ring, alg.dim, table[j, k],
                           [table[i, l] for l in basis])
        wit = _witness({"triple": (alg.basis[i], alg.basis[j], alg.basis[k])},
                       lhs, rhs, alg.basis)
        if wit:
            return False, wit
    return True, None


def _combination(ring, dim, coeffs, vectors):
    """sum_l coeffs[l] * vectors[l] for series coefficients and series
    vectors of length ``dim``."""
    return tuple(dot(ring, [(c, vec[m]) for c, vec in zip(coeffs, vectors)])
                 for m in range(dim))


def _witness(head, lhs, rhs, components=None):
    """``head`` extended by where two series vectors first differ: the
    component (named from ``components`` when given), the smallest
    exponent of the difference there and both coefficients; None when
    the vectors agree.  Coefficient dicts hold no zeros, so two
    components are equal exactly when their dicts are."""
    for c, (x, y) in enumerate(zip(lhs, rhs)):
        if x.coeffs != y.coeffs:
            diff = x - y
            if components is not None:
                head["component"] = components[c]
            key = min(diff.coeffs)
            return {**head, "exponent": key,
                    "lhs": x.coeffs.get(key, Fraction(0)),
                    "rhs": y.coeffs.get(key, Fraction(0))}
    return None


@dataclass
class Morphism:
    """Family phi^n: V^n -> W with curvature phi0 (flat means phi0 = 0)."""

    ring: SeriesRing
    dim_v: int
    dim_w: int
    phi: dict = field(default_factory=dict)     # n >= 1
    phi0: tuple = None

    def __post_init__(self):
        if self.phi0 is None:
            self.phi0 = tuple(self.ring.zero() for _ in range(self.dim_w))

    @property
    def flat(self):
        return all(c.is_zero() for c in self.phi0)

    def arities(self):
        return sorted(self.phi)

    def apply_phi(self, n, args):
        if n == 0:
            return self.phi0
        if n not in self.phi:
            raise MissingArity(f"phi^{n} not supplied")
        return _apply_tensor(self.ring, self.dim_w, self.phi[n], args, {})


def identity_morphism(ring, dim):
    phi1 = {(i,): {i: ring.one()} for i in range(dim)}
    return Morphism(ring, dim, dim, {1: phi1})


def morphism_from_terms(ring, dim_v, dim_w, terms, phi0=None):
    phi = _tensors_from_terms(ring, terms, dim_v, dim_w)
    phi0_vec = None
    if phi0 is not None:
        phi0_vec = as_vector(ring, dim_w, phi0)
    return Morphism(ring, dim_v, dim_w, phi, phi0_vec)


def push_forward(phi, v):
    """phi(v) = phi0 + sum_{n>=1} phi^n(v, ..., v) / n!."""
    return _push_forward(phi, v, {})


def _push_forward(phi, v, memo):
    ring = phi.ring
    v = as_vector(ring, phi.dim_v, v)
    return _weighted_sum(
        ring, phi.phi0, ((phi.phi[n], [v] * n, math.factorial(n))
                         for n in phi.arities()), memo)


def derivative(phi, v, a):
    """D_v phi(a) = sum_{n>=1} phi^n(a, v, ..., v) / (n-1)!."""
    return _derivative(phi, v, a, {})


def _derivative(phi, v, a, memo):
    ring = phi.ring
    v = as_vector(ring, phi.dim_v, v)
    a = as_vector(ring, phi.dim_v, a)
    return _weighted_sum(
        ring, [ring.zero()] * phi.dim_w,
        ((phi.phi[n], [a] + [v] * (n - 1), math.factorial(n - 1))
         for n in phi.arities()), memo)


def _tangent(phi, v, memo):
    """phi(v) and the image D_v phi(e_l) of each basis vector, with the
    one-hot vectors, on one contraction memo."""
    one_hot = _basis_vectors(phi.ring, phi.dim_v)
    return (_push_forward(phi, v, memo), one_hot,
            [_derivative(phi, v, e, memo) for e in one_hot])


def check_star_morphism(phi, alg_v, alg_w, v=None, pairs=None):
    """D_v phi(a *_v b) = D_v phi(a) *_phi(v) D_v phi(b) on basis pairs.

    ``pairs`` restricts the checked basis pairs (useful when the source
    product is only faithful below a degree); default is all pairs.
    J[l] = D_v phi(e_l) is computed once per basis vector.  D_v phi is
    linear over the truncated ring, so the left side is
    sum_l (e_i *_v e_j)_l J[l], coefficient by coefficient.
    Returns (ok, witness).
    """
    ring = phi.ring
    if v is None:
        v = generic_point(ring, phi.dim_v)
    v = as_vector(ring, phi.dim_v, v)
    memo = {}
    w, one_hot, jac = _tangent(phi, v, memo)
    if pairs is None:
        pairs = itertools.combinations_with_replacement(range(phi.dim_v), 2)
    for i, j in pairs:
        _check_indices((i, j), phi.dim_v, "basis")
        lhs = _combination(ring, phi.dim_w, _star_product(
            alg_v, v, one_hot[i], one_hot[j], memo), jac)
        rhs = _star_product(alg_w, w, jac[i], jac[j], memo)
        wit = _witness({"pair": (i, j)}, lhs, rhs, range(phi.dim_w))
        if wit:
            return False, wit
    return True, None


@dataclass
class Trace:
    """Scalar correlator family tau^n, with an optional two-point-class
    family tau_pp (symmetric in the two point slots and in the bulk)."""

    ring: SeriesRing
    dim: int
    tau: dict = field(default_factory=dict)      # n -> tensor -> scalar
    tau_pp: dict = None                          # bulk n -> tensor -> scalar

    def arities(self):
        return sorted(self.tau)

    def apply_tau(self, n, args):
        acc = {}
        self._tau_into(acc, n, args, {})
        return _finish(self.ring, acc)

    def apply_tau_pp(self, pts, bulk):
        acc = {}
        self._tau_pp_into(acc, pts, bulk, {})
        return _finish(self.ring, acc)

    def _tau_into(self, acc, n, args, memo, num=1, den=1):
        """Add (num/den) tau^n(args) into the accumulator ``acc``."""
        if n not in self.tau:
            raise MissingArity(f"tau^{n} not supplied")
        ring, contract = self.ring, _contraction(self.ring, args, memo)
        for key, c in self.tau[n].items():
            _accumulate(acc, ring, _as_series(ring, c), contract(key), num, den)

    def _tau_pp_into(self, acc, pts, bulk, memo, den=1):
        """Add tau_pp(pts; bulk) / den into the accumulator ``acc``."""
        n = len(bulk)
        if self.tau_pp is None or n not in self.tau_pp:
            raise MissingArity(f"tau_pp with {n} bulk slots not supplied")
        ring = self.ring
        pts_part = _contraction(ring, pts, memo)
        bulk_part = _contraction(ring, bulk, memo)
        for (pkey, bkey), c in self.tau_pp[n].items():
            _accumulate(acc, ring, _as_series(ring, c) * pts_part(pkey),
                        bulk_part(bkey), 1, den)


def trace_from_terms(ring, dim, terms, pp_terms=None):
    tau = _tensors_from_terms(ring, terms, dim)
    tau_pp = None
    if pp_terms is not None:
        tau_pp = {}
        for pts, bulk, coeff in pp_terms:
            _check_indices(tuple(pts) + tuple(bulk), dim, "input")
            n = len(bulk)
            tensor = tau_pp.setdefault(n, {})
            key = (tuple(sorted(pts)), tuple(sorted(bulk)))
            tensor[key] = tensor.get(key, ring.zero()) + _as_series(ring, coeff)
    return Trace(ring, dim, tau, tau_pp)


def potential(trace, v):
    """tau(v) = sum_n tau^n(v, ..., v) / n!."""
    return _potential(trace, v, {})


def _potential(trace, v, memo):
    ring = trace.ring
    v = as_vector(ring, trace.dim, v)
    acc = {}
    for n in trace.arities():
        trace._tau_into(acc, n, [v] * n, memo, 1, math.factorial(n))
    return _finish(ring, acc)


@dataclass
class ComposedTrace:
    substitution: Series
    partition_sum: Series

    @property
    def agree(self):
        return self.substitution == self.partition_sum


def compose_trace(tau_w, phi, v, order=None):
    """Potential of the composed trace, computed along two routes.

    Substitution route: evaluate the target potential at phi(v).
    Partition route: sum over unordered partitions of the diagonal
    inputs (empty blocks feeding the curvature), with the multinomial
    weight of each block-size profile.  The two agree by the
    exponential formula; both are returned so the agreement is
    checkable coefficientwise.
    """
    ring = phi.ring
    v = as_vector(ring, phi.dim_v, v)
    if order is None:
        order = ring.t_cap

    memo = {}
    subst = _potential(tau_w, _push_forward(phi, v, memo), memo)

    max_r = max(tau_w.arities(), default=0)
    images = {0: phi.phi0}
    for m in phi.arities():
        if m <= order:
            images[m] = _apply_tensor(ring, phi.dim_w, phi.phi[m], [v] * m,
                                      memo)
    curved = not phi.flat
    acc = {}
    for n in range(0, order + 1):
        for profile in _partition_profiles(n):
            r0 = len(profile)
            count = _profile_count(n, profile)
            kmax = (max_r - r0) if curved else 0
            if any(m not in images for m in profile):
                continue  # absent arities are zero, as in the substitution
            for k in range(0, kmax + 1):
                r = r0 + k
                if r not in tau_w.tau:
                    continue
                args = [images[m] for m in profile] + [images[0]] * k
                tau_w._tau_into(acc, r, args, memo, count,
                                math.factorial(n) * math.factorial(k))
    return ComposedTrace(subst, _finish(ring, acc))


def _partition_profiles(n):
    """Nonincreasing positive block-size profiles of an n-set (n=0: one
    empty profile)."""
    def rec(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def _profile_count(n, profile):
    """Number of set partitions of an n-set with the given size profile."""
    count = multinomial(n, profile)
    mult = {}
    for p in profile:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        count //= math.factorial(m)
    return count


def bilinear_form(trace, v, a, b):
    """g_v(a, b) = sum_n tau_pp^(n+2)(a, b; v, ..., v) / n!."""
    return _bilinear_form(trace, v, a, b, {})


def _bilinear_form(trace, v, a, b, memo):
    ring = trace.ring
    v = as_vector(ring, trace.dim, v)
    a = as_vector(ring, trace.dim, a)
    b = as_vector(ring, trace.dim, b)
    if trace.tau_pp is None:
        raise MissingArity("trace has no two-point-class family")
    acc = {}
    for n in sorted(trace.tau_pp):
        trace._tau_pp_into(acc, [a, b], [v] * n, memo, math.factorial(n))
    return _finish(ring, acc)


def pp_family_from(tau_w, phi, bulk_max):
    """Two-point-class family on the source induced by the partition sum.

    For each bulk arity n the tensor entry at (points (x1, x2), bulk y)
    sums over set partitions of the inputs with x1, x2 in distinct
    blocks; the blocks of x1 and x2 feed the point slots of the target
    family.  Only flat morphisms are supported.
    """
    if not phi.flat:
        raise CurvedMorphismUnsupported("the induced family needs phi0 = 0")
    ring = phi.ring
    dim = phi.dim_v
    basis, memo = _basis_vectors(ring, dim), {}
    tau_pp = {}
    for n in range(0, bulk_max + 1):
        tensor = {}
        for pidx in itertools.combinations_with_replacement(range(dim), 2):
            for bidx in itertools.combinations_with_replacement(range(dim), n):
                items = [("p", 0), ("p", 1)] + [("b", i) for i in range(n)]
                acc = {}
                for blocks in set_partitions(items):
                    # the point slots take the blocks of x1 and x2, which
                    # must differ; both tensors are symmetric, so the
                    # order of the blocks and of their members is free
                    if (any({("p", 0), ("p", 1)} <= block for block in blocks)
                            or any(len(block) not in phi.phi for block in blocks)
                            or tau_w.tau_pp is None
                            or len(blocks) - 2 not in tau_w.tau_pp):
                        continue
                    pts, bulk_args = [], []
                    for block in blocks:
                        img = _apply_tensor(
                            ring, phi.dim_w, phi.phi[len(block)],
                            [basis[(pidx if tag == "p" else bidx)[i]]
                             for tag, i in block], memo)
                        if any(tag == "p" for tag, _ in block):
                            pts.append(img)
                        else:
                            bulk_args.append(img)
                    tau_w._tau_pp_into(acc, pts, bulk_args, memo)
                total = _finish(ring, acc)
                if not total.is_zero():
                    tensor[(pidx, bidx)] = total
        tau_pp[n] = tensor
    return Trace(ring, dim, {}, tau_pp)


def check_isometry(tau_v, tau_w, phi, v=None):
    """g_V,v(a, b) = g_W,phi(v)(D_v phi a, D_v phi b) on basis pairs.

    The source family must have been induced by the partition sum for
    this to hold; checking the identity checks exactly that
    consistency.  Returns (ok, witness).
    """
    if not phi.flat:
        raise CurvedMorphismUnsupported("isometry check restricts to phi0 = 0")
    ring = phi.ring
    if v is None:
        v = generic_point(ring, phi.dim_v)
    v = as_vector(ring, phi.dim_v, v)
    memo = {}
    w, one_hot, jac = _tangent(phi, v, memo)
    for i, j in itertools.combinations_with_replacement(range(phi.dim_v), 2):
        lhs = _bilinear_form(tau_v, v, one_hot[i], one_hot[j], memo)
        rhs = _bilinear_form(tau_w, w, jac[i], jac[j], memo)
        wit = _witness({"pair": (i, j)}, (lhs,), (rhs,))
        if wit:
            return False, wit
    return True, None


# -- quantum differential equation -------------------------------------------
#
# The solver's matrices are sparse maps {(row, column): entry} that hold
# only the nonzero entries; an entry maps powers of hbar^-1 to nonzero
# Fractions, so a scalar c is {0: c} and a zero entry is absent.

def _mat_mul(a, b):
    """The product a b, a convolution over the hbar powers.  Each stored
    entry (i, k) of ``a`` meets only the stored entries of row k of
    ``b``, found through a row index."""
    rows = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    sums = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            acc = sums.setdefault((i, j), {})
            for h1, c1 in x.items():
                for h2, c2 in y.items():
                    acc[h1 + h2] = acc.get(h1 + h2, 0) + c1 * c2
    return {ij: entry for ij, acc in sums.items()
            if (entry := {h: c for h, c in acc.items() if c})}


def _mat_add(a, b, sign=1):
    """a + sign b; an entry that cancels to zero is dropped."""
    out = dict(a)
    for ij, y in b.items():
        x = out.pop(ij, {})
        entry = {h: c for h in x.keys() | y.keys()
                 if (c := x.get(h, 0) + sign * y.get(h, 0))}
        if entry:
            out[ij] = entry
    return out


@dataclass
class QdeSolution:
    """Fundamental solution of the small quantum differential equation.

    ``sigma`` solves hbar q d/dq sigma = (xi *) sigma - sigma A0 with
    sigma = identity at q = 0, where A0 is the classical part of the
    product matrix; the full flat section is sigma times the
    (non-polynomial) classical factor q^(A0/hbar), which is why the
    polynomial solver works in this gauge.
    """

    alg: CohFTAlgebra
    xi: int
    ring: SeriesRing
    sigma: tuple              # dim x dim of Series in q, hbar^-1
    classical: tuple          # A0 as Fractions

    def residual(self):
        """hbar q d/dq sigma - M sigma + sigma A0, as a series matrix."""
        ring = self.ring
        dim = self.alg.dim
        m = _xi_star_matrix(self.alg, self.xi, ring)
        one = ring.one()
        out = []
        for i in range(dim):
            row = []
            for j in range(dim):
                acc = {}
                _accumulate(acc, ring,
                            _shift_h(self.sigma[i][j].q_log_derivative(), -1),
                            one)
                for k in range(dim):
                    _accumulate(acc, ring, m[i][k], self.sigma[k][j], -1)
                    c = self.classical[k][j]
                    _accumulate(acc, ring, self.sigma[i][k], one,
                                c.numerator, c.denominator)
                row.append(_finish(ring, acc))
            out.append(tuple(row))
        return tuple(out)

    def residual_is_zero(self):
        return all(c.is_zero() for row in self.residual() for c in row)


def _shift_h(s, delta):
    """Multiply by hbar^(-delta); delta = -1 multiplies by hbar."""
    out = {}
    for (texp, qnum, hpow), c in s.coeffs.items():
        h = hpow + delta
        if h < 0:
            raise ValueError("positive powers of hbar are not representable")
        key = (texp, qnum, h)
        if s.ring._inside(key):
            out[key] = c
    return Series(s.ring, out)


def _xi_star_matrix(alg, xi, ring):
    """The matrix of xi* at the basepoint, moved into the solver ring."""
    memo, basepoint = {}, (alg.ring.zero(),) * alg.dim
    cols = [_star_product(alg, basepoint, xi, j, memo) for j in range(alg.dim)]
    if any(any(texp) or hpow
           for col in cols for entry in col for texp, _, hpow in entry.coeffs):
        raise DegenerateQDE("the product at the basepoint must be constant")
    # the solver only sees terms through its cap
    return [[Series(ring, {((), qnum, 0): c
                           for (_, qnum, _), c in col[i].coeffs.items()
                           if qnum <= ring.q_cap_num})
             for col in cols] for i in range(alg.dim)]


def solve_qde(alg, xi=1, q_cap=3):
    """Solve the small quantum differential equation order by order in q.

    The product operator xi* splits into its classical q^0 part A0 plus
    parts A_d of positive q-degree d/denom.  Order k inverts
    (hbar k/denom - ad_A0) on sum_d A_d sigma_(k-d), which requires A0
    nilpotent (a q^0 quantum term raises DegenerateQDE): with
    B = (denom/k) hbar^-1 A, sigma_k is the sum over j >= 0 of
    ad_B0^j(sum_d B_d sigma_(k-d)).  Every matrix step is one
    :func:`_mat_mul` or :func:`_mat_add` over exact hbar^-1
    polynomials, on sparse matrices that store only their nonzero
    entries: the parts A_d and the terms of each order are mostly zero,
    so a product costs the stored entry pairs that meet, not dim^3
    entry products.  Returns the matrix solution with identity leading
    term; its residual in the solved gauge is exactly zero.
    """
    dim = alg.dim
    denom = alg.ring.q_denominator
    qnum_cap = int(Fraction(q_cap) * denom)
    ring = SeriesRing(tvars=(), q_denominator=denom, t_cap=0,
                      q_cap=q_cap, h_cap=qnum_cap * (dim + 1) + 2)

    # A_d by q exponent numerator d
    parts = {0: {}}
    for i, row in enumerate(_xi_star_matrix(alg, xi, ring)):
        for j, entry in enumerate(row):
            for (_, d, _), c in entry.coeffs.items():
                parts.setdefault(d, {})[i, j] = {0: c}
    a0 = parts[0]

    power = a0
    for _ in range(dim):
        power = _mat_mul(power, a0)
    if power:
        raise DegenerateQDE("classical part of the product is not nilpotent")

    sigma = {0: {(i, i): {0: Fraction(1)} for i in range(dim)}}
    for k in range(1, qnum_cap + 1):
        rate = Fraction(denom, k)
        b = {d: {ij: {1: e[0] * rate} for ij, e in a_d.items()}
             for d, a_d in parts.items()}
        term = {}
        for d, b_d in b.items():
            if d and k - d in sigma:
                term = _mat_add(term, _mat_mul(b_d, sigma[k - d]))
        sk = {}
        j = 0
        while term:
            sk = _mat_add(sk, term)
            term = _mat_add(_mat_mul(b[0], term), _mat_mul(term, b[0]), -1)
            j += 1
            if j > dim * dim + 2:
                raise DegenerateQDE("adjoint action failed to nilpotate")
        if sk:
            sigma[k] = sk

    mats = tuple(tuple(Series(ring, {((), k, h): c for k, s_k in sigma.items()
                                     for h, c in s_k.get((i, j), {}).items()})
                       for j in range(dim)) for i in range(dim))
    classical = tuple(tuple(a0.get((i, j), {}).get(0, Fraction(0))
                            for j in range(dim)) for i in range(dim))
    return QdeSolution(alg, xi, ring, mats, classical)


# -- randomized instances for the property suites -----------------------------

def random_even_algebra(seed, dim=2, max_arity=3, t_cap=3, density=0.7):
    """A random symmetric product family (no axioms imposed)."""
    ring = SeriesRing(tvars=[f"t{i}" for i in range(dim)], t_cap=t_cap)
    mu = _random_tensors(random.Random(seed), ring, range(2, max_arity + 1),
                         dim, dim, 3, density)
    return CohFTAlgebra(ring, tuple(f"e{i}" for i in range(dim)), mu)


def random_flat_morphism(seed, ring, dim_v, dim_w, max_arity=3, density=0.8):
    phi = _random_tensors(random.Random(seed), ring, range(1, max_arity + 1),
                          dim_v, dim_w, 2, density)
    return Morphism(ring, dim_v, dim_w, phi)


def _random_tensors(rng, ring, arities, dim_in, dim_out, top, density):
    """Sparse tensors with coefficients a/b, |a| <= top and 1 <= b <= top."""
    tensors = {}
    for n in arities:
        tensor = {}
        for idx in itertools.combinations_with_replacement(range(dim_in), n):
            if rng.random() > density:
                continue
            tensor[idx] = {
                out: ring.scalar(Fraction(rng.randint(-top, top), rng.randint(1, top)))
                for out in range(dim_out) if rng.random() < density}
        tensors[n] = tensor
    return tensors


def random_trace(seed, ring, dim, max_arity=4, density=0.8):
    rng = random.Random(seed)
    tau = {}
    for n in range(0, max_arity + 1):
        tensor = {}
        for idx in itertools.combinations_with_replacement(range(dim), n):
            if rng.random() <= density:
                tensor[idx] = ring.scalar(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        tau[n] = tensor
    return Trace(ring, dim, tau)
