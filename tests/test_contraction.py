"""The sparse tensor contraction against the dense ordered-tuple loops.

The references below loop over every ordered index tuple of the
argument vectors, sort it and look it up in the tensor; cohft walks
only the stored entries and sums over the distinct orderings of each.
Truncated series multiplication is associative and distributive, so
the two must agree exactly on every input, including zero, one-hot and
repeated argument vectors, q-weighted coefficients and truncating caps.
The pinned digest fixes the values of the calculus built on top.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelevel import cohft
from treelevel.cohft import (
    CohFTAlgebra,
    Morphism,
    Trace,
    algebra_from_terms,
    bilinear_form,
    check_associativity,
    check_isometry,
    check_star_morphism,
    compose_trace,
    derivative,
    generic_point,
    identity_morphism,
    morphism_from_terms,
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
from treelevel.combis import set_partitions
from treelevel.errors import InvalidArgument
from treelevel.series import Series, SeriesRing

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


# -- reference: every ordered index tuple, looked up after sorting --

def ref_product(ring, args, idx):
    out = ring.one()
    for k, i in enumerate(idx):
        out = out * args[k][i]
    return out


def ref_apply_tensor(ring, dim_out, tensor, args):
    out = [ring.zero() for _ in range(dim_out)]
    dim_in = len(args[0]) if args else 0
    for idx in itertools.product(range(dim_in), repeat=len(args)):
        for j, c in tensor.get(tuple(sorted(idx)), {}).items():
            out[j] = out[j] + c * ref_product(ring, args, idx)
    return tuple(out)


def ref_apply_scalar_tensor(ring, tensor, args):
    total = ring.zero()
    dim_in = len(args[0]) if args else 0
    for idx in itertools.product(range(dim_in), repeat=len(args)):
        c = tensor.get(tuple(sorted(idx)))
        if c is not None:
            total = total + c * ref_product(ring, args, idx)
    return total


def ref_apply_tau_pp(ring, dim, tensor, pts, bulk):
    total = ring.zero()
    for pidx in itertools.product(range(dim), repeat=2):
        for bidx in itertools.product(range(dim), repeat=len(bulk)):
            c = tensor.get((tuple(sorted(pidx)), tuple(sorted(bidx))))
            if c is not None:
                total = (total + c * ref_product(ring, pts, pidx)
                         * ref_product(ring, bulk, bidx))
    return total


# -- strategies --

@st.composite
def rings(draw):
    dim = draw(st.integers(1, 3))
    return dim, SeriesRing(tvars=[f"t{i}" for i in range(dim)],
                           q_denominator=draw(st.integers(1, 2)),
                           t_cap=draw(st.integers(0, 4)),
                           q_cap=draw(st.integers(0, 2)))


@st.composite
def coefficients(draw, ring):
    c = ring.scalar(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
    qnum = draw(st.integers(0, ring.q_cap_num))
    return c * ring.q_power(Fraction(qnum, ring.q_denominator))


@st.composite
def vectors(draw, ring, dim):
    """Zero, one-hot or random series vectors."""
    shape = draw(st.sampled_from(["zero", "one-hot", "random"]))
    if shape == "zero":
        return tuple(ring.zero() for _ in range(dim))
    if shape == "one-hot":
        hot = draw(st.integers(0, dim - 1))
        return tuple(ring.one() if i == hot else ring.zero() for i in range(dim))
    out = []
    for _ in range(dim):
        entry = ring.zero()
        for _ in range(draw(st.integers(0, 3))):
            texp = tuple(draw(st.integers(0, 2)) for _ in range(dim))
            key = (texp, draw(st.integers(0, ring.q_cap_num)), 0)
            if ring._inside(key):
                entry = entry + Series(ring, {key: Fraction(draw(st.integers(-3, 3)))})
        out.append(entry)
    return tuple(out)


@st.composite
def argument_lists(draw, ring, dim, n):
    """n argument vectors, some of them repeated identically."""
    pool = draw(st.lists(vectors(ring, dim), min_size=1, max_size=3))
    return [draw(st.sampled_from(pool)) for _ in range(n)]


@st.composite
def sparse_keys(draw, dim, n):
    keys = list(itertools.combinations_with_replacement(range(dim), n))
    return draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))


@st.composite
def vector_cases(draw):
    dim, ring = draw(rings())
    n = draw(st.integers(0, 4))
    tensor = {}
    for key in draw(sparse_keys(dim, n)):
        outs = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
        tensor[key] = {j: draw(coefficients(ring)) for j in outs}
    return ring, dim, n, tensor, draw(argument_lists(ring, dim, n))


@st.composite
def scalar_cases(draw):
    dim, ring = draw(rings())
    n = draw(st.integers(0, 4))
    tensor = {key: draw(coefficients(ring)) for key in draw(sparse_keys(dim, n))}
    return ring, dim, n, tensor, draw(argument_lists(ring, dim, n))


@st.composite
def pp_cases(draw):
    dim, ring = draw(rings())
    n = draw(st.integers(0, 3))
    pts_keys = draw(sparse_keys(dim, 2))
    tensor = {(p, b): draw(coefficients(ring))
              for p in pts_keys for b in draw(sparse_keys(dim, n))}
    return (ring, dim, n, tensor, draw(argument_lists(ring, dim, 2)),
            draw(argument_lists(ring, dim, n)))


class TestAgainstDenseLoops:
    @SETTINGS
    @given(vector_cases())
    def test_apply_mu(self, case):
        ring, dim, n, tensor, args = case
        alg = CohFTAlgebra(ring, tuple(range(dim)), {n: tensor})
        assert alg.apply_mu(n, args) == ref_apply_tensor(ring, dim, tensor, args)

    @SETTINGS
    @given(vector_cases())
    def test_apply_phi(self, case):
        ring, dim, n, tensor, args = case
        phi = Morphism(ring, dim, dim, {n: tensor})
        expected = (phi.phi0 if n == 0
                    else ref_apply_tensor(ring, dim, tensor, args))
        assert phi.apply_phi(n, args) == expected

    @SETTINGS
    @given(scalar_cases())
    def test_apply_tau(self, case):
        ring, dim, n, tensor, args = case
        trace = Trace(ring, dim, {n: tensor})
        assert (trace.apply_tau(n, args)
                == ref_apply_scalar_tensor(ring, tensor, args))

    @SETTINGS
    @given(pp_cases())
    def test_apply_tau_pp(self, case):
        ring, dim, n, tensor, pts, bulk = case
        trace = Trace(ring, dim, {}, {n: tensor})
        assert (trace.apply_tau_pp(pts, bulk)
                == ref_apply_tau_pp(ring, dim, tensor, pts, bulk))

    def test_key_of_another_length_adds_zero(self):
        ring = SeriesRing(tvars=["t0"], t_cap=3)
        trace = Trace(ring, 1, {2: {(0,): ring.one(), (0, 0): ring.one()}})
        v = generic_point(ring, 1)
        assert trace.apply_tau(2, [v, v]) == ring.t(0) ** 2


class TestIndexRange:
    @pytest.mark.parametrize("inputs, output", [
        ((0, -1), 0), ((0, 2), 0), ((0, 1), -1), ((0, 1), 2)])
    def test_algebra_and_morphism(self, inputs, output):
        ring = SeriesRing(tvars=["t0", "t1"], t_cap=2)
        with pytest.raises(InvalidArgument):
            algebra_from_terms(ring, ("a", "b"), [(inputs, output, 1)])
        with pytest.raises(InvalidArgument):
            morphism_from_terms(ring, 2, 2, [(inputs, output, 1)])

    def test_morphism_checks_each_side(self):
        ring = SeriesRing(tvars=["t0"], t_cap=2)
        morphism_from_terms(ring, 1, 3, [((0,), 2, 1)])
        with pytest.raises(InvalidArgument):
            morphism_from_terms(ring, 3, 1, [((0,), 2, 1)])

    @pytest.mark.parametrize("inputs", [(0, -1), (3,), (0, 0, 5)])
    def test_trace(self, inputs):
        ring = SeriesRing(tvars=["t0"], t_cap=2)
        with pytest.raises(InvalidArgument):
            trace_from_terms(ring, 3, [(inputs, 1)])
        with pytest.raises(InvalidArgument):
            trace_from_terms(ring, 3, [], pp_terms=[((0, 0), inputs, 1)])

    @pytest.mark.parametrize("pts", [(0, -1), (3, 0)])
    def test_trace_point_slots(self, pts):
        ring = SeriesRing(tvars=["t0"], t_cap=2)
        with pytest.raises(InvalidArgument):
            trace_from_terms(ring, 3, [], pp_terms=[(pts, (), 1)])


# -- pinned values of the calculus --

def _canon(x):
    if isinstance(x, Series):
        return repr(sorted(x.coeffs.items()))
    if isinstance(x, dict):
        return "{" + ",".join(f"{k!r}:{_canon(v)}"
                              for k, v in sorted(x.items())) + "}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in x) + ")"
    return repr(x)


def calculus_values():
    """Fixed-seed results of every calculus operation, in a fixed order."""
    out = []
    ring = SeriesRing(tvars=["t0", "t1"], t_cap=5)
    point = generic_point(ring, 2)
    for seed in range(3):
        phi = random_flat_morphism(seed, ring, 2, 2, max_arity=4)
        tau = random_trace(seed + 10, ring, 2, max_arity=5)
        curved = Morphism(ring, 2, 2, phi.phi,
                          (ring.scalar(Fraction(1, 2)), ring.zero()))
        for m in (phi, curved):
            ct = compose_trace(tau, m, point)
            out += [ct.substitution, ct.partition_sum, push_forward(m, point),
                    derivative(m, point, 1)]
    ring3 = SeriesRing(tvars=["t0", "t1", "t2"], q_denominator=2, t_cap=3,
                       q_cap=1)
    for seed in range(2):
        alg = random_even_algebra(seed, dim=3, max_arity=4, t_cap=3)
        v = generic_point(alg.ring, 3)
        out += [star_product(alg, v, i, j)
                for i, j in itertools.combinations_with_replacement(range(3), 2)]
        out.append(repr(check_associativity(alg)))
        q_alg = algebra_from_terms(
            ring3, ("a", "b", "c"),
            [((0, 0), 0, 1), ((0, 1), 1, 1), ((1, 1), 2, ring3.q_power("1/2")),
             ((0, 1, 2), 0, ring3.q_power(1) * Fraction(-2, 3)),
             ((2, 2, 2), 1, Fraction(5, 2))])
        out.append(star_product(q_alg, generic_point(ring3, 3), 2, 1))
        other = random_even_algebra(seed + 7, dim=3, max_arity=4, t_cap=3)
        m = random_flat_morphism(seed, alg.ring, 3, 3, max_arity=3)
        out.append(repr(check_star_morphism(m, alg, other)))
    for k in (2, 3):
        out.append(solve_qde(small_quantum_projective(k), xi=1, q_cap=3).sigma)
    ring1 = SeriesRing(tvars=["t0", "t1"], t_cap=4)
    pp = [(p, b, Fraction(len(b) + 1, sum(p) + 1))
          for n in range(4)
          for p in itertools.combinations_with_replacement(range(2), 2)
          for b in itertools.combinations_with_replacement(range(2), n)]
    tau_w = trace_from_terms(ring1, 2, [], pp_terms=pp)
    phi = random_flat_morphism(3, ring1, 2, 2, max_arity=3)
    tau_v = pp_family_from(tau_w, phi, bulk_max=3)
    out.append(tau_v.tau_pp)
    out.append(bilinear_form(tau_v, generic_point(ring1, 2), 0, 1))
    out.append(repr(check_isometry(tau_v, tau_w, phi)))
    out.append(repr(check_isometry(tau_w, tau_w, phi)))
    return out


# SHA-256 of calculus_values(); recompute it only for a deliberate change
# of the calculus, never to make a refactor pass.
PINNED_DIGEST = "cd50cfe16748d913a7e8776d0ed9e0640632d190be311a718b3c921208458547"


def test_pinned_calculus_digest():
    text = "\n".join(_canon(x) for x in calculus_values())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


# -- one contraction memo per public call, against the dense loops --
#
# compose_trace, check_star_morphism, pp_family_from and check_isometry
# each share one memo across every tensor they evaluate.  The references
# below rebuild each from the dense loops above, with no memo at all.

def ref_weighted(ring, dim_out, start, terms):
    out = list(start)
    for tensor, args, divisor in terms:
        image = ref_apply_tensor(ring, dim_out, tensor, args)
        out = [x + y / divisor for x, y in zip(out, image)]
    return tuple(out)


def ref_push_forward(phi, v):
    return ref_weighted(phi.ring, phi.dim_w, phi.phi0,
                        [(phi.phi[n], [v] * n, math.factorial(n))
                         for n in phi.phi])


def ref_derivative(phi, v, a):
    ring = phi.ring
    return ref_weighted(ring, phi.dim_w, [ring.zero()] * phi.dim_w,
                        [(phi.phi[n], [a] + [v] * (n - 1),
                          math.factorial(n - 1)) for n in phi.phi])


def ref_star(alg, v, a, b):
    ring = alg.ring
    return ref_weighted(ring, alg.dim, [ring.zero()] * alg.dim,
                        [(alg.mu[n], [a, b] + [v] * (n - 2),
                          math.factorial(n - 2)) for n in alg.mu])


def one_hot(ring, dim, i):
    return tuple(ring.one() if j == i else ring.zero() for j in range(dim))


def ref_witness(head, lhs, rhs, components=None):
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


def ref_compose_trace(tau, phi, v, order):
    """Both routes of compose_trace, the partition route summed over
    every set partition of the diagonal inputs, one at a time."""
    ring = phi.ring
    w = ref_push_forward(phi, v)
    subst = ring.zero()
    for n, tensor in tau.tau.items():
        subst = subst + ref_apply_scalar_tensor(ring, tensor, [w] * n) \
            / math.factorial(n)
    images = {m: ref_apply_tensor(ring, phi.dim_w, phi.phi[m], [v] * m)
              for m in phi.phi}
    max_r = max(tau.tau, default=0)
    total = ring.zero()
    for n in range(order + 1):
        for blocks in set_partitions(range(n)):
            sizes = [len(block) for block in blocks]
            if any(s not in images for s in sizes):
                continue
            for k in range(max_r - len(sizes) + 1):
                if len(sizes) + k in tau.tau:
                    args = [images[s] for s in sizes] + [phi.phi0] * k
                    total = total + ref_apply_scalar_tensor(
                        ring, tau.tau[len(sizes) + k], args) \
                        / (math.factorial(n) * math.factorial(k))
    return subst, total


def ref_star_morphism(phi, alg_v, alg_w, v):
    ring = phi.ring
    w = ref_push_forward(phi, v)
    basis = [one_hot(ring, phi.dim_v, i) for i in range(phi.dim_v)]
    jac = [ref_derivative(phi, v, e) for e in basis]
    for i, j in itertools.combinations_with_replacement(range(phi.dim_v), 2):
        lhs = ref_derivative(phi, v, ref_star(alg_v, v, basis[i], basis[j]))
        rhs = ref_star(alg_w, w, jac[i], jac[j])
        wit = ref_witness({"pair": (i, j)}, lhs, rhs, range(phi.dim_w))
        if wit:
            return False, wit
    return True, None


def ref_pp_family(tau_w, phi, bulk_max):
    ring, dim = phi.ring, phi.dim_v
    tau_pp = {}
    for n in range(bulk_max + 1):
        tensor = {}
        for pidx in itertools.combinations_with_replacement(range(dim), 2):
            for bidx in itertools.combinations_with_replacement(range(dim), n):
                slots = [one_hot(ring, dim, i) for i in pidx + bidx]
                total = ring.zero()
                for blocks in set_partitions(range(n + 2)):
                    if (any({0, 1} <= block for block in blocks)
                            or any(len(b) not in phi.phi for b in blocks)
                            or len(blocks) - 2 not in tau_w.tau_pp):
                        continue
                    images = [(min(block), ref_apply_tensor(
                        ring, phi.dim_w, phi.phi[len(block)],
                        [slots[s] for s in sorted(block)])) for block in blocks]
                    pts = [img for first, img in images if first < 2]
                    bulk = [img for first, img in images if first >= 2]
                    total = total + ref_apply_tau_pp(
                        ring, phi.dim_w, tau_w.tau_pp[len(bulk)], pts, bulk)
                if not total.is_zero():
                    tensor[(pidx, bidx)] = total
        tau_pp[n] = tensor
    return tau_pp


def ref_bilinear(trace, v, a, b):
    total = trace.ring.zero()
    for n, tensor in trace.tau_pp.items():
        total = total + ref_apply_tau_pp(trace.ring, trace.dim, tensor,
                                         [a, b], [v] * n) / math.factorial(n)
    return total


def ref_isometry(tau_v, tau_w, phi, v):
    ring = phi.ring
    w = ref_push_forward(phi, v)
    basis = [one_hot(ring, phi.dim_v, i) for i in range(phi.dim_v)]
    jac = [ref_derivative(phi, v, e) for e in basis]
    for i, j in itertools.combinations_with_replacement(range(phi.dim_v), 2):
        lhs = ref_bilinear(tau_v, v, basis[i], basis[j])
        rhs = ref_bilinear(tau_w, w, jac[i], jac[j])
        wit = ref_witness({"pair": (i, j)}, (lhs,), (rhs,))
        if wit:
            return False, wit
    return True, None


def pp_target(ring, seed, bulk_max=3):
    """A dense two-point-class family on a 2-dimensional target."""
    rng = random.Random(seed)
    terms = [(p, b, Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
             for n in range(bulk_max + 1)
             for p in itertools.combinations_with_replacement(range(2), 2)
             for b in itertools.combinations_with_replacement(range(2), n)]
    return trace_from_terms(ring, 2, [], pp_terms=terms)


def curved(phi, seed):
    rng = random.Random(seed)
    ring = phi.ring
    phi0 = tuple(ring.scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                 for _ in range(phi.dim_w))
    return Morphism(ring, phi.dim_v, phi.dim_w, phi.phi, phi0)


MEMO_SEEDS = range(6)


class TestSharedMemoAgainstDenseLoops:
    @pytest.mark.parametrize("seed", MEMO_SEEDS)
    def test_compose_trace(self, seed):
        # t_cap 3 truncates the degree-4 and -5 terms of the trace
        ring = SeriesRing(tvars=["t0", "t1"], t_cap=3 + seed % 3)
        v = generic_point(ring, 2)
        tau = random_trace(seed + 20, ring, 2, max_arity=4)
        flat = random_flat_morphism(seed, ring, 2, 2, max_arity=3)
        for phi in (flat, curved(flat, seed)):
            for order in (None, 2):
                ct = compose_trace(tau, phi, v, order)
                subst, total = ref_compose_trace(
                    tau, phi, v, ring.t_cap if order is None else order)
                assert ct.substitution == subst
                assert ct.partition_sum == total

    @pytest.mark.parametrize("seed", MEMO_SEEDS)
    def test_check_star_morphism(self, seed):
        alg = random_even_algebra(seed, dim=2, max_arity=4, t_cap=2 + seed % 2)
        other = random_even_algebra(seed + 30, dim=2, max_arity=3,
                                    t_cap=2 + seed % 2)
        v = generic_point(alg.ring, 2)
        flat = random_flat_morphism(seed, alg.ring, 2, 2, max_arity=3)
        for phi in (flat, curved(flat, seed)):
            for target in (alg, other):
                assert (repr(check_star_morphism(phi, alg, target))
                        == repr(ref_star_morphism(phi, alg, target, v)))
        ident = identity_morphism(alg.ring, 2)
        assert (check_star_morphism(ident, alg, alg)
                == ref_star_morphism(ident, alg, alg, v) == (True, None))

    @pytest.mark.parametrize("seed", MEMO_SEEDS)
    def test_pp_family_and_isometry(self, seed):
        # pp_family_from evaluates the target family on fresh block
        # images, dropped after each partition, so a memo keyed by bare
        # ids would meet recycled ids here
        ring = SeriesRing(tvars=["t0", "t1"], t_cap=2 + seed % 3)
        tau_w = pp_target(ring, seed)
        phi = random_flat_morphism(seed + 40, ring, 2, 2, max_arity=3)
        tau_v = pp_family_from(tau_w, phi, bulk_max=3)
        assert tau_v.tau_pp == ref_pp_family(tau_w, phi, 3)
        v = generic_point(ring, 2)
        for source in (tau_v, tau_w):
            assert (repr(check_isometry(source, tau_w, phi))
                    == repr(ref_isometry(source, tau_w, phi, v)))


def test_memo_outlives_dropped_vectors():
    # White-box: one memo across evaluations whose argument vectors are
    # built and dropped in turn.  Each memo entry holds its suffix, so a
    # later vector can never take a dropped one's id and read its sums.
    ring = SeriesRing(tvars=["t0", "t1"], t_cap=4)
    rng = random.Random(2701)
    tensors = {n: {key: {j: ring.scalar(Fraction(rng.randint(-3, 3), 2))
                         for j in range(2)}
                   for key in itertools.combinations_with_replacement(
                       range(2), n)}
               for n in (1, 2, 3)}
    memo = {}

    def evaluate(k):
        # the vectors die when this returns, so the next call's may
        # reuse their memory
        v = tuple(ring.scalar(k + 1) * ring.t(i) + ring.scalar(k - i)
                  for i in range(2))
        a = tuple(ring.scalar(Fraction(k, 3) + i) for i in range(2))
        for n, tensor in tensors.items():
            args = [a] + [v] * (n - 1)
            assert (cohft._apply_tensor(ring, 2, tensor, args, memo)
                    == cohft._apply_tensor(ring, 2, tensor, args, {})), k

    for k in range(60):
        evaluate(k)
