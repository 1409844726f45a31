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
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
