"""The four benchmark workloads, their inputs, checks and replays.

Each workload puts its load on a different layer of treelevel:

* ``enumerate``  -- strata, graphs and cli: ``treelevel strata --json``.
* ``degenerate`` -- morphisms, writing graphs: forget-tail commutation,
  the closure poset's collapses and ``divisors --verify``.
* ``cones``      -- cones, linalg and kirwan: gluing cones of shuffled
  strata and ``treelevel kirwan --json``.
* ``calculus``   -- cohft and series: trace composition, star-morphism,
  associativity and quantum-differential-equation checks.

A workload object makes its inputs from the seed when it is built,
runs them in ``body`` (the timed part) and checks the outputs in
``check`` against references that do not come from the timed code:
closed forms, OEIS counts, values pinned at commit facfb92, or
invariants such as shuffle independence.  The seed reaches the program
only through the inputs made here.  In a traced run, ``layers`` adds
the per-layer numbers read from the outputs and the replays: a layer
reached only through another one is called again, directly, on the
inputs the workload made, under a span marked as a replay.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

from treelevel import cli, cohft
from treelevel.cones import cone_summary
from treelevel.graphs import MarkedGraph, canonical_key, validate
from treelevel.morphisms import forget_tail
from treelevel.selftest import singular_cone_tree
from treelevel.series import SeriesRing
from treelevel.strata import MULT, SCALED, closure_poset, enumerate_strata

# OEIS A000311 (Schroeder's fourth problem), a(0..7).  m0(n) has
# a(n-1) strata and fm(n) has 2*a(n).
A000311 = (0, 1, 1, 4, 26, 236, 2752, 39208)
# Strata of mult(n), checked against treelevel.bruteforce at commit
# facfb92; scaled(n) has twice as many.
MULT_COUNT = {4: 170, 5: 2208}

STRATA_CASES = (("m0", 7), ("fm", 5), ("mult", 5), ("scaled", 4))

DIVISOR_ARGVS = (
    ["divisors", "--space", "mult", "--n", "6", "--verify", "pullback"],
    ["divisors", "--space", "m0", "--n", "7", "--verify", "m04", "--split", "12|34"],
    ["divisors", "--space", "m0", "--n", "7", "--verify", "m04", "--split", "13|24"],
    ["divisors", "--space", "m0", "--n", "7", "--verify", "m04", "--split", "14|23"],
    ["divisors", "--space", "scaled", "--n", "6", "--verify", "rho"],
)

# (weights, degree bound) for `treelevel kirwan --json`.
KIRWAN_CASES = (((1, 2, 3, 4, 5, 6), 2), ((1, 2, 3, 5), 6)) + tuple(
    ((1,) * k, 4) for k in range(2, 7))

# Cone totals per space: (non-simplicial cones, extremal rays).  Both
# are invariants of the stratum, so no edge order may change them.
CONE_TOTALS = {"mult(4)": (3, 379), "scaled(4)": (6, 928)}
# The criterion-3 cone, up to a change of lattice basis.
SINGULAR_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1))

# The deepest strata of mult(5), where forgetting a leg cascades most:
# those with at least this many edges (770 of 2208 at commit facfb92).
FORGET_MIN_EDGES = 6
MULT5_DEEP_STRATA = 770
# Cover relations in the closure poset of mult(4), pinned at commit facfb92.
MULT4_POSET_COVERS = 379

# SHA-256 of each command's stdout at commit facfb92: the CLI output
# must stay byte-identical.
STDOUT_SHA256 = {
    'strata --space m0 --n 7 --json':
        '750aa1f0da3f6cfdb03f90629f38ca4ce1d4c7d72c46b79ef8133ccc85e3577c',
    'strata --space fm --n 5 --json':
        '130fb74ae0f162452bd9bff637ede35f2c1c457935b91d4cc81c18e38185490e',
    'strata --space mult --n 5 --json':
        '1e84e3721ffad5f062250cf2ae6c27383cf4fafc9bc00845ab52496fdb6d6002',
    'strata --space scaled --n 4 --json':
        'b3d777df51a0739e65cb238d7c2273de0c9895685625ef21961e24c9574432ec',
    'divisors --space mult --n 6 --verify pullback':
        '93b131e6905b3a19a2c8851cb9d066f0fc417e16bb076a015737508f92281223',
    'divisors --space m0 --n 7 --verify m04 --split 12|34':
        '78ba88eb8aa61463c8aae116568131d791e5e7a6a94af75d5e8910398982e2e4',
    'divisors --space m0 --n 7 --verify m04 --split 13|24':
        '3f8bfab19c99059f9fd268616e81f12f0d6c5c253d737ab3220b0984920d6825',
    'divisors --space m0 --n 7 --verify m04 --split 14|23':
        '2f023d399701e06baaac22932ad86076e035c05dc6a331b5de374b19b904aa65',
    'divisors --space scaled --n 6 --verify rho':
        '42a210478eda213f82f2ef37b61199dfa313f9126f1b076e2b8f1b1360ef86b2',
    'kirwan --weights 1,2,3,4,5,6 --degree-bound 2 --json':
        '6f1e77211edd81551e92a1a55696207e36d6f351df55d617baf5390ee4024699',
    'kirwan --weights 1,2,3,5 --degree-bound 6 --json':
        '1b630a3e6524001f097c954f8213a2624a4db80237cc955739969acbffa83612',
    'kirwan --weights 1,1 --degree-bound 4 --json':
        '0d01fdd8b3799912836ee37e15080926541ae9f282bf07cdcf0d53672e2e247f',
    'kirwan --weights 1,1,1 --degree-bound 4 --json':
        '54da5a8919421ef23a75ea3d5ab74058958a1eb56b7279a44a75b1e60b042804',
    'kirwan --weights 1,1,1,1 --degree-bound 4 --json':
        '6ee1fe174eb2af86459558c32c00ea063013772978caf3ad8aae44432bd58f0e',
    'kirwan --weights 1,1,1,1,1 --degree-bound 4 --json':
        '8f865a44f6ae8f97bd456590a81ca26d7c697b04e29479a1a38b8e5d2e01833b',
    'kirwan --weights 1,1,1,1,1,1 --degree-bound 4 --json':
        'e19c3b8ff26319420d900772e1d972139452b2c10cb2c8043717544381190542',
}

COMPOSE_INSTANCES = 5
COMPOSE_T_CAP = 6
STAR_INSTANCES = 10
PROJECTIVE_K = range(2, 7)   # P^1 .. P^5
QDE_Q_CAP = 8


def strata_argv(family, n):
    return ["strata", "--space", family, "--n", str(n), "--json"]


def kirwan_argv(weights, bound):
    return ["kirwan", "--weights", ",".join(map(str, weights)),
            "--degree-bound", str(bound), "--json"]


def expected_strata(family, n):
    if family == "m0":
        return A000311[n - 1]
    if family == "fm":
        return 2 * A000311[n]
    if family == "mult":
        return MULT_COUNT[n]
    return 2 * MULT_COUNT[n]


def closed_form_presentation(weights):
    """prod(w^w) * xi^(sum w) = q, the degree-one relation of C^k."""
    scalar = math.prod(w ** w for w in weights)
    power = sum(weights)
    return (f"xi^{power}" if scalar == 1 else f"{scalar}*xi^{power}") + " = q"


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def lattice_equivalent(rays, target):
    """Whether a unimodular integer map sends the four rays in Z^3 onto
    ``target``.  Such a map exists iff, for some orderings, three rays
    and three targets are lattice bases and the fourth ray has the same
    coordinates in its basis as the fourth target in its own.  Written
    here so the check shares no code with the cone kernel it checks."""

    def signatures(vecs):
        out = set()
        for perm in itertools.permutations(vecs):
            basis, rest = perm[:3], perm[3]
            det = _det3(*basis)
            if abs(det) == 1:  # Cramer's rule; 1/det == det
                out.add(tuple(
                    det * _det3(*(rest if k == i else basis[k] for k in range(3)))
                    for i in range(3)))
        return out

    rays = [tuple(r) for r in rays]
    if len(rays) != 4 or len(set(rays)) != 4:
        return False
    return bool(signatures(rays) & signatures(target))


class Checks:
    """Counts checks attempted and failed; keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, ok, what):
        self.many(1, 0 if ok else 1, what)

    def many(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{what} ({failed} of {attempted})")


class HashSink(io.TextIOBase):
    """Stands in for stdout: hashes and counts the bytes written, and
    keeps the text only when a check needs to read it."""

    def __init__(self, keep=False):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.parts = [] if keep else None

    def writable(self):
        return True

    def write(self, s):
        data = s.encode()
        self.sha.update(data)
        self.nbytes += len(data)
        if self.parts is not None:
            self.parts.append(s)
        return len(s)

    def text(self):
        return "".join(self.parts)


class CliRun:
    def __init__(self, tr, argv, keep=False):
        self.argv = argv
        self.sink = HashSink(keep)
        with contextlib.redirect_stdout(self.sink):
            self.rc = tr.call("cli.main", cli.main, argv)

    def check(self, ck):
        cmd = " ".join(self.argv)
        ck(self.rc == 0, f"`treelevel {cmd}` exit code {self.rc}")
        ck(self.sink.sha.hexdigest() == STDOUT_SHA256.get(cmd),
           f"`treelevel {cmd}` stdout differs from commit facfb92")


def _replay(tr, name, fn, graphs):
    """Call ``fn`` on every graph under one replay span; microseconds per call."""
    if not graphs:
        return 0.0
    with tr.span("replay." + name, replay=True):
        t0 = time.perf_counter()
        for g in graphs:
            fn(g)
        return (time.perf_counter() - t0) / len(graphs) * 1e6


class Enumerate:
    """Deterministic: run.py records the seed and nothing here uses it."""

    unit = "strata records"

    def __init__(self, seed):
        pass

    def body(self, tr):
        self.runs = []
        for family, n in STRATA_CASES:
            with tr.span(f"job.strata {family}({n})"):
                self.runs.append(CliRun(tr, strata_argv(family, n), keep=True))

    def check(self, ck):
        self.items = 0
        self.records = []
        for (family, n), run in zip(STRATA_CASES, self.runs):
            run.check(ck)
            doc = json.loads(run.sink.text())
            records = doc["strata"]
            ck(len(records) == expected_strata(family, n),
               f"{family}({n}): {len(records)} strata, expected "
               f"{expected_strata(family, n)}")
            ambient = doc["ambient_dimension"]
            bad = sum(1 for r in records
                      if r["dimension"] + r["codimension"] != ambient)
            ck.many(len(records), bad,
                    f"{family}({n}): dimension + codimension != {ambient}")
            self.items += len(records)
            self.records.extend(records)

    def layers(self, tr):
        graphs = [MarkedGraph.from_json_obj(r) for r in self.records]
        return {
            "graphs.validate_replay_us": _replay(tr, "graphs.validate",
                                                 validate, graphs),
            "graphs.canonical_key_replay_us": _replay(
                tr, "graphs.canonical_key", canonical_key, graphs),
        }

    def bytes_out(self):
        return sum(run.sink.nbytes for run in self.runs)


class Degenerate:
    """The seed picks the leg pair.  The strata of mult(5) with at least
    FORGET_MIN_EDGES edges are closed under permuting legs, so every
    pair does the same amount of work."""

    unit = "forget_tail calls"

    def __init__(self, seed):
        self.pair = tuple(sorted(random.Random(seed).sample(range(1, 6), 2)))
        self.strata = [g for g in enumerate_strata(MULT(5))
                       if len(g.edges) >= FORGET_MIN_EDGES]

    def body(self, tr):
        i, j = self.pair
        self.results = []
        self.mismatches = 0
        call = tr.call
        with tr.span(f"job.forget {i},{j} on deep strata of mult(5)"):
            for g in self.strata:
                a = call("morphisms.forget_tail", forget_tail,
                         call("morphisms.forget_tail", forget_tail, g, i), j)
                b = call("morphisms.forget_tail", forget_tail,
                         call("morphisms.forget_tail", forget_tail, g, j), i)
                if (call("graphs.canonical_key", canonical_key, a)
                        != call("graphs.canonical_key", canonical_key, b)):
                    self.mismatches += 1
                self.results.append(a)
        with tr.span("job.closure_poset mult(4)"):
            self.poset = tr.call("strata.closure_poset", closure_poset, MULT(4))
        self.runs = []
        for argv in DIVISOR_ARGVS:
            with tr.span("job." + " ".join(argv)):
                self.runs.append(CliRun(tr, argv))

    def check(self, ck):
        i, j = self.pair
        ck.many(len(self.strata), self.mismatches,
                f"forgetting {i} then {j} disagrees with {j} then {i}")
        ck(len(self.strata) == MULT5_DEEP_STRATA,
           f"{len(self.strata)} strata of mult(5) with >= {FORGET_MIN_EDGES} edges")
        ck(len(self.poset.strata) == MULT_COUNT[4], "mult(4) poset size")
        covers = sum(len(t) for t in self.poset.covers.values())
        ck(covers == MULT4_POSET_COVERS, f"mult(4) poset has {covers} covers")
        for run in self.runs:
            run.check(ck)
        self.items = 4 * len(self.strata)

    def layers(self, tr):
        return {
            "graphs.validate_replay_us": _replay(tr, "graphs.validate",
                                                 validate, self.results),
            "graphs.canonical_key_replay_us": _replay(
                tr, "graphs.canonical_key", canonical_key, self.results),
        }

    def bytes_out(self):
        return sum(run.sink.nbytes for run in self.runs)


class Cones:
    """The seed shuffles the stored edge order of every stratum."""

    unit = "cones classified"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.cases = []
        for space in (MULT(4), SCALED(4)):
            shuffled = []
            for g in enumerate_strata(space):
                obj = g.to_json_obj()
                rng.shuffle(obj["edges"])
                shuffled.append(MarkedGraph.from_json_obj(obj))
            self.cases.append((space, shuffled))
        self.singular = singular_cone_tree()

    def body(self, tr):
        call = tr.call
        self.summaries = []
        for space, graphs in self.cases:
            with tr.span(f"job.classify {space}"):
                self.summaries.append(
                    [call("cones.classify", cone_summary, h, space) for h in graphs])
        with tr.span("job.classify criterion 3"):
            self.singular_summary = call("cones.classify", cone_summary,
                                         self.singular)
        self.runs = []
        for weights, bound in KIRWAN_CASES:
            argv = kirwan_argv(weights, bound)
            with tr.span("job." + " ".join(argv)):
                self.runs.append(CliRun(tr, argv, keep=True))

    def check(self, ck):
        self.items = 1
        self.rays = self.generators = 0
        for (space, graphs), summaries in zip(self.cases, self.summaries):
            bad = sum(1 for s in summaries if s["ambient_rank"] != s["codimension"])
            ck.many(len(summaries), bad, f"{space}: ambient rank != codimension")
            totals = (sum(1 for s in summaries if not s["simplicial"]),
                      sum(s["ray_count"] for s in summaries))
            ck(totals == CONE_TOTALS[str(space)],
               f"{space}: (non-simplicial, rays) = {totals}, expected "
               f"{CONE_TOTALS[str(space)]}")
            self.items += len(summaries)
            self.rays += totals[1]
            self.generators += sum(len(h.edges) for h in graphs)
        s = self.singular_summary
        ck(s["ambient_rank"] == 3 and not s["simplicial"]
           and lattice_equivalent(s["rays"], SINGULAR_RAYS),
           f"criterion-3 cone: rays {s['rays']}")
        self.relations = self.degrees = 0
        for (weights, bound), run in zip(KIRWAN_CASES, self.runs):
            run.check(ck)
            doc = json.loads(run.sink.text())
            ck(doc["presentation"] == closed_form_presentation(weights),
               f"kirwan {weights}: {doc['presentation']!r}")
            self.relations += len(doc["relations"])
            self.degrees += bound * math.lcm(*weights)

    def layers(self, tr):
        return {"cones.rays_per_generator": self.rays / self.generators,
                "kirwan.relations_per_degree": self.relations / self.degrees}

    def bytes_out(self):
        return sum(run.sink.nbytes for run in self.runs)


def _coefficient(rng, top, den):
    return Fraction(rng.choice([k for k in range(-top, top + 1) if k]),
                    rng.randint(1, den))


def _entries(dim, arities):
    """Sorted index tuples of every entry of symmetric tensors."""
    return [idx for n in arities
            for idx in itertools.combinations_with_replacement(range(dim), n)]


class Calculus:
    """The seed draws the coefficients of the morphisms, traces and
    algebras.  Every tensor entry is present and nonzero, so only the
    values change from seed to seed, not the amount of work."""

    unit = "checks completed"

    def __init__(self, seed):
        rng = random.Random(seed)
        ring = SeriesRing(tvars=["t0", "t1"], t_cap=COMPOSE_T_CAP)
        point = cohft.generic_point(ring, 2)
        self.compose = []
        for _ in range(COMPOSE_INSTANCES):
            tau = cohft.trace_from_terms(
                ring, 2, [(idx, _coefficient(rng, 3, 3))
                          for idx in _entries(2, range(6))])
            phi = cohft.morphism_from_terms(
                ring, 2, 2, [(idx, out, _coefficient(rng, 2, 2))
                             for idx in _entries(2, range(1, 5)) for out in range(2)])
            self.compose.append((tau, phi, point))
        ring3 = SeriesRing(tvars=["t0", "t1", "t2"], t_cap=3)
        self.algebras = [
            cohft.algebra_from_terms(
                ring3, ("e0", "e1", "e2"),
                [(idx, out, _coefficient(rng, 3, 3))
                 for idx in _entries(3, range(2, 5)) for out in range(3)])
            for _ in range(STAR_INSTANCES)]
        self.projective = [cohft.small_quantum_projective(k) for k in PROJECTIVE_K]

    def body(self, tr):
        call = tr.call
        with tr.span("job.compose_trace"):
            self.composed = [call("cohft.compose_trace", cohft.compose_trace, *args)
                             for args in self.compose]
        with tr.span("job.star_morphism"):
            self.star = [
                call("cohft.star_morphism", cohft.check_star_morphism,
                     cohft.identity_morphism(alg.ring, alg.dim), alg, alg)[0]
                for alg in self.algebras]
        with tr.span("job.associativity"):
            self.assoc = [call("cohft.associativity", cohft.check_associativity,
                               alg)[0] for alg in self.projective]
        with tr.span("job.solve_qde"):
            self.qde = [call("cohft.solve_qde", cohft.solve_qde, alg, 1, QDE_Q_CAP)
                        for alg in self.projective]

    def check(self, ck):
        ck.many(len(self.composed), sum(1 for c in self.composed if not c.agree),
                "compose_trace: substitution and partition sum disagree")
        ck.many(len(self.star), self.star.count(False),
                "identity is not a star morphism")
        ck.many(len(self.assoc), self.assoc.count(False),
                "projective product not associative")
        ck.many(len(self.qde), sum(1 for s in self.qde if not s.residual_is_zero()),
                "quantum differential equation residual is not zero")
        self.items = (len(self.composed) + len(self.star) + len(self.assoc)
                      + len(self.qde))

    def layers(self, tr):
        return {}

    def bytes_out(self):
        return 0


WORKLOADS = {
    "enumerate": Enumerate,
    "degenerate": Degenerate,
    "cones": Cones,
    "calculus": Calculus,
}
