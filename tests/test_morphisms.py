import hashlib
import itertools
import random

import pytest

from treelevel.errors import (
    CannotForgetRoot,
    DuplicateLegLabel,
    ForbiddenCollapse,
    ForbiddenCut,
    InvalidArgument,
    InvalidGraph,
    MinimumMarkings,
    NoSuchEdge,
    NoSuchLeg,
    NothingToCollapse,
    NotInfinityVertex,
    TreelevelError,
)
from treelevel import graphs
from treelevel.graphs import (
    COLORED_KINDS,
    ROOTED_KINDS,
    Color,
    Kind,
    MarkedGraph,
    canonical_key,
    colored_tree,
    is_isomorphic,
    is_stable,
    modular_graph,
    require_valid,
    rooted_forest,
    validate,
)
from treelevel.morphisms import (
    collapse_edge,
    collapse_with_relations,
    compact_legs,
    cut_edge,
    forget_tail,
    relabel_legs,
)
from treelevel.strata import FM, M0, MULT, SCALED, enumerate_strata


def open_mult(n):
    return colored_tree({0: Color.COLORED}, [], {l: 0 for l in range(n + 1)})


def sep_divisor():
    return colored_tree(
        {0: Color.INFINITY, 1: Color.COLORED, 2: Color.COLORED},
        [(0, 1), (0, 2)], {0: 0, 1: 1, 2: 2})


class TestCollapseEdge:
    def test_genus_adds(self):
        # genus-0 vertices merge into a genus-0 vertex; a graph of
        # positive genus cannot be built, so it never reaches a merge
        g = modular_graph({0: 0, 1: 0}, [(0, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
        out = collapse_edge(g, 0)
        assert out.decorations() == {0: 0} and not out.edges
        with pytest.raises(InvalidGraph, match="genus 1"):
            modular_graph({0: 1, 1: 1}, [(0, 1)], {})

    def test_zero_zero_merge(self):
        g = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO, 2: Color.ZERO},
            [(0, 1), (1, 2)], {0: 0, 1: 1, 2: 1, 3: 2, 4: 2})
        out = collapse_edge(g, 1)
        assert validate(out) == [] and is_stable(out)
        assert sum(1 for c in out.color.values() if c is Color.ZERO) == 1

    def test_zero_colored_merge_is_colored(self):
        g = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO}, [(0, 1)], {0: 0, 1: 1, 2: 1})
        out = collapse_edge(g, 0)
        assert is_isomorphic(out, open_mult(2))

    def test_colored_infinity_forbidden(self):
        with pytest.raises(ForbiddenCollapse):
            collapse_edge(sep_divisor(), 0)

    def test_unknown_edge(self):
        with pytest.raises(NoSuchEdge):
            collapse_edge(sep_divisor(), 5)


class TestCollapseWithRelations:
    def test_sep_divisor_to_open(self):
        out = collapse_with_relations(sep_divisor(), 0)
        assert is_isomorphic(out, open_mult(2))

    def test_merge_only_colored_neighbors(self):
        # infinity vertex with a colored neighbor and an infinity
        # neighbor on the root side
        g = colored_tree(
            {0: Color.INFINITY, 1: Color.INFINITY, 2: Color.COLORED,
             3: Color.COLORED, 4: Color.COLORED},
            [(0, 1), (1, 2), (1, 3), (0, 4)],
            {0: 0, 1: 2, 2: 3, 3: 4})
        out = collapse_with_relations(g, 1)
        assert validate(out) == [] and is_stable(out)
        assert sum(1 for c in out.color.values() if c is Color.INFINITY) == 1

    def test_valence_arithmetic(self):
        out = collapse_with_relations(sep_divisor(), 0)
        assert out.valence(next(iter(out.vertex_ids))) == 3

    def test_not_infinity(self):
        with pytest.raises(NotInfinityVertex):
            collapse_with_relations(sep_divisor(), 1)

    def test_nothing_to_collapse(self):
        g = colored_tree(
            {0: Color.INFINITY, 1: Color.INFINITY, 2: Color.COLORED,
             3: Color.COLORED},
            [(0, 1), (1, 2), (1, 3)], {0: 0, 1: 2, 2: 3})
        with pytest.raises(NothingToCollapse):
            collapse_with_relations(g, 0)


class TestCutEdge:
    def test_modular_split(self):
        g = modular_graph({0: 0, 1: 0}, [(0, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
        out = cut_edge(g, 0, (5, 6))
        assert len(out.components()) == 2
        assert all(out.valence(v) == 3 for v in out.vertex_ids)

    def test_zero_side_cut(self):
        g = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO, 2: Color.ZERO},
            [(0, 1), (1, 2)], {0: 0, 1: 1, 2: 1, 3: 2, 4: 2})
        out = cut_edge(g, 1, (5, 6))
        assert validate(out) == []
        assert len(out.components()) == 2

    def test_root_path_cut_forbidden(self):
        with pytest.raises(ForbiddenCut):
            cut_edge(sep_divisor(), 0, (3, 4))

    def test_label_clash(self):
        g = modular_graph({0: 0, 1: 0}, [(0, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
        with pytest.raises(DuplicateLegLabel):
            cut_edge(g, 0, (4, 5))

    @pytest.mark.parametrize("labels", [(5.7, 6), (5, 6.0), ("5", 6)])
    def test_non_integer_label_refused(self, labels):
        # refused, not truncated to leg 5
        g = modular_graph({0: 0, 1: 0}, [(0, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
        bad = next(l for l in labels if not isinstance(l, int))
        with pytest.raises(InvalidArgument, match=f"leg label {bad!r}"):
            cut_edge(g, 0, labels)

    def test_round_trip_identity(self):
        # cutting then regluing the produced legs is the identity
        g = modular_graph({0: 0, 1: 0}, [(0, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
        cut = cut_edge(g, 0, (5, 6))
        reglued = modular_graph(
            cut.decorations(),
            list(cut.edges) + [(cut.legs[5], cut.legs[6])],
            {l: v for l, v in cut.legs.items() if l not in (5, 6)})
        assert canonical_key(reglued) == canonical_key(g)


class TestForgetTail:
    def test_bubble_fuses_to_open(self):
        g = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO}, [(0, 1)], {0: 0, 1: 1, 2: 1})
        out = forget_tail(g, 2)
        assert is_isomorphic(out, open_mult(1))

    def test_two_stage_cascade(self):
        out = forget_tail(sep_divisor(), 2)
        assert is_isomorphic(out, open_mult(1))

    def test_two_stage_cascade_with_edge_fusion(self):
        # forgetting leg 1 deletes the colored vertex c, which leaves
        # the infinity vertex w with two edges; fusing them attaches x
        # directly to the root-leg vertex
        g = colored_tree(
            {0: Color.INFINITY, 1: Color.INFINITY, 2: Color.COLORED,
             3: Color.COLORED, 4: Color.COLORED},
            [(0, 1), (1, 2), (1, 3), (0, 4)],
            {0: 0, 1: 2, 2: 3, 3: 3, 4: 4})
        out = forget_tail(g, 1)
        expected = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED, 2: Color.COLORED},
            [(0, 1), (0, 2)], {0: 0, 2: 1, 3: 1, 4: 2})
        assert is_isomorphic(out, expected)

    def test_minimum_markings_modular(self):
        g = modular_graph({0: 0}, [], {1: 0, 2: 0, 3: 0})
        with pytest.raises(MinimumMarkings):
            forget_tail(g, 3)

    def test_isolated_genus_one_component(self):
        # refused where it is built, before any forget
        with pytest.raises(InvalidGraph, match="genus 1"):
            modular_graph({0: 1, 1: 0}, [], {1: 0, 2: 1, 3: 1, 4: 1})

    def test_colored_vertex_left_with_leg_zero(self):
        # the colored component keeps leg 0 alone once leg 2 goes, like
        # a bubble component left with too few markings
        g = colored_tree({0: Color.COLORED, 1: Color.ZERO}, [],
                         {0: 0, 2: 0, 1: 1, 3: 1, 4: 1})
        assert is_stable(g)
        with pytest.raises(MinimumMarkings,
                           match="component at vertex 0 cannot absorb"):
            forget_tail(g, 2)

    def test_minimum_markings_colored(self):
        with pytest.raises(MinimumMarkings):
            forget_tail(open_mult(1), 1)

    def test_cannot_forget_root_leg(self):
        with pytest.raises(CannotForgetRoot):
            forget_tail(open_mult(2), 0)

    def test_no_such_leg(self):
        with pytest.raises(NoSuchLeg):
            forget_tail(open_mult(2), 9)

    def test_labels_preserved(self):
        out = forget_tail(open_mult(3), 2)
        assert sorted(out.legs) == [0, 1, 3]
        compacted = compact_legs(out)
        assert sorted(compacted.legs) == [0, 1, 2]

    def test_relabel_collision(self):
        with pytest.raises(DuplicateLegLabel):
            relabel_legs(open_mult(2), {1: 2})

    @pytest.mark.parametrize("label", [9.9, 9.0, "9", True])
    def test_relabel_non_integer_label_refused(self, label):
        # refused, not truncated to leg 9 or read as leg 1
        with pytest.raises(InvalidArgument, match=f"leg label {label!r}"):
            relabel_legs(open_mult(2), {1: label})


def _legal_outputs(g):
    """All single-step morphism outputs of a stable graph."""
    outs = []
    for i in range(len(g.edges)):
        try:
            outs.append(collapse_edge(g, i))
        except ForbiddenCollapse:
            pass
        try:
            outs.append(cut_edge(g, i, (90, 91)))
        except ForbiddenCut:
            pass
    for v in g.vertex_ids:
        if g.color.get(v) is Color.INFINITY:
            try:
                outs.append(collapse_with_relations(g, v))
            except (ForbiddenCollapse, NothingToCollapse):
                pass
    for leg in list(g.legs):
        if leg == 0:
            continue
        try:
            outs.append(forget_tail(g, leg))
        except MinimumMarkings:
            pass
    return outs


class TestMorphismInvariants:
    @pytest.mark.parametrize("space", [M0(5), FM(3), MULT(4), SCALED(3)])
    def test_outputs_valid_and_stable(self, space):
        for g in enumerate_strata(space):
            for out in _legal_outputs(g):
                assert validate(out) == [], (g, out)
                assert is_stable(out), (g, out)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_forget_commutes_mult(self, n):
        for g in enumerate_strata(MULT(n)):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                a = forget_tail(forget_tail(g, i), j)
                b = forget_tail(forget_tail(g, j), i)
                assert canonical_key(a) == canonical_key(b), (g, i, j)

    @pytest.mark.parametrize("n", [4, 5])
    def test_forget_commutes_m0(self, n):
        for g in enumerate_strata(M0(n)):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                try:
                    a = forget_tail(forget_tail(g, i), j)
                    b = forget_tail(forget_tail(g, j), i)
                except MinimumMarkings:
                    continue
                assert canonical_key(a) == canonical_key(b)


# -- pinned outputs ------------------------------------------------------------
#
# SHA-256 digests of every morphism outcome over the strata below,
# computed before the morphisms were rebuilt on one vertex-merge
# builder, and over a seeded corpus of random stable forests.  The corpus
# digest was computed before modular graphs were restricted to genus-0
# forests, then updated for the two forgets that leave a colored vertex
# with leg 0 alone, which now raise MinimumMarkings like a bare bubble
# component.  A collapse is pinned by its repr, a forget by its
# signature (edges sorted, so their order is free) and canonical key; an
# error by its type and message.  Graphs no longer store a genus, so
# _forgotten spells the pinned signature out from public fields.

PINNED_SPACES = {
    "m0": [M0(n) for n in range(3, 7)],
    "fm": [FM(n) for n in range(5)],
    "mult": [MULT(n) for n in range(1, 6)],
    "scaled": [SCALED(n) for n in range(5)],
}
COLLAPSE_SHA256 = {
    "m0": "c17e5afca45560090200c6371ef0402f7005ca31b60e9ddc94570ceed820d26b",
    "fm": "ee2e5cf1852708cc4a61952936672e7e524371c8b152fc56bb4f86796093ba95",
    "mult": "b14b672534c49786a5e5d8af8e2d52e54b09edbfa245eb350ff548c848ce52a9",
    "scaled":
        "2d5f497b53a747674b57bf291d109f0661d917163e204df1525c5f76f9493a10",
}
FORGET_SHA256 = {
    "m0": "789a0ae0a3b45df0f3b0c58c110fcb18bc37f4521f153354d11ac7f44a5862cf",
    "fm": "cd90fbf9857dca21c4ffcc7f9589dba317cbd99a4e485b2f6d8691a0b370f7aa",
    "mult": "b1b5699cc38ef60a912af72971f8b7a5919a6e3eeb96dc8fc67ea998e6d59ec5",
    "scaled":
        "53b7b9d659c3450929b3ada29bca32ff3275da8e3bb71e573070c150e2fafdff",
}
RANDOM_SEED = 20261018
RANDOM_PER_KIND = 300
RANDOM_FORGET_SHA256 = (
    "38382b3224f1705233c2d7872b05f20e13231012fa9079076ed4955694a12db8")


def _outcome(fn, describe):
    try:
        return describe(fn())
    except TreelevelError as err:
        return f"{type(err).__name__}: {err}"


def _forgotten(out):
    # the signature as it read when the digests were pinned: graphs then
    # stored a genus, 0 on each modular vertex, in the third slot
    genus = (tuple((v, 0) for v in out.vertex_ids)
             if out.kind is Kind.MODULAR else ())
    signature = (out.kind, out.vertex_ids, genus,
                 tuple(sorted((v, c.value) for v, c in out.color.items())),
                 tuple(sorted(out.edges)), tuple(sorted(out.legs.items())),
                 out.root)
    return repr(signature) + repr(canonical_key(out))


def _collapse_lines(g):
    for i in range(len(g.edges)):
        yield _outcome(lambda: collapse_edge(g, i), repr)
    for v in g.vertex_ids:
        yield _outcome(lambda: collapse_with_relations(g, v), repr)


def _forget_lines(g):
    for leg in sorted(g.legs):
        yield _outcome(lambda: forget_tail(g, leg), _forgotten)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# the colors a child may take below a parent of each color
_CHILD_COLORS = {Color.INFINITY: (Color.INFINITY, Color.COLORED),
                 Color.COLORED: (Color.ZERO,), Color.ZERO: (Color.ZERO,)}


def _random_graph(rng, kind):
    """A random forest of ``kind`` on up to eight vertices, of genus 0
    for the modular kind; its colors mostly follow the colored-tree
    rules."""
    nv = rng.randint(1, 8)
    decor = {0: rng.choice((Color.COLORED, Color.INFINITY))}
    edges = []
    for v in range(1, nv):
        if rng.random() < 0.9:
            parent = rng.randrange(v)
            edges.append((parent, v))
            decor[v] = rng.choice(_CHILD_COLORS[decor[parent]])
        else:
            # the top of a new component
            decor[v] = rng.choice((Color.ZERO, Color.INFINITY))
    if kind is Kind.MODULAR:
        decor = dict.fromkeys(decor, 0)
    elif kind not in COLORED_KINDS:
        decor = dict.fromkeys(decor)
    legs = {l: rng.randrange(nv) for l in range(1, rng.randint(0, 3 * nv) + 1)}
    if kind is Kind.COLORED_TREE:
        legs[0] = 0
    return MarkedGraph(kind, decor, edges, legs,
                       0 if kind in ROOTED_KINDS else None)


def random_stable_graphs(seed, per_kind):
    """``per_kind`` valid stable graphs of each kind, drawn by rejection."""
    rng = random.Random(seed)
    out = []
    for kind in Kind:
        found = 0
        while found < per_kind:
            g = _random_graph(rng, kind)
            if not validate(g) and is_stable(g):
                out.append(g)
                found += 1
    return out


@pytest.mark.parametrize("family", sorted(PINNED_SPACES))
def test_morphism_outcomes_are_pinned(family):
    strata = [g for space in PINNED_SPACES[family]
              for g in enumerate_strata(space)]
    assert _digest([line for g in strata for line in _collapse_lines(g)]) \
        == COLLAPSE_SHA256[family]
    assert _digest([line for g in strata for line in _forget_lines(g)]) \
        == FORGET_SHA256[family]


def test_forget_on_random_stable_graphs_is_pinned():
    corpus = random_stable_graphs(RANDOM_SEED, RANDOM_PER_KIND)
    # the corpus reaches disconnected graphs of every kind
    assert {g.kind for g in corpus if len(g.components()) > 1} == set(Kind)
    assert _digest([line for g in corpus for line in _forget_lines(g)]) \
        == RANDOM_FORGET_SHA256


# -- trusted results -----------------------------------------------------------
#
# The morphisms build each result from merged fields with
# MarkedGraph._trusted, so the fields must already be in the form the
# normalizing constructor gives them.

def _all_results(g):
    """Every result of the morphisms on ``g``; calls that raise are
    skipped."""
    calls = [lambda leg=leg: forget_tail(g, leg) for leg in g.legs]
    calls += [lambda i=i: collapse_edge(g, i) for i in range(len(g.edges))]
    calls += [lambda v=v: collapse_with_relations(g, v)
              for v in g.vertex_ids]
    calls += [lambda i=i: cut_edge(g, i, (90, 91))
              for i in range(len(g.edges))]
    calls.append(lambda: compact_legs(g))
    for call in calls:
        try:
            yield call()
        except TreelevelError:
            pass


def _assert_normalized(h):
    rebuilt = MarkedGraph(h.kind, h.decorations(), h.edges, dict(h.legs),
                          h.root)
    assert h == rebuilt and h.edges == rebuilt.edges, h
    assert canonical_key(h) == canonical_key(rebuilt)
    assert list(h.vertex_ids) == sorted(h.vertex_ids)
    assert tuple(h.decorations()) == h.vertex_ids
    assert all(a <= b for a, b in h.edges)


class TestTrustedBuild:
    @pytest.mark.parametrize("space", [M0(6), FM(4), MULT(4), SCALED(4)],
                             ids=str)
    def test_results_match_the_constructor(self, space):
        count = 0
        for g in enumerate_strata(space):
            for h in _all_results(g):
                _assert_normalized(h)
                count += 1
        assert count > len(enumerate_strata(space))

    def test_forget_builds_no_graph_and_validates_once(self, monkeypatch):
        g = max(enumerate_strata(MULT(5)), key=lambda s: len(s.edges))
        require_valid(g)
        # a leg whose forget merges vertices, so the loop runs
        leg = next(l for l in sorted(g.legs) if l != 0
                   and len(forget_tail(g, l).vertex_ids) < len(g.vertex_ids))
        inits, checks = [], []
        init, check = MarkedGraph.__init__, graphs.validate

        def counting_init(self, *args, **kwargs):
            inits.append(args)
            init(self, *args, **kwargs)

        def counting_validate(h):
            checks.append(h)
            return check(h)

        monkeypatch.setattr(MarkedGraph, "__init__", counting_init)
        monkeypatch.setattr(graphs, "validate", counting_validate)
        out = forget_tail(g, leg)
        assert inits == []
        assert checks == [out]

    def test_decorations_of_unsorted_input(self):
        # vertex dicts given out of order; the kept vertex keeps its own
        # decoration, genus 0 on a modular graph and None on a rooted
        # forest.  The ids do not increase away from the root, so each
        # merge renames an edge end past the other and the edge must be
        # stored again as (min, max).
        modular = modular_graph({3: 0, 1: 0, 2: 0, 0: 0},
                                [(3, 1), (1, 2), (2, 0)],
                                {1: 3, 2: 3, 3: 1, 4: 2, 5: 0, 6: 0})
        forest = rooted_forest({3: None, 1: None, 2: None, 0: None},
                               [(2, 0), (0, 1), (0, 3)],
                               {1: 1, 2: 1, 3: 3, 4: 3}, root=2)
        assert list(modular.decorations()) == [0, 1, 2, 3]
        assert list(forest.decorations()) == [0, 1, 2, 3]
        for g, edge, leg, expected in ((modular, 2, 3, 0),
                                       (forest, 0, 1, None)):
            assert is_stable(g)
            for h in (collapse_edge(g, edge), forget_tail(g, leg)):
                assert len(h.vertex_ids) == 3
                assert list(h.decorations().values()) == [expected] * 3
                assert validate(h) == []
                _assert_normalized(h)
