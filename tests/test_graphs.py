import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelevel import graphs
from treelevel.errors import InvalidGraph, KindMismatch, TooLarge
from treelevel.graphs import (
    Color,
    Kind,
    MarkedGraph,
    canonical_key,
    colored_tree,
    is_isomorphic,
    is_stable,
    modular_graph,
    require_valid,
    rooted_colored_tree,
    rooted_forest,
    validate,
)
from treelevel.strata import (
    FM,
    M0,
    MULT,
    SCALED,
    enumerate_strata,
    stratum_codimension,
    stratum_dimension,
)

from util import bijection_isomorphic


def open_mult(n):
    return colored_tree({0: Color.COLORED}, [], {l: 0 for l in range(n + 1)})


def sep_divisor():
    # infinity vertex with leg 0 over two colored leaves carrying legs 1, 2
    return colored_tree(
        {0: Color.INFINITY, 1: Color.COLORED, 2: Color.COLORED},
        [(0, 1), (0, 2)], {0: 0, 1: 1, 2: 2})


class TestValidate:
    def test_smallest_monotone_tree(self):
        assert validate(open_mult(1)) == []

    def test_reversed_ordering_is_reported(self):
        # infinity vertex between a colored vertex and leg 1
        g = colored_tree(
            {0: Color.COLORED, 1: Color.INFINITY, 2: Color.ZERO},
            [(0, 1), (1, 2)], {0: 0, 1: 2})
        problems = validate(g)
        assert problems
        assert any("infinite" in p or "colored" in p for p in problems)

    def test_loop_legal_for_modular(self):
        g = modular_graph({0: 1}, [(0, 0)], {1: 0})
        assert validate(g) == []

    def test_loop_illegal_for_trees(self):
        g = colored_tree({0: Color.COLORED}, [(0, 0)], {0: 0, 1: 0})
        assert validate(g)

    def test_multiedge_illegal_for_trees(self):
        g = rooted_forest([0, 1], [(0, 1), (0, 1)], {1: 1, 2: 1}, root=0)
        assert validate(g)

    def test_multiedge_legal_for_modular(self):
        g = modular_graph({0: 0, 1: 0}, [(0, 1), (0, 1)], {1: 0, 2: 0, 3: 1, 4: 1})
        assert validate(g) == []

    def test_leg_zero_reserved(self):
        g = modular_graph({0: 0}, [], {0: 0, 1: 0, 2: 0})
        assert validate(g)

    def test_missing_root_leg(self):
        g = colored_tree({0: Color.COLORED}, [], {1: 0})
        assert validate(g)

    def test_leg_on_infinite_root_side(self):
        g = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED},
            [(0, 1)], {0: 0, 1: 0, 2: 1})
        assert validate(g)

    def test_zero_infinity_edge_off_leg_paths(self):
        # a zero bubble hanging above the colored level is caught even
        # though no leg path crosses it
        g = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED, 2: Color.ZERO},
            [(0, 1), (0, 2)], {0: 0, 1: 1})
        assert validate(g)

    def test_rooted_colored_root_cases(self):
        ok = rooted_colored_tree(
            {0: Color.COLORED, 1: Color.ZERO}, [(0, 1)],
            {1: 1, 2: 1}, root=0)
        assert validate(ok) == []
        bad_root = rooted_colored_tree(
            {0: Color.ZERO, 1: Color.ZERO}, [(0, 1)], {1: 1, 2: 1}, root=0)
        assert validate(bad_root)
        # colored root with a non-zero vertex elsewhere
        bad = rooted_colored_tree(
            {0: Color.COLORED, 1: Color.INFINITY}, [(0, 1)],
            {1: 1, 2: 1}, root=0)
        assert validate(bad)

    def test_rooted_colored_zero_only_subtree_allowed(self):
        g = rooted_colored_tree(
            {0: Color.INFINITY, 1: Color.ZERO}, [(0, 1)], {1: 1, 2: 1}, root=0)
        assert validate(g) == []

    def test_disconnected_colored_components(self):
        g = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO},
            [], {0: 0, 1: 0, 2: 1, 3: 1, 4: 1})
        assert validate(g) == []
        mixed = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO, 2: Color.INFINITY},
            [(1, 2)], {0: 0, 1: 0, 2: 1, 3: 2})
        assert validate(mixed)


class TestStability:
    def test_colored_valence_two_is_stable(self):
        assert is_stable(open_mult(1))

    def test_infinity_valence_two_unstable(self):
        g = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED, 2: Color.ZERO},
            [(0, 1), (1, 2)], {0: 0, 1: 2, 2: 2})
        assert not is_stable(g)

    def test_genus_zero_three_legs(self):
        assert is_stable(modular_graph({0: 0}, [], {1: 0, 2: 0, 3: 0}))
        assert not is_stable(modular_graph({0: 0}, [], {1: 0, 2: 0}))

    def test_genus_one_needs_one_special_point(self):
        assert is_stable(modular_graph({0: 1}, [], {1: 0}))
        assert not is_stable(modular_graph({0: 1}, [], {}))

    def test_root_is_unconstrained(self):
        assert is_stable(rooted_forest([0], [], {}, root=0))
        g = rooted_colored_tree({0: Color.INFINITY}, [], {}, root=0)
        assert is_stable(g)

    def test_invalid_graph_raises(self):
        g = colored_tree({0: Color.COLORED}, [(0, 0)], {0: 0, 1: 0})
        with pytest.raises(InvalidGraph):
            is_stable(g)


class TestCanonicalKey:
    def test_vertex_ids_are_not_structure(self):
        g = sep_divisor()
        relabeled = colored_tree(
            {7: Color.INFINITY, 3: Color.COLORED, 5: Color.COLORED},
            [(3, 7), (5, 7)], {0: 7, 1: 3, 2: 5})
        assert canonical_key(g) == canonical_key(relabeled)

    def test_distinct_divisor_types(self):
        joined = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO}, [(0, 1)], {0: 0, 1: 1, 2: 1})
        assert canonical_key(sep_divisor()) != canonical_key(joined)
        assert not bijection_isomorphic(sep_divisor(), joined)

    def test_symmetric_leg_swap(self):
        g = sep_divisor()
        swapped = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED, 2: Color.COLORED},
            [(0, 1), (0, 2)], {0: 0, 2: 1, 1: 2})
        assert canonical_key(g) == canonical_key(swapped)
        assert bijection_isomorphic(g, swapped)

    def test_asymmetric_leg_swap_detected(self):
        a = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED, 2: Color.COLORED},
            [(0, 1), (0, 2)], {0: 0, 1: 1, 2: 2, 3: 2})
        b = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED, 2: Color.COLORED},
            [(0, 1), (0, 2)], {0: 0, 2: 1, 1: 2, 3: 2})
        assert canonical_key(a) != canonical_key(b)
        assert not bijection_isomorphic(a, b)

    def test_color_is_structure(self):
        a = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO}, [(0, 1)], {0: 0, 1: 1, 2: 1})
        b = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED},
            [(0, 1)], {0: 0, 1: 1, 2: 1})
        assert canonical_key(a) != canonical_key(b)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            is_isomorphic(open_mult(1), modular_graph({0: 0}, [], {1: 0, 2: 0, 3: 0}))

    def test_identity(self):
        g = sep_divisor()
        assert is_isomorphic(g, g)

    def test_modular_cycle_graphs(self):
        a = modular_graph({0: 0, 1: 0}, [(0, 1), (0, 1)],
                          {1: 0, 2: 0, 3: 1, 4: 1})
        b = modular_graph({5: 0, 9: 0}, [(5, 9), (5, 9)],
                          {1: 5, 2: 5, 3: 9, 4: 9})
        assert canonical_key(a) == canonical_key(b)
        c = modular_graph({0: 0, 1: 0}, [(0, 1), (0, 1)],
                          {1: 0, 3: 0, 2: 1, 4: 1})
        assert canonical_key(a) != canonical_key(c)

    def test_modular_guard(self):
        big = modular_graph({i: 0 for i in range(11)},
                            [(i, (i + 1) % 11) for i in range(11)],
                            {1: 0, 2: 1, 3: 2})
        with pytest.raises(TooLarge):
            canonical_key(big)

    def test_complete_invariant_on_enumerated_strata(self):
        # canonical-key equality must agree with exhaustive bijection
        # search on every pair of strata of a fixed space
        rng = random.Random(7)
        for space in (M0(5), FM(3), MULT(3), SCALED(3)):
            strata = enumerate_strata(space)
            for a, b in itertools.combinations(strata, 2):
                assert not bijection_isomorphic(a, b), (a, b)
            for g in strata:
                perm = list(g.vertex_ids)
                rng.shuffle(perm)
                f = dict(zip(g.vertex_ids, perm))
                decor = ({f[v]: g.color[v] for v in g.vertex_ids}
                         if g.color else
                         ({f[v]: g.genus[v] for v in g.vertex_ids}
                          if g.kind is Kind.MODULAR else
                          [f[v] for v in g.vertex_ids]))
                h = MarkedGraph(
                    g.kind, decor,
                    [(f[a2], f[b2]) for a2, b2 in g.edges],
                    {l: f[v] for l, v in g.legs.items()},
                    None if g.root is None else f[g.root])
                assert canonical_key(h) == canonical_key(g)
                assert bijection_isomorphic(h, g)


class TestModularCanonicalCompleteness:
    """The exhaustive-minimization path must be a complete invariant on
    small modular graphs with loops, parallel edges and genus."""

    def _all_small_modular(self):
        pair_types = [(0, 0), (0, 1), (1, 1)]
        graphs = []
        for count in itertools.product(range(3), repeat=len(pair_types)):
            edges = []
            for pair, c in zip(pair_types, count):
                edges.extend([pair] * c)
            if len(edges) > 3:
                continue
            for g0, g1 in itertools.product(range(2), repeat=2):
                for l1, l2 in itertools.product((0, 1), repeat=2):
                    graphs.append(modular_graph(
                        {0: g0, 1: g1}, edges, {1: l1, 2: l2}))
        return [g for g in graphs if not validate(g)]

    def test_key_equality_iff_bijection(self):
        rng = random.Random(11)
        buckets = {}
        for g in self._all_small_modular():
            buckets.setdefault(canonical_key(g), []).append(g)
        reps = [bucket[0] for bucket in buckets.values()]
        for bucket in buckets.values():
            for a, b in itertools.combinations(bucket, 2):
                assert bijection_isomorphic(a, b), (a, b)
        for a in reps:
            for b in rng.sample(reps, min(12, len(reps))):
                if canonical_key(a) != canonical_key(b):
                    assert not bijection_isomorphic(a, b), (a, b)


class TestSerialization:
    def test_json_round_trip(self):
        for g in (open_mult(2), sep_divisor(),
                  modular_graph({0: 1}, [(0, 0)], {1: 0}),
                  rooted_forest([0, 1], [(0, 1)], {1: 1, 2: 1}, root=0)):
            assert MarkedGraph.from_json(g.to_json()) == g

    @pytest.mark.parametrize("obj", [
        [],
        {"vertices": []},
        {"kind": "weird", "vertices": []},
        {"kind": "colored_tree", "vertices": [{"id": 0}], "legs": {"0": 0}},
        {"kind": "colored_tree", "vertices": [{"id": 0, "color": "red"}]},
        {"kind": "modular", "vertices": [{"id": "x"}]},
        {"kind": "modular", "vertices": [{"id": 0}], "edges": [[0]]},
        {"kind": "modular", "vertices": [{"id": 0}], "legs": {"a": 0}},
        {"kind": "modular", "vertices": [{"id": 0}], "legs": [1]},
        {"kind": "rooted_forest", "vertices": [3]},
        {"kind": "modular", "vertices": [{"id": 0, "genus": 1e400}]},
    ])
    def test_malformed_json_is_invalid_graph(self, obj):
        with pytest.raises(InvalidGraph):
            MarkedGraph.from_json_obj(obj)

    def test_bad_json_text_is_invalid_graph(self):
        with pytest.raises(InvalidGraph):
            MarkedGraph.from_json("{bad")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
        | st.sampled_from([k.value for k in Kind] + [c.value for c in Color]
                          + ["kind", "vertices", "edges", "legs", "root",
                             "id", "genus", "color", "0", "1"]),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(
            st.sampled_from(["kind", "vertices", "edges", "legs", "root",
                             "id", "genus", "color", "0", "1"]),
            inner, max_size=5),
        max_leaves=20))
    def test_fuzzed_json_parses_or_is_invalid_graph(self, obj):
        try:
            g = MarkedGraph.from_json_obj(obj)
        except InvalidGraph:
            return
        validate(g)  # a parsed value can always be checked

    def test_dot_output_mentions_all_parts(self):
        dot = sep_divisor().to_dot()
        assert "v0 -- v1" in dot and "leg0" in dot
        assert "gray25" in dot and "gray60" in dot


class TestImmutability:
    def test_attributes_cannot_be_rebound(self):
        g = sep_divisor()
        for name, value in (("root", 1), ("legs", {}), ("edges", ()),
                            ("kind", Kind.MODULAR), ("_valid", True),
                            ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        with pytest.raises(AttributeError):
            del g.edges
        assert g == sep_divisor()

    def test_mappings_are_read_only(self):
        g = sep_divisor()
        with pytest.raises(TypeError):
            g.legs[1] = 0
        with pytest.raises(TypeError):
            g.color[0] = Color.ZERO
        with pytest.raises(TypeError):
            modular_graph({0: 0}, [], {1: 0, 2: 0, 3: 0}).genus[0] = 1
        assert g == sep_divisor()

    def test_constructor_copies_its_inputs(self):
        colors = {0: Color.COLORED}
        legs = {0: 0, 1: 0}
        g = colored_tree(colors, [], legs)
        colors[0] = Color.ZERO
        legs[2] = 0
        assert g.color[0] is Color.COLORED and sorted(g.legs) == [0, 1]

    def test_repr_prints_plain_dicts(self):
        text = repr(modular_graph({0: 1}, [(0, 0)], {1: 0}))
        assert "legs={1: 0}" in text and "g={0: 1}" in text
        assert "mappingproxy" not in text

    def test_copy_and_pickle_round_trip(self):
        for g in (sep_divisor(), modular_graph({0: 1}, [(0, 0)], {1: 0}),
                  rooted_forest([0, 1], [(0, 1)], {1: 1, 2: 1}, root=0)):
            for h in (copy.copy(g), copy.deepcopy(g),
                      pickle.loads(pickle.dumps(g))):
                assert h == g and hash(h) == hash(g) and repr(h) == repr(g)


@pytest.fixture
def validate_calls(monkeypatch):
    """Count calls of graphs.validate, including those of require_valid."""
    calls = []

    def counting(g):
        calls.append(g)
        return validate(g)

    monkeypatch.setattr(graphs, "validate", counting)
    return calls


class TestValidateOnce:
    @pytest.mark.parametrize("space", [MULT(4), SCALED(3), FM(3), M0(5)],
                             ids=str)
    def test_stratum_checked_once(self, space, validate_calls):
        for stratum in enumerate_strata(space)[::7]:
            g = MarkedGraph.from_json_obj(stratum.to_json_obj())
            del validate_calls[:]
            canonical_key(g)
            stratum_dimension(g, space)
            stratum_codimension(g, space)
            is_stable(g)
            assert validate_calls == [g]

    def test_invalid_graph_raises_every_time(self, validate_calls):
        g = colored_tree({0: Color.COLORED}, [(0, 0)], {0: 0, 1: 0})
        for attempt in range(1, 4):
            with pytest.raises(InvalidGraph):
                require_valid(g)
            assert len(validate_calls) == attempt
        with pytest.raises(InvalidGraph):
            canonical_key(g)

    def test_equal_values_are_checked_separately(self, validate_calls):
        a, b = sep_divisor(), sep_divisor()
        require_valid(a)
        require_valid(b)
        require_valid(a)
        assert validate_calls == [a, b] and validate_calls[0] is a


class TestValences:
    @pytest.mark.parametrize("space", [M0(6), FM(4), MULT(4), SCALED(4)],
                             ids=str)
    def test_one_pass_matches_valence(self, space):
        for g in enumerate_strata(space):
            assert g.valences() == {v: g.valence(v) for v in g.vertex_ids}

    def test_loops_count_twice(self):
        g = modular_graph({0: 1, 1: 0}, [(0, 0), (0, 1)], {1: 1, 2: 1})
        assert g.valences() == {0: 3, 1: 3}
