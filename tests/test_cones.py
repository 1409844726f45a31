import itertools
from fractions import Fraction

import pytest

from treelevel.cones import classify_cone, cone_rays, relation_lattice
from treelevel.errors import Disconnected, KindMismatch, NoColoredVertex
from treelevel.graphs import Color, colored_tree, modular_graph
from treelevel.linalg import (
    cone_contains,
    det,
    extremal_rays,
    frac_rank,
    lattice_equivalent,
    primitive,
    row_hermite_form,
    smith_normal_form,
)
from treelevel.selftest import scaled_relations_tree, singular_cone_tree
from treelevel.strata import MULT, SCALED, enumerate_strata, stratum_codimension


class TestLinalg:
    def test_snf_transforms(self):
        mats = [
            [[2, 4, 4]],
            [[1, -1, 0], [0, 1, -1]],
            [[2, 0], [0, 3]],
            [[6, 4], [4, 6]],
            [[0, 0], [0, 0]],
        ]
        for m in mats:
            d, v = smith_normal_form(m)
            r, c = len(m), len(m[0])
            assert abs(det(v)) == 1
            # m*V = U^-1 * D for a unimodular U: both have one row lattice
            mv = [[sum(m[i][b] * v[b][j] for b in range(c))
                   for j in range(c)] for i in range(r)]
            assert row_hermite_form(mv) == row_hermite_form(d)
            diag = [d[i][i] for i in range(min(r, c)) if d[i][i]]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert d[i][j] == 0

    def test_hermite_lattice_equality(self):
        a = [(1, -1, 0), (0, 1, -1)]
        b = [(1, 0, -1), (0, 1, -1)]
        assert row_hermite_form(a) == row_hermite_form(b)
        c = [(1, 1, 0), (0, 1, -1)]
        assert row_hermite_form(a) != row_hermite_form(c)

    def test_cone_membership(self):
        gens = [(1, 0), (1, 1)]
        assert cone_contains((2, 1), gens)
        assert cone_contains((0, 0), gens)
        assert not cone_contains((0, 1), gens)
        assert not cone_contains((-1, 0), gens)
        assert cone_contains((Fraction(1, 3),), [(2,)])

    def test_primitive(self):
        assert primitive((2, -4, 6)) == (1, -2, 3)
        assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)

    def test_extremal_filter(self):
        rays = [(1, 0), (0, 1), (1, 1)]
        assert extremal_rays(rays) == [(0, 1), (1, 0)]

    def test_lattice_equivalent(self):
        a = [(1, 0), (0, 1)]
        b = [(1, 1), (1, 0)]
        assert lattice_equivalent(a, b)
        # rays are directions: (0, 2) is the ray (0, 1)
        assert lattice_equivalent(a, [(1, 0), (0, 2)])
        # the index-two pair cannot be moved onto a basis
        assert not lattice_equivalent(a, [(1, 0), (1, 2)])

    def test_rank(self):
        assert frac_rank([[1, 2], [2, 4]]) == 1
        assert frac_rank([[1, 0], [0, 1]]) == 2


class TestRelationLattice:
    def test_singular_example_rows(self):
        rel = relation_lattice(singular_cone_tree())
        assert rel.rank == 3
        expected = [
            (0, 0, 1, -1, 0, 0),
            (1, -1, 1, 0, -1, 0),
            (0, 0, 0, 0, 1, -1),
        ]
        assert row_hermite_form(rel.matrix) == row_hermite_form(expected)

    def test_scaled_relations_rows(self):
        rel = relation_lattice(scaled_relations_tree())
        assert rel.rank == 3
        expected = [
            (1, -1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, -1, 0, 0, 0, 0),
            (1, 0, -1, 0, 1, -1, 0, 0),
        ]
        assert row_hermite_form(rel.matrix) == row_hermite_form(expected)

    def test_single_colored_vertex(self):
        g = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO}, [(0, 1)], {0: 0, 1: 1, 2: 1})
        rel = relation_lattice(g)
        assert rel.rank == 0 and rel.matrix == ()

    def test_errors(self):
        with pytest.raises(KindMismatch):
            relation_lattice(modular_graph({0: 0}, [], {1: 0, 2: 0, 3: 0}))
        disconnected = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO},
            [], {0: 0, 1: 0, 2: 1, 3: 1, 4: 1})
        with pytest.raises(Disconnected):
            relation_lattice(disconnected)

    @pytest.mark.parametrize(
        "space", [pytest.param(MULT(n), id=str(n)) for n in range(2, 6)]
        + [pytest.param(SCALED(n), id=str(SCALED(n))) for n in range(2, 5)])
    def test_rank_is_colored_minus_one(self, space):
        # the rank is read off the tree; Bareiss elimination is the
        # reference
        for g in enumerate_strata(space):
            colored = sum(1 for c in g.color.values() if c is Color.COLORED)
            rel = relation_lattice(g)
            assert rel.rank == colored - 1
            assert rel.rank == (frac_rank(rel.matrix) if rel.matrix else 0)


class TestCone:
    def test_singular_example(self):
        cone = classify_cone(singular_cone_tree())
        assert cone.ambient_rank == 3
        assert len(cone.rays) == 4
        assert not cone.simplicial and not cone.smooth
        assert lattice_equivalent(
            cone.rays, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)])

    def test_sep_divisor_line(self):
        g = colored_tree(
            {0: Color.INFINITY, 1: Color.COLORED, 2: Color.COLORED},
            [(0, 1), (0, 2)], {0: 0, 1: 1, 2: 2})
        cone = classify_cone(g)
        assert cone.ambient_rank == 1
        assert cone.rays == ((1,),)
        assert cone.simplicial and cone.smooth

    def test_free_labelling(self):
        g = colored_tree(
            {0: Color.COLORED, 1: Color.ZERO, 2: Color.ZERO},
            [(0, 1), (0, 2)], {0: 0, 1: 1, 2: 1, 3: 2, 4: 2})
        cone = classify_cone(g)
        assert cone.ambient_rank == 2
        assert sorted(cone.rays) == [(0, 1), (1, 0)]
        assert cone.smooth

    def test_scaled_relations_rank(self):
        cone = classify_cone(scaled_relations_tree())
        assert cone.ambient_rank == 5
        assert cone.ambient_rank == stratum_codimension(
            scaled_relations_tree(), SCALED(7))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ambient_rank_is_codimension(self, n):
        space = MULT(n)
        for g in enumerate_strata(space):
            assert classify_cone(g).ambient_rank == stratum_codimension(g, space)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relation_lattices_are_saturated(self, n):
        # path-difference lattices never pick up torsion; the torsion
        # diagnostic must stay empty
        for g in enumerate_strata(MULT(n)):
            assert classify_cone(g).torsion == ()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_low_rank_cones_simplicial(self, n):
        # the combinatorial shadow of "singularities occur in complex
        # codimension three and higher"
        space = MULT(n)
        for g in enumerate_strata(space):
            cone = classify_cone(g)
            if cone.ambient_rank <= 2:
                assert cone.simplicial

    def test_edge_relabeling_invariance(self):
        g = singular_cone_tree()
        base = classify_cone(g)
        for perm in itertools.islice(itertools.permutations(range(6)), 0, 24, 5):
            h = colored_tree(dict(g.color),
                             [g.edges[i] for i in perm], dict(g.legs))
            cone = classify_cone(h)
            assert len(cone.rays) == len(base.rays)
            assert cone.simplicial == base.simplicial
            assert cone.smooth == base.smooth
            assert cone.ambient_rank == base.ambient_rank

    def test_edge_relabeling_invariance_sweep(self):
        # reversing the stored edge order must never change the toric data
        for g in enumerate_strata(MULT(4)):
            if not g.edges:
                continue
            base = classify_cone(g)
            h = colored_tree(dict(g.color), list(reversed(g.edges)),
                             dict(g.legs))
            cone = classify_cone(h)
            assert (len(cone.rays), cone.simplicial, cone.smooth,
                    cone.ambient_rank) == (len(base.rays), base.simplicial,
                                           base.smooth, base.ambient_rank)

    def test_no_colored_vertex(self):
        from treelevel.graphs import rooted_colored_tree

        g = rooted_colored_tree({0: Color.INFINITY}, [], {}, root=0)
        with pytest.raises(NoColoredVertex):
            cone_rays(g)

    def test_in_cone_diagnostic(self):
        from treelevel.cones import in_cone

        g = singular_cone_tree()
        cone = classify_cone(g)
        assert in_cone(cone.rays[0], g)
        inside = tuple(sum(col) for col in zip(*cone.rays))
        assert in_cone(inside, g)
        assert not in_cone(tuple(-x for x in inside), g)
