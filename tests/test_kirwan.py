from fractions import Fraction

import pytest

from treelevel.errors import (
    EmptySector,
    InvalidAction,
    RankUnsupported,
    TooLarge,
    UnstableSector,
)
from treelevel.kirwan import (
    PRESENTATION_DEGREE_GUARD,
    TorusAction,
    check_stable_equals_semistable,
    is_semistable,
    kirwan_count,
    map_space_dimension,
    qh_presentation,
    sector,
)


def teardrop():
    return TorusAction([(1,), (2,)], (1,))


def projective(k):
    return TorusAction([(1,)] * k, (1,))


class TestAction:
    def test_halfspace_required(self):
        with pytest.raises(InvalidAction):
            TorusAction([(1,), (-1,)], (0,))
        with pytest.raises(InvalidAction):
            TorusAction([(0,)], (1,))
        TorusAction([(-1,), (-2,)], (-1,))  # a negative half-space is fine

    def test_rank_two_halfspace(self):
        TorusAction([(1, 0), (0, 1), (1, 1)], (1, 1))
        with pytest.raises(InvalidAction):
            TorusAction([(1, 0), (-1, 0)], (0, 1))


class TestSemistability:
    def test_projective_supports(self):
        act = projective(3)
        assert is_semistable({0}, act)
        assert is_semistable({0, 1, 2}, act)
        assert not is_semistable(set(), act)

    def test_teardrop_heavy_coordinate(self):
        assert is_semistable({1}, teardrop())

    def test_zero_character_catches_everything(self):
        act = TorusAction([(1,), (2,)], (0,))
        assert is_semistable(set(), act)
        assert not check_stable_equals_semistable(act)

    def test_stable_equals_semistable(self):
        assert check_stable_equals_semistable(projective(4))
        assert check_stable_equals_semistable(teardrop())

    def test_rank_two_wall(self):
        # character on the ray of a single weight: a wall in rank two
        act = TorusAction([(1, 0), (0, 1)], (1, 0))
        assert not check_stable_equals_semistable(act)
        off_wall = TorusAction([(1, 0), (0, 1)], (1, 1))
        assert check_stable_equals_semistable(off_wall)


class TestMapSpace:
    def test_projective_degree_one(self):
        for k in (2, 3, 5):
            assert map_space_dimension(projective(k), (1,)) == 2 * k

    def test_teardrop_half(self):
        assert map_space_dimension(teardrop(), (Fraction(1, 2),)) == 3

    def test_degree_zero_constants(self):
        assert map_space_dimension(teardrop(), (0,)) == 2

    def test_negative_pairing_contributes_nothing(self):
        act = TorusAction([(1,), (2,)], (1,))
        assert map_space_dimension(act, (-1,)) == 0


class TestSector:
    def test_teardrop_twisted(self):
        s = sector(teardrop(), (Fraction(1, 2),))
        assert s.exp_d == (Fraction(1, 2),)
        assert s.support == frozenset({1})
        assert s.order == 2 and s.twisted
        assert s.label == "1_Z2"

    def test_teardrop_untwisted(self):
        s = sector(teardrop(), (1,))
        assert s.support == frozenset({0, 1})
        assert s.order == 1 and not s.twisted

    def test_projective_untwisted(self):
        s = sector(projective(4), (1,))
        assert not s.twisted and s.order == 1

    def test_empty_sector(self):
        with pytest.raises(EmptySector):
            sector(teardrop(), (Fraction(1, 3),))

    def test_sector_integer_shift_law(self):
        act = teardrop()
        for base in (Fraction(1, 2), Fraction(1)):
            s0 = sector(act, (base,))
            s1 = sector(act, (base + 2,))
            assert s0.exp_d == s1.exp_d
            assert s0.support == s1.support
            assert s0.order == s1.order

    def test_exp_order_divides_stabilizer_order(self):
        # the order of exp(d) in Q/Z divides the gcd of the supported
        # weights, since an integer combination of them realizes the gcd
        cases = [(teardrop(), Fraction(1, 2)), (teardrop(), Fraction(1)),
                 (TorusAction([(2,), (4,)], (1,)), Fraction(1, 4)),
                 (TorusAction([(3,), (6,)], (1,)), Fraction(1, 3))]
        for act, d in cases:
            s = sector(act, (d,))
            exp_order = s.exp_d[0].denominator if s.exp_d[0] else 1
            assert s.order % exp_order == 0


class TestCounts:
    def test_projective_relation(self):
        for k in (2, 3, 6):
            rel = kirwan_count(projective(k), (1,))
            assert rel.exponents == tuple([1] * k)
            assert rel.monomial() == f"xi^{k}"
            assert rel.q_exponent == 1
            assert rel.image_of_xi_power() == 1

    def test_teardrop_degree_one(self):
        rel = kirwan_count(teardrop(), (1,))
        assert rel.exponents == (1, 2)
        assert rel.scalar == 4 and rel.xi_power == 3
        assert rel.image_of_xi_power() == Fraction(1, 4)

    def test_teardrop_twisted_relation(self):
        rel = kirwan_count(teardrop(), (Fraction(1, 2),))
        assert rel.exponents == (1, 1)
        assert rel.scalar == 2 and rel.xi_power == 2
        assert rel.q_exponent == Fraction(1, 2)
        assert rel.sector.order == 2
        assert rel.image_of_xi_power() == Fraction(1, 2)

    def test_dimension_bookkeeping(self):
        # xi_power + free leading coefficients = map space dimension
        for act, d in ((teardrop(), (Fraction(1, 2),)),
                       (teardrop(), (1,)),
                       (projective(3), (1,)),
                       (projective(3), (2,))):
            rel = kirwan_count(act, d)
            free = len([j for j in rel.sector.support])
            assert rel.xi_power + free == map_space_dimension(act, d)

    def test_three_weights_with_double(self):
        act = TorusAction([(1,), (1,), (2,)], (1,))
        rel = kirwan_count(act, (Fraction(1, 2),))
        assert rel.exponents == (1, 1, 1)
        assert rel.scalar == 2 and rel.xi_power == 3
        assert rel.sector.order == 2
        rel1 = kirwan_count(act, (1,))
        assert rel1.exponents == (1, 1, 2)
        assert rel1.scalar == 4 and rel1.xi_power == 4

    def test_scaling_consistency(self):
        # doubling all weights rescales the monomial by m^(sum c) and
        # multiplies the stabilizer order by m
        small = kirwan_count(TorusAction([(1,), (1,)], (1,)), (1,))
        big = kirwan_count(TorusAction([(2,), (2,)], (1,)),
                           (Fraction(1, 2),))
        assert big.exponents == small.exponents
        assert big.scalar == small.scalar * 2 ** big.xi_power
        assert big.sector.order == 2 * small.sector.order

    def test_rank_two_rejected(self):
        act = TorusAction([(1, 0), (0, 1)], (1, 1))
        with pytest.raises(RankUnsupported):
            kirwan_count(act, (1, 1))

    def test_negative_pairing_gives_zero_count(self):
        # negative weights in a negative half-space: positive degrees
        # pair negatively and the constraint is unreachable
        act = TorusAction([(-1,), (-2,)], (-1,))
        rel = kirwan_count(act, (1,))
        assert rel.count == 0
        assert "nonpositive pairing" in rel.reason
        assert rel.value() == "0"

    def test_unstable_sector(self):
        with pytest.raises(UnstableSector):
            kirwan_count(teardrop(), (Fraction(1, 3),))

    def test_nonpositive_degree(self):
        with pytest.raises(InvalidAction):
            kirwan_count(teardrop(), (0,))


class TestPresentation:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_projective_family(self, k):
        pres = qh_presentation(projective(k), 1)
        assert pres.presentation_string() == f"xi^{k} = q"

    def test_teardrop(self):
        pres = qh_presentation(teardrop(), 1)
        assert pres.presentation_string() == "4*xi^3 = q"
        assert len(pres.relations) == 2
        assert "4*xi^3 = q" in pres.summary()

    def test_degree_bound_two(self):
        pres = qh_presentation(teardrop(), 2)
        assert len(pres.relations) == 4
        # the presentation still comes from the smallest integer degree
        assert pres.presentation_string() == "4*xi^3 = q"

    def test_one_one_two(self):
        pres = qh_presentation(TorusAction([(1,), (1,), (2,)], (1,)), 1)
        assert pres.presentation_string() == "4*xi^4 = q"
        twisted = [r for r in pres.relations if r.sector.twisted]
        assert len(twisted) == 1
        assert twisted[0].monomial() == "2*xi^3"

    def test_wall_action_checked_only_when_a_degree_is_visited(self):
        wall = TorusAction([(1,), (2,)], (0,))
        with pytest.raises(InvalidAction):
            qh_presentation(wall, 1)
        pres = qh_presentation(wall, 0)
        assert pres.relations == [] and pres.ring_relation is None

    def test_degree_guard(self):
        # lcm(1, 2) = 2 degrees per unit of the bound
        bound = Fraction(PRESENTATION_DEGREE_GUARD, 2)
        with pytest.raises(TooLarge):
            qh_presentation(teardrop(), bound + Fraction(1, 2))
        with pytest.raises(TooLarge):
            qh_presentation(TorusAction([(10 ** 6,), (10 ** 6 - 1,)], (1,)), 1)
