import itertools

import pytest

from treelevel.combis import bell
from treelevel.divrel import (
    classify_under_forgetting,
    rho_divisor_enumeration,
    verify_m04_pullback,
    verify_multiplihedron_pullback,
)
from treelevel.errors import KindMismatch, TooLarge
from treelevel.strata import M0, MULT, boundary_divisors


def _divisor(space, shape_kind, data):
    for d in boundary_divisors(space):
        if d.shape[0] == shape_kind and d.shape[1] == data:
            return d
    raise LookupError((shape_kind, data))


class TestClassify:
    def test_subset_containing_both_lands_on_joined(self):
        d = _divisor(MULT(3), "subset", frozenset({1, 2, 3}))
        cls = classify_under_forgetting(d, {1, 2})
        assert cls.result == "boundary"
        assert cls.target.shape == ("subset", frozenset({1, 2}))
        assert cls.multiplicity == 1

    def test_full_partition_lands_on_separated(self):
        blocks = frozenset({frozenset({1}), frozenset({2}), frozenset({3})})
        d = _divisor(MULT(3), "partition", blocks)
        cls = classify_under_forgetting(d, {1, 2})
        assert cls.result == "boundary"
        assert cls.target.shape[0] == "partition"

    def test_mixed_partition_lands_on_separated(self):
        blocks = frozenset({frozenset({1, 3}), frozenset({2})})
        d = _divisor(MULT(3), "partition", blocks)
        cls = classify_under_forgetting(d, {1, 2})
        assert cls.result == "boundary"
        assert cls.target.shape[0] == "partition"

    def test_subset_missing_a_leg_dominates(self):
        d = _divisor(MULT(3), "subset", frozenset({2, 3}))
        cls = classify_under_forgetting(d, {1, 2})
        assert cls.result == "dominant"

    def test_joined_partition_dominates(self):
        blocks = frozenset({frozenset({1, 2}), frozenset({3})})
        d = _divisor(MULT(3), "partition", blocks)
        cls = classify_under_forgetting(d, {1, 2})
        assert cls.result == "dominant"

    def test_wrong_kind(self):
        from treelevel.strata import SCALED

        d = boundary_divisors(SCALED(2))[0]
        with pytest.raises(KindMismatch):
            classify_under_forgetting(d, {1, 2})

    def test_relabeling_stability(self):
        # classification only depends on where legs 1 and 2 sit
        for perm in itertools.permutations((3, 4)):
            mapping = dict(zip((3, 4), perm))
            for d in boundary_divisors(MULT(4)):
                kind, data = d.shape
                if kind == "subset":
                    data2 = frozenset(mapping.get(x, x) for x in data)
                else:
                    data2 = frozenset(
                        frozenset(mapping.get(x, x) for x in b) for b in data)
                d2 = _divisor(MULT(4), kind, data2)
                a = classify_under_forgetting(d, {1, 2})
                b = classify_under_forgetting(d2, {1, 2})
                assert a.result == b.result


class TestMultiplihedronPullback:
    def test_n2(self):
        report = verify_multiplihedron_pullback(2)
        assert report.ok
        assert [c.divisor.name for c in report.lhs] == ["D_[{1}|{2}]"]
        assert [c.divisor.name for c in report.rhs] == ["D_{1,2}"]

    def test_n3_counts(self):
        report = verify_multiplihedron_pullback(3)
        assert report.ok
        assert len(report.lhs) == 3 and len(report.rhs) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts_match_direct_enumeration(self, n):
        report = verify_multiplihedron_pullback(n)
        assert report.ok
        lhs = bell(n) - bell(n - 1)      # partitions separating 1 and 2
        rhs = 2 ** (n - 2)               # subsets containing both
        assert len(report.lhs) == lhs
        assert len(report.rhs) == rhs
        total = len(boundary_divisors(MULT(n)))
        assert len(report.dominant) == total - lhs - rhs

    def test_every_divisor_classified_once(self):
        report = verify_multiplihedron_pullback(4)
        names = [c.divisor.name
                 for c in report.lhs + report.rhs + report.dominant]
        assert len(names) == len(set(names)) == len(boundary_divisors(MULT(4)))

    def test_guard(self):
        with pytest.raises(TooLarge):
            verify_multiplihedron_pullback(7)


class TestM04Pullback:
    def test_n4_identity(self):
        for split in ("12|34", "13|24", "14|23"):
            report = verify_m04_pullback(4, split)
            assert report.ok
            assert len(report.preimage) == 1

    def test_n5_split_12_34(self):
        report = verify_m04_pullback(5, "12|34")
        assert report.ok
        got = {frozenset(c.divisor.shape[1]) for c in report.preimage}
        # the two splittings refining 12|34: {1,2}|{3,4,5} and {1,2,5}|{3,4}
        assert got == {frozenset({1, 2}), frozenset({3, 4})}

    def test_n5_divisor_count(self):
        assert len(boundary_divisors(M0(5))) == 10

    @pytest.mark.parametrize("split", ["12|34", "13|24", "14|23"])
    def test_n6(self, split):
        assert verify_m04_pullback(6, split).ok


class TestRho:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bell_counts_and_dimensions(self, n):
        report = rho_divisor_enumeration(n)
        assert report.ok
        assert len(report.partitions) == bell(n)
        assert report.rho.dimension() == n
        for d in report.partitions:
            assert d.dimension() == n

    def test_summary_mentions_multiplicity_one(self):
        assert "multiplicities 1" in rho_divisor_enumeration(2).summary()


def test_open_stratum_found_once_per_target_space(monkeypatch):
    from treelevel import divrel

    calls = []
    real = divrel.enumerate_strata
    monkeypatch.setattr(divrel, "enumerate_strata",
                        lambda space: calls.append(space) or real(space))
    divrel._open_keys.cache_clear()
    before = verify_multiplihedron_pullback(4).summary()
    verify_multiplihedron_pullback(4)
    assert calls == [MULT(2)]
    assert verify_m04_pullback(6, "13|24").ok
    assert calls == [MULT(2), M0(4)]
    divrel._open_keys.cache_clear()
    assert verify_multiplihedron_pullback(4).summary() == before
