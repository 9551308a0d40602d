import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitorsion import (CofiniteSet, hw_check_semigroup, irreducible_triples,
                         make_semigroup, pairs_set, torsion_length_2gen,
                         triples_set)


small_semigroups = st.lists(st.integers(2, 20), min_size=2, max_size=3).filter(
    lambda g: math.gcd(*g) == 1).map(make_semigroup)


class TestPairsSet:
    def test_57_step_one(self):
        # consecutive runs of <5,7> are {14,15}, {19..22}, {24,->}
        assert pairs_set(make_semigroup([5, 7]), 1) == CofiniteSet(
            24, [14, 19, 20, 21])

    def test_step_above_frobenius(self):
        s = make_semigroup([5, 7])
        members = CofiniteSet(s.frobenius + 1, s.members_upto(s.frobenius))
        for n in (24, 25, 100):
            assert pairs_set(s, n) == members

    def test_23(self):
        assert pairs_set(make_semigroup([2, 3]), 1) == CofiniteSet(2)

    @given(small_semigroups, st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_progressions_vs_scan(self, s, n):
        top = s.frobenius + 2 * n + 3
        pairs = pairs_set(s, n)
        triples = triples_set(s, n)
        for x in range(-2 * n - 3, top):
            in_pair = s.contains(x) and s.contains(x + n)
            assert (x in pairs) == in_pair, x
            assert (x in triples) == (in_pair and s.contains(x + 2 * n)), x

    def test_rejects_bad_step(self):
        s = make_semigroup([2, 3])
        for n in (0, -1):
            with pytest.raises(ValueError):
                pairs_set(s, n)
            with pytest.raises(ValueError):
                triples_set(s, n)


class TestIrreducibleTriples:
    def test_57_step_one(self):
        report = irreducible_triples(make_semigroup([5, 7]), 1)
        assert report.triples == CofiniteSet(24, [19, 20])
        assert report.pairs.sumset(report.pairs) == CofiniteSet(
            38, [28, 33, 34, 35])
        assert report.irreducible == (19, 20, 24, 25, 26, 27, 29, 30, 31, 32,
                                      36, 37)
        assert report.count == 12

    def test_57_step_frobenius(self):
        report = irreducible_triples(make_semigroup([5, 7]), 23)
        assert 5 in report.irreducible and 7 in report.irreducible
        assert report.count >= 1

    def test_23_step_one(self):
        report = irreducible_triples(make_semigroup([2, 3]), 1)
        assert report.irreducible == (2, 3) and report.count == 2

    def test_window_bound(self):
        for gens, n in [([5, 7], 1), ([5, 7], 4), ([3, 10], 2), ([4, 9], 5)]:
            s = make_semigroup(gens)
            report = irreducible_triples(s, n)
            if report.irreducible:
                top = report.pairs.lo + s.frobenius + 1
                assert report.irreducible[0] >= report.triples.lo
                assert report.irreducible[-1] < top


class TestTorsionLength:
    def test_57(self):
        assert torsion_length_2gen(make_semigroup([5, 7]), 1) == 12

    def test_step_in_semigroup(self):
        # total even when the two-generated ideal degenerates to principal
        assert torsion_length_2gen(make_semigroup([2, 3]), 2) == 0
        assert torsion_length_2gen(make_semigroup([2, 3]), 3) == 0

    def test_routes_agree_across_family(self):
        # disagreement raises, so evaluation is the assertion
        semigroups = [[2, 3], [2, 5], [3, 4], [3, 5], [4, 5], [5, 7],
                      [4, 5, 6], [3, 5, 7], [6, 10, 15], [4, 7, 9], [5, 8, 11]]
        for gens in semigroups:
            s = make_semigroup(gens)
            for n in range(1, 2 * max(s.frobenius, 1) + 1):
                torsion_length_2gen(s, n)


class TestHwCheck:
    def test_57(self):
        report = hw_check_semigroup(make_semigroup([5, 7]))
        assert report.all_positive
        assert len(report.per_gap) == 12
        assert report.per_gap[1] == 12

    def test_23(self):
        report = hw_check_semigroup(make_semigroup([2, 3]))
        assert report.per_gap == {1: 2} and report.all_positive
        assert report.min_irreducible[1] == 2

    def test_full_monoid_vacuous(self):
        report = hw_check_semigroup(make_semigroup([1]))
        assert report.per_gap == {} and report.all_positive

    def test_json_shape(self):
        d = hw_check_semigroup(make_semigroup([2, 3])).to_json_dict()
        assert d == {
            "semigroup": [2, 3],
            "gaps": [{"n": 1, "count": 2, "min_irreducible": 2}],
            "all_positive": True,
        }

    def test_three_generated(self):
        report = hw_check_semigroup(make_semigroup([4, 5, 6]))
        assert report.all_positive
        assert set(report.per_gap) == {1, 2, 3, 7}
