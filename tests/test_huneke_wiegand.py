import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitorsion import (CofiniteSet, hw_check_semigroup, irreducible_triples,
                         make_semigroup, minimal_generators_of_set, pairs_set,
                         torsion_length_2gen, triples_set)


small_semigroups = st.lists(st.integers(2, 20), min_size=2, max_size=3).filter(
    lambda g: math.gcd(*g) == 1).map(make_semigroup)

# 2 to 5 generators, multiplicity at most 12
wide_semigroups = st.lists(st.integers(2, 30), min_size=2, max_size=5).filter(
    lambda g: math.gcd(*g) == 1 and min(g) <= 12).map(make_semigroup)


@st.composite
def semigroup_and_step(draw):
    """A semigroup and a step that is a gap, a member or past F."""
    s = draw(wide_semigroups)
    f = s.frobenius
    members = s.members_upto(f)[1:]
    steps = [st.sampled_from(s.gaps()), st.integers(f + 1, 2 * f + 5)]
    if members:
        steps.append(st.sampled_from(members))
    return s, draw(st.one_of(steps))


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

    def test_rejects_bad_step(self):
        s = make_semigroup([5, 7])
        for n in (0, -1):
            with pytest.raises(ValueError):
                irreducible_triples(s, n)

    @given(semigroup_and_step())
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_self_sum(self, case):
        # the generator route against the definition T \ (P + P)
        s, n = case
        p, t = pairs_set(s, n), triples_set(s, n)
        expected = tuple(t.difference(p.sumset(p)))
        report = irreducible_triples(s, n)
        assert report.pairs == p and report.triples == t
        assert report.irreducible == expected
        assert report.count == len(expected)
        assert report.least == (expected[0] if expected else None)
        assert len(minimal_generators_of_set(s, p)) <= s.multiplicity

    def test_window_bound(self):
        for gens, n in [([5, 7], 1), ([5, 7], 4), ([3, 10], 2), ([4, 9], 5)]:
            s = make_semigroup(gens)
            report = irreducible_triples(s, n)
            if report.irreducible:
                top = report.pairs.lo + s.frobenius + 1
                assert report.irreducible[0] >= report.triples.lo
                assert report.irreducible[-1] < top


@pytest.mark.parametrize("route", [
    lambda s, n: irreducible_triples(s, n).count, torsion_length_2gen])
def test_cost_independent_of_step(route):
    # both routes read S near 0, n and 2n only: a window of F + 2n bits
    # would be 250 GB here
    s = make_semigroup([5, 7])
    tracemalloc.start()
    try:
        count = route(s, 10 ** 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 0
    assert peak < 1 << 20, peak


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
                      [4, 5, 6], [3, 5, 7], [6, 10, 15], [4, 7, 9], [5, 8, 11],
                      # some P_n here have 4 or 5 minimal generators
                      [5, 6, 7, 8], [6, 7, 8, 9, 10], [7, 9, 11, 13]]
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
