import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semitorsion.huneke_wiegand as huneke_wiegand
from semitorsion import (CofiniteSet, RouteDisagreementError,
                         hw_check_semigroup, irreducible_triples,
                         make_semigroup, minimal_generators_of_set,
                         torsion_length_2gen)


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
    members = list(s.below[1:])
    steps = [st.sampled_from(s.gaps()), st.integers(f + 1, 2 * f + 5)]
    if members:
        steps.append(st.sampled_from(members))
    return s, draw(st.one_of(steps))


def plain_sets(s, n):
    """P and T of step n read from membership in S, each holding every
    x > F; the brute force the scan is checked against."""
    f = s.frobenius
    p = [x for x in range(f + 1) if x in s and x + n in s]
    return (CofiniteSet(f + 1, p),
            CofiniteSet(f + 1, [x for x in p if x + 2 * n in s]))


class TestIrreducibleTriples:
    def test_57_step_one(self):
        p, t = plain_sets(make_semigroup([5, 7]), 1)
        assert t == CofiniteSet(24, [19, 20])
        assert p.sumset(p) == CofiniteSet(38, [28, 33, 34, 35])
        assert t.difference(p.sumset(p)) == [19, 20, 24, 25, 26, 27, 29, 30,
                                             31, 32, 36, 37]
        assert irreducible_triples(make_semigroup([5, 7]), 1) == (12, 19)

    def test_57_step_frobenius(self):
        s = make_semigroup([5, 7])
        p, t = plain_sets(s, 23)
        irreducible = t.difference(p.sumset(p))
        assert 5 in irreducible and 7 in irreducible
        assert irreducible_triples(s, 23) == (len(irreducible), 5)

    def test_23_step_one(self):
        report = irreducible_triples(make_semigroup([2, 3]), 1)
        assert report.count == 2 and report.least == 2

    @pytest.mark.parametrize("a,b", [(2, 3), (5, 7)])
    def test_rejects_bad_step(self, a, b):
        s = make_semigroup([a, b])
        for n in (0, -1):
            with pytest.raises(ValueError):
                irreducible_triples(s, n)

    @given(semigroup_and_step())
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_self_sum(self, case):
        # the generator route against the definition T \ (P + P), with
        # P and T read from membership in S
        s, n = case
        p, t = plain_sets(s, n)
        expected = t.difference(p.sumset(p))
        report = irreducible_triples(s, n)
        assert report.count == len(expected)
        assert report.least == (expected[0] if expected else None)
        assert len(minimal_generators_of_set(s, p)) <= s.multiplicity

    def test_window_bound(self):
        # T \ (P + P) lies in [min T, min P + F + 1), inside the scan's
        # window [0, 2F + 2)
        for gens, n in [([5, 7], 1), ([5, 7], 4), ([3, 10], 2), ([4, 9], 5)]:
            s = make_semigroup(gens)
            p, t = plain_sets(s, n)
            irreducible = t.difference(p.sumset(p))
            assert irreducible[0] >= t.lo
            assert irreducible[-1] < p.lo + s.frobenius + 1
            assert irreducible_triples(s, n) == (len(irreducible),
                                                 irreducible[0])


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

    def test_disagreement_raises(self, monkeypatch):
        # a direct scan one off must raise, not return either count
        true_scan = huneke_wiegand.irreducible_triples

        def off_by_one(s, n):
            report = true_scan(s, n)
            return report._replace(count=report.count + 1)

        monkeypatch.setattr(huneke_wiegand, "irreducible_triples", off_by_one)
        with pytest.raises(RouteDisagreementError,
                           match="direct scan 13 != dual route 12"):
            torsion_length_2gen(make_semigroup([5, 7]), 1)


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
