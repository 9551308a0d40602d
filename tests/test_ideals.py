import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitorsion import (CofiniteSet, NumericalSemigroup,
                         SemigroupMismatchError, ideal_dual, ideal_intersect,
                         ideal_shift, ideal_sum, make_ideal, make_semigroup,
                         minimal_generators_of_set)

from conftest import knapsack_members, naive_dual_members, naive_ideal_members

semigroup_gens = st.lists(st.integers(2, 11), min_size=1, max_size=3).map(
    lambda gs: gs + [max(gs) + 1]  # consecutive pair forces gcd 1
)
ideal_gens = st.lists(st.integers(-8, 14), min_size=1, max_size=4)


@st.composite
def semigroup_and_ideal(draw):
    s = make_semigroup(draw(semigroup_gens))
    return s, make_ideal(s, draw(ideal_gens))


class TestMakeIdeal:
    def test_redundant_generator_dropped(self):
        s = make_semigroup([4, 5, 6])
        assert make_ideal(s, [4, 5, 8]).min_gens == (4, 5)

    def test_already_minimal(self):
        s = make_semigroup([5, 7])
        assert make_ideal(s, [17, 21, 25]).min_gens == (17, 21, 25)

    def test_principal(self):
        s = make_semigroup([5, 7])
        a = make_ideal(s, [9])
        assert a.min_gens == (9,) and a.is_principal and a.mu == 1
        assert all((9 + m in a.set) == s.contains(m) for m in range(-3, 40))

    def test_set_vs_oracle(self):
        s = make_semigroup([5, 7])
        a = make_ideal(s, [17, 21, 25])
        bound = a.set.threshold + 10
        expected = naive_ideal_members([5, 7], [17, 21, 25], bound)
        assert set(a.set.members_upto(bound)) == expected

    def test_mu_and_min_element(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        assert a.mu == 2 and a.min_gens[0] == 4 and not a.is_principal
        assert make_ideal(s, [17, 21, 25]).semigroup is s

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_ideal(make_semigroup([2, 3]), [])

    @given(semigroup_and_ideal())
    @settings(max_examples=80)
    def test_roundtrip(self, si):
        s, a = si
        again = make_ideal(s, a.min_gens)
        assert again.min_gens == a.min_gens and again.set == a.set

    @given(semigroup_gens, ideal_gens)
    @settings(max_examples=80)
    def test_vs_brute_force(self, semi_gens, gens):
        a = make_ideal(make_semigroup(semi_gens), gens)
        # F < 12 * 12, so this covers every difference of two generators
        members = knapsack_members(semi_gens, 12 * 12 + 22)
        assert a.min_gens == tuple(sorted(
            g for g in set(gens)
            if not any(h != g and g - h in members for h in gens)))
        bound = a.set.threshold + 5
        assert set(a.set.members_upto(bound)) == naive_ideal_members(
            semi_gens, gens, bound)

    def test_far_generator_dropped(self):
        s = make_semigroup([5, 7])
        assert make_ideal(s, [3, 3 + 24, 3 + 10**9]).min_gens == (3,)
        assert make_ideal(s, [3, 3 + 23]).min_gens == (3, 26)

    @given(semigroup_and_ideal())
    @settings(max_examples=80)
    def test_min_gens_are_antichain(self, si):
        _, a = si
        for g in a.min_gens:
            for h in a.min_gens:
                assert g == h or not a.semigroup.contains(g - h)


class TestSum:
    def test_square_of_two_generated(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        assert ideal_sum(a, a).set == CofiniteSet(12, [8, 9, 10])

    def test_principal_shift(self):
        s = make_semigroup([2, 3])
        assert ideal_sum(make_ideal(s, [0]), make_ideal(s, [5])).min_gens == (5,)

    def test_pairwise_sums_reduced(self):
        s = make_semigroup([5, 7])
        a = make_ideal(s, [17, 21, 25])
        b = make_ideal(s, [0, 3, 4])
        assert ideal_sum(a, b).min_gens == (17, 20, 21)

    def test_mismatch(self):
        a = make_ideal(make_semigroup([2, 3]), [0])
        b = make_ideal(make_semigroup([2, 5]), [0])
        with pytest.raises(SemigroupMismatchError):
            ideal_sum(a, b)

    def test_equal_semigroup_objects_match(self):
        # the identity test comes first, but equal copies still pass
        a = make_ideal(make_semigroup([2, 3]), [0])
        b = make_ideal(NumericalSemigroup([3, 2]), [1])
        assert a.semigroup is not b.semigroup
        assert ideal_sum(a, b).min_gens == (1,)

    @given(semigroup_and_ideal(), ideal_gens)
    @settings(max_examples=60)
    def test_vs_oracle(self, si, gens_b):
        s, a = si
        b = make_ideal(s, gens_b)
        total = ideal_sum(a, b)
        bound = total.set.threshold + 5
        expected = {
            x + y
            for x in naive_ideal_members(list(s.generators), list(a.min_gens),
                                         bound - b.min_gens[0])
            for y in naive_ideal_members(list(s.generators), list(b.min_gens),
                                         bound - a.min_gens[0])
            if x + y <= bound
        }
        assert set(total.set.members_upto(bound)) == expected


class TestIntersect:
    def test_two_principals(self):
        s = make_semigroup([4, 5, 6])
        got = ideal_intersect(make_ideal(s, [4]), make_ideal(s, [5]))
        assert got.min_gens == (9, 10)

    def test_idempotent(self):
        s = make_semigroup([5, 7])
        a = make_ideal(s, [17, 21, 25])
        assert ideal_intersect(a, a) == a

    def test_over_23(self):
        s = make_semigroup([2, 3])
        got = ideal_intersect(make_ideal(s, [0]), make_ideal(s, [1]))
        assert got.min_gens == (3, 4)

    def test_mismatch(self):
        a = make_ideal(make_semigroup([2, 3]), [0])
        b = make_ideal(make_semigroup([3, 4]), [0])
        with pytest.raises(SemigroupMismatchError):
            ideal_intersect(a, b)

    @given(semigroup_and_ideal(), ideal_gens)
    @settings(max_examples=60)
    def test_vs_oracle(self, si, gens_b):
        s, a = si
        b = make_ideal(s, gens_b)
        got = ideal_intersect(a, b)
        bound = got.set.threshold + 5
        expected = naive_ideal_members(
            list(s.generators), list(a.min_gens), bound
        ) & naive_ideal_members(list(s.generators), list(b.min_gens), bound)
        assert set(got.set.members_upto(bound)) == expected
        # result is a valid ideal: regenerating from its generators is stable
        assert make_ideal(s, got.min_gens).set == got.set


class TestDual:
    def test_three_generated_triple(self):
        s = make_semigroup([5, 7])
        assert ideal_dual(make_ideal(s, [17, 21, 25])).min_gens == (0, 3, 4)

    def test_principal(self):
        s = make_semigroup([5, 7])
        assert ideal_dual(make_ideal(s, [9])).min_gens == (-9,)

    def test_min_element(self):
        s = make_semigroup([5, 7])
        assert ideal_dual(make_ideal(s, [0, 1])).min_gens[0] == 14

    @given(semigroup_and_ideal())
    @settings(max_examples=60)
    def test_vs_oracle(self, si):
        s, a = si
        dual = ideal_dual(a)
        lo = dual.set.lo - 3
        hi = dual.set.threshold + 5
        expected = naive_dual_members(list(s.generators), list(a.min_gens), lo, hi)
        assert set(dual.set.members_upto(hi)) - set(range(lo)) == expected

    @given(semigroup_and_ideal(), ideal_gens)
    @settings(max_examples=50)
    def test_order_reversal_and_join_rule(self, si, gens_b):
        s, a = si
        b = make_ideal(s, gens_b)
        # the join (generated by both generator sets) is the set union,
        # and dualizing it intersects the duals
        join = make_ideal(s, a.min_gens + b.min_gens)
        assert join.set == a.set.union(b.set)
        assert ideal_dual(join) == ideal_intersect(ideal_dual(a), ideal_dual(b))
        if a.set.issubset(b.set):
            assert ideal_dual(b).set.issubset(ideal_dual(a).set)

    @given(semigroup_and_ideal(), st.integers(-20, 20))
    @settings(max_examples=50)
    def test_shift_covariance(self, si, c):
        _, a = si
        assert ideal_dual(ideal_shift(a, c)) == ideal_shift(ideal_dual(a), -c)

    def test_bidual_over_symmetric(self):
        s = make_semigroup([5, 7])
        for gens in [(17, 21, 25), (0, 1), (0, 2, 4), (-3, 6)]:
            a = make_ideal(s, gens)
            assert ideal_dual(ideal_dual(a)) == a


class TestShift:
    def test_examples(self):
        s = make_semigroup([5, 7])
        a = make_ideal(s, [17, 21, 25])
        assert ideal_shift(a, -17).min_gens == (0, 4, 8)
        assert ideal_shift(a, 0) == a
        assert ideal_shift(ideal_shift(a, 11), -11) == a


class TestMinimalGeneratorsOfSet:
    @given(semigroup_gens, ideal_gens)
    @settings(max_examples=60)
    def test_recovers_ideal(self, semi_gens, gens):
        # the ideal's set from a knapsack, and its minimal generators by
        # definition: the x in it with no y in it and x - y in S \ {0}
        s = make_semigroup(semi_gens)
        top = min(gens) + s.frobenius + 1
        xs = naive_ideal_members(semi_gens, gens, top)
        members = knapsack_members(semi_gens, top - min(gens))
        expected = tuple(sorted(
            x for x in xs if not any(x - y in members for y in xs if y < x)))
        assert minimal_generators_of_set(
            s, CofiniteSet(top, [x for x in xs if x < top])) == expected
