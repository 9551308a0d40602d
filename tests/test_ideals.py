import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semitorsion import (CofiniteSet, NumericalSemigroup,
                         SemigroupMismatchError, apery_set,
                         canonical_ideal_gens, dual_formula, dual_symmetric,
                         fiber_class_count, fiber_graph, ideal_dual,
                         ideal_intersect, ideal_shift, ideal_sum,
                         irreducible_triples, make_ideal, make_semigroup,
                         minimal_generators_of_set, torsion_length_2gen)

from conftest import (Index, knapsack_members, naive_dual_members,
                      naive_ideal_members)

semigroup_gens = st.lists(st.integers(2, 11), min_size=1, max_size=3).map(
    lambda gs: gs + [max(gs) + 1]  # consecutive pair forces gcd 1
)
LEAST = -8  # no generator of ideal_gens, so no member, lies below
ideal_gens = st.lists(st.integers(LEAST, 14), min_size=1, max_size=4)


@st.composite
def semigroup_and_ideal(draw):
    s = make_semigroup(draw(semigroup_gens))
    return s, make_ideal(s, draw(ideal_gens))


small_semigroup_gens = st.lists(st.integers(2, 30), min_size=2,
                                max_size=4).filter(lambda gs: math.gcd(*gs) == 1)


@st.composite
def two_ideals(draw):
    """A semigroup and two ideals over it, each from a generator list that
    may carry a redundant generator; the second is often the first
    regenerated through one."""
    s = make_semigroup(draw(small_semigroup_gens))

    def padded(gens):  # gens, or gens with a member of gens[0] + S added
        n = draw(st.sampled_from(s.generators)) * draw(st.integers(0, 3))
        return gens + [gens[0] + n]

    ga = draw(ideal_gens)
    gb = draw(st.one_of(ideal_gens, st.just(ga)))
    return s, make_ideal(s, padded(ga)), make_ideal(s, padded(gb))


@pytest.mark.parametrize("build", [
    lambda: make_semigroup([2.5, 3]),
    lambda: make_ideal(make_semigroup([2, 3]), [0, 1.9]),
    lambda: CofiniteSet(3.7, [1.2]),
], ids=["semigroup", "ideal", "cofinite"])
def test_non_integers_raise(build):
    # truncating 2.5 to 2 would answer for another semigroup
    with pytest.raises(TypeError):
        build()


S57 = make_semigroup([5, 7])


@pytest.mark.parametrize("call", [
    lambda k: irreducible_triples(S57, k(3)),
    lambda k: torsion_length_2gen(S57, k(3)),
    lambda k: ideal_shift(make_ideal(S57, [0, 3]), k(-4)),
    lambda k: fiber_class_count(make_ideal(S57, [0, 3]),
                                make_ideal(S57, [0, 2]), k(-2), k(30)),
    lambda k: canonical_ideal_gens(S57, k(12), k(3)),
    lambda k: k(30) in S57,
    lambda k: fiber_graph(make_ideal(S57, [0, 3]), make_ideal(S57, [0, 2]),
                          k(8)),
    lambda k: apery_set(make_ideal(S57, [0, 3]), k(12)),
], ids=["irreducible_triples", "torsion_length_2gen", "ideal_shift",
        "fiber_class_count", "canonical_ideal_gens", "membership",
        "fiber_graph", "apery_set"])
def test_index_arguments(call):
    # any integer type answers as int does; a float is refused, not cut
    assert call(Index) == call(int)
    with pytest.raises(TypeError):
        call(float)


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
        assert a.min_gens == (9,) and a.mu == 1
        assert all((9 + m in a.set) == (m in s) for m in range(-3, 40))

    def test_set_vs_oracle(self):
        s = make_semigroup([5, 7])
        a = make_ideal(s, [17, 21, 25])
        bound = a.set.threshold + 10
        expected = naive_ideal_members([5, 7], [17, 21, 25], bound)
        assert {z for z in range(bound + 1) if z in a.set} == expected

    def test_mu_and_min_element(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        assert a.mu == 2 and a.min_gens[0] == 4
        assert make_ideal(s, [17, 21, 25]).semigroup is s

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_ideal(make_semigroup([2, 3]), [])

    def test_equal_ideals_hash_equal(self):
        # over the shared <4,5,6> and over an uncached copy of it
        a = make_ideal(make_semigroup([4, 5, 6]), [4, 5, 8])
        b = make_ideal(NumericalSemigroup([6, 5, 4]), [5, 4])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

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
        assert {z for z in range(LEAST, bound + 1)
                if z in a.set} == naive_ideal_members(semi_gens, gens, bound)

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
                assert g == h or g - h not in a.semigroup


class TestEqualityBySet:
    @given(two_ideals())
    @settings(max_examples=100)
    def test_equal_exactly_when_generators_are(self, sab):
        _, a, b = sab
        equal = a == b  # compares sets, before any generator is read
        assert equal == (a.min_gens == b.min_gens)
        assert not equal or hash(a) == hash(b)

    @given(two_ideals())
    @settings(max_examples=80)
    def test_generators_read_on_demand_match_a_scan(self, sab):
        s, a, b = sab
        results = [ideal_dual(a), ideal_sum(a, b), ideal_intersect(a, b)]
        if s.is_symmetric():
            results.append(dual_symmetric(a))
        if len(s.generators) == 2:
            results.append(dual_formula(a))
        for x in results:
            assert x.min_gens == minimal_generators_of_set(s, x.set)
            assert make_ideal(s, x.min_gens) == x

    @given(two_ideals(), small_semigroup_gens)
    @settings(max_examples=80)
    def test_unequal_semigroups_never_equal(self, sab, other):
        s, a, _ = sab
        t = make_semigroup(other)
        assume(t != s)
        assert a != make_ideal(t, a.min_gens) and make_ideal(t, a.min_gens) != a

    def test_same_set_over_unequal_semigroups(self):
        # both ideals are the set of all z >= 0
        a = make_ideal(make_semigroup([2, 3]), [0, 1])
        b = make_ideal(make_semigroup([3, 4, 5]), [0, 1, 2])
        assert a.set == b.set and a != b and b != a


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
        assert {z for z in range(2 * LEAST, bound + 1)
                if z in total.set} == expected


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
        assert {z for z in range(LEAST, bound + 1) if z in got.set} == expected
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
        assert {z for z in range(lo, hi + 1) if z in dual.set} == expected

    @given(semigroup_and_ideal(), ideal_gens)
    @settings(max_examples=50)
    def test_order_reversal_and_join_rule(self, si, gens_b):
        s, a = si
        b = make_ideal(s, gens_b)
        # the join (generated by both generator sets) is the set union,
        # and dualizing it intersects the duals
        join = make_ideal(s, a.min_gens + b.min_gens)
        top = max(a.set.threshold, b.set.threshold)
        assert join.set == CofiniteSet(top, [z for z in range(LEAST, top)
                                             if z in a.set or z in b.set])
        assert ideal_dual(join) == ideal_intersect(ideal_dual(a), ideal_dual(b))
        if not a.set.difference(b.set):
            assert not ideal_dual(b).set.difference(ideal_dual(a).set)

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


@pytest.mark.parametrize("semi_gens, gens", [
    ([1], [-1]),  # S = <1>: F = -1, S read as the int -1
    ([1], [4, 0, 2]),
    ([5, 7], [3, 3 + 24, 3 + 40]),  # past min + F = 26: cut
    ([5, 7], [3, 3 + 23, 3 + 25, 3 + 60]),
    ([4, 5, 6], [9, -4, 9, 2, -4, -3]),  # duplicate, unsorted, negative
    ([4, 5, 6], [-6, 0, 1, 2]),  # three-generated
    ([5, 7, 9], [11, 1, 2, -2]),
    ([5, 6, 7, 8], [0, 1, 9, 3]),  # four-generated
    ([7, 9, 11, 13], [-5, 20, 3, 8, 1, 52]),
], ids=["one-member", "one-three", "cut", "cut-keeps-last", "unsorted",
        "three-gen", "three-gen-gaps", "four-gen", "four-gen-far"])
def test_ideal_and_dual_edge_cases(semi_gens, gens):
    # make_ideal and ideal_dual against the brute-force helpers, on inputs
    # the random strategies reach rarely or never
    s = make_semigroup(semi_gens)
    a = make_ideal(s, gens)
    lo, bound = min(gens) - 3, a.set.threshold + 5
    expected = naive_ideal_members(semi_gens, gens, bound)
    assert {z for z in range(lo, bound + 1) if z in a.set} == expected
    members = knapsack_members(semi_gens, max(gens) - min(gens))
    assert a.min_gens == tuple(sorted(
        g for g in set(gens)
        if not any(h != g and g - h in members for h in gens)))
    dual = ideal_dual(a)
    lo, hi = dual.set.lo - 3, dual.set.threshold + 5
    assert {z for z in range(lo, hi + 1) if z in dual.set} == \
        naive_dual_members(semi_gens, gens, lo, hi)


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
