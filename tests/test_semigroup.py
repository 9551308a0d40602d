import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitorsion import (CofiniteSet, NumericalSemigroup, apery_set,
                         make_ideal, make_semigroup)
from semitorsion.semigroup import _membership_bits

from conftest import knapsack_members, naive_ideal_members

small_semigroups = st.lists(st.integers(2, 20), min_size=2, max_size=3).filter(
    lambda g: math.gcd(*g) == 1).map(make_semigroup)


class TestMakeSemigroup:
    def test_two_generated_frobenius(self):
        s = make_semigroup([5, 7])
        assert s.frobenius == 5 * 7 - 5 - 7 == 23

    def test_full_monoid(self):
        s = make_semigroup([1])
        assert s.frobenius == -1
        assert s.gaps() == []
        assert all(z in s for z in range(50))

    def test_456(self):
        s = make_semigroup([4, 5, 6])
        assert s.frobenius == 7
        assert s.gaps() == [1, 2, 3, 7]
        # oracle: brute-force scan up to the pairwise product bound
        members = knapsack_members([4, 5, 6], 24)
        assert [z for z in range(8) if z not in members] == [1, 2, 3, 7]

    def test_minimal_reduction(self):
        assert make_semigroup([2, 4, 6, 3]).generators == (2, 3)
        assert make_semigroup([4, 5, 6]).generators == (4, 5, 6)
        assert make_semigroup([1, 5]).generators == (1,)
        assert make_semigroup([6, 10, 15]).generators == (6, 10, 15)

    def test_multiplicity(self):
        assert make_semigroup([7, 5]).multiplicity == 5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_semigroup([4, 6])
        with pytest.raises(ValueError):
            make_semigroup([])
        with pytest.raises(ValueError):
            make_semigroup([0, 3])
        with pytest.raises(ValueError):
            make_semigroup([-2, 3])

    def test_shared_instances(self):
        assert make_semigroup([5, 7]) is make_semigroup([7, 5])

    def test_is_a_cofinite_set(self):
        s = make_semigroup([5, 7])
        assert isinstance(s, CofiniteSet)
        assert (s.threshold, s.lo) == (24, 0)
        assert s == CofiniteSet(24, knapsack_members([5, 7], 23))
        assert s != make_semigroup([5, 8])

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=6).filter(
        lambda g: math.gcd(*g) == 1))
    @settings(max_examples=150, deadline=None)
    def test_redundant_unsorted_vs_knapsack(self, gens):
        s = make_semigroup(gens)
        # F < 30 * 30, and a minimal generator is at most F + min(gens)
        bound = 30 * 30 + 30
        members = knapsack_members(gens, bound)
        gaps = [z for z in range(bound + 1) if z not in members]
        frob = max(gaps, default=-1)
        assert s.frobenius == frob
        assert s.gaps() == gaps and s.genus() == len(gaps)
        # g is a minimal generator iff it is no sum of two positive members
        assert s.generators == tuple(sorted(
            g for g in set(gens)
            if not any(0 < m < g and g - m in members for m in members)))
        assert s.multiplicity == min(members - {0})
        assert all((z in s) == (z in members) for z in range(-3, bound + 1))
        assert s == CofiniteSet(frob + 1, members)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=6).filter(
        lambda g: math.gcd(*g) == 1))
    @settings(max_examples=100, deadline=None)
    def test_one_pass_bound_clears_frobenius(self, gens):
        # Schur: F + min(gens) <= the product of the two largest, so the
        # one pass ends in a full run of min(gens) members
        gens = sorted(set(gens))
        bound = max(gens[-1] * gens[-2 if len(gens) > 1 else -1],
                    gens[-1] + 1, 2)
        members = knapsack_members(gens, bound)
        frob = max((z for z in range(bound + 1) if z not in members),
                   default=-1)
        assert frob + gens[0] <= bound
        assert _membership_bits(gens) == sum(1 << z for z in members)


class TestContains:
    def test_examples(self):
        assert 22 in make_semigroup([5, 11])
        assert 23 not in make_semigroup([5, 7])
        assert -1 not in make_semigroup([5, 7])

    @pytest.mark.parametrize("gens", [[5, 7], [4, 5, 6], [3, 7, 8], [6, 10, 15], [2, 9]])
    def test_agrees_with_knapsack(self, gens):
        s = make_semigroup(gens)
        bound = 2 * s.frobenius + 2
        members = knapsack_members(gens, bound)
        for z in range(bound + 1):
            assert (z in s) == (z in members)


class TestGaps:
    def test_examples(self):
        assert make_semigroup([2, 3]).gaps() == [1]
        g = make_semigroup([5, 7]).gaps()
        assert len(g) == 12 and max(g) == 23
        assert make_semigroup([4, 5, 6]).gaps() == [1, 2, 3, 7]

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 4), (5, 7), (4, 9), (5, 11), (8, 13)])
    def test_two_generated_counts(self, a, b):
        s = make_semigroup([a, b])
        assert s.frobenius == a * b - a - b
        assert len(s.gaps()) == (a - 1) * (b - 1) // 2


class TestAperySet:
    def test_of_ideal(self):
        s = make_semigroup([5, 7])
        a = make_ideal(s, [17, 21, 25])
        assert apery_set(a, 12) == {17, 21, 22, 24, 25, 26, 27, 28, 30, 31, 32, 35}

    def test_of_semigroup(self):
        assert apery_set(make_ideal(make_semigroup([2, 3]), [0]), 2) == {0, 3}
        assert apery_set(make_ideal(make_semigroup([5, 7]), [0]), 5) == {
            0, 7, 14, 21, 28}

    @pytest.mark.parametrize("gens,n", [([5, 7], 5), ([5, 7], 12), ([4, 5, 6], 4),
                                        ([4, 5, 6], 10), ([3, 7, 8], 7)])
    def test_size_and_residues(self, gens, n):
        s = make_semigroup(gens)
        ap = apery_set(make_ideal(s, [0]), n)
        assert len(ap) == n
        assert {x % n for x in ap} == set(range(n))
        # least member of every residue class: subtracting n exits
        assert all(x - n not in s for x in ap)

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=3),
           st.lists(st.integers(-6, 12), min_size=1, max_size=4),
           st.integers(1, 25))
    @settings(max_examples=100, deadline=None)
    def test_of_random_ideal_vs_definition(self, semi_gens, ideal_gens, n):
        semi_gens = semi_gens + [max(semi_gens) + 1]
        s = make_semigroup(semi_gens)
        if n not in s:
            n *= s.multiplicity
        # every Apery element lies below max + F + 1 + n, and F < 10 * 10
        bound = max(ideal_gens) + 10 * 10 + n
        members = naive_ideal_members(semi_gens, ideal_gens, bound)
        expected = {x for x in members if x - n not in members}
        got = apery_set(make_ideal(s, ideal_gens), n)
        assert got == expected and len(got) == n

    def test_rejects_non_members(self):
        s = make_ideal(make_semigroup([4, 5, 6]), [0])
        for n in (3, 0, -4):
            with pytest.raises(ValueError):
                apery_set(s, n)


class TestSymmetry:
    def test_examples(self):
        assert make_semigroup([5, 7]).is_symmetric()
        assert not make_semigroup([3, 5, 7]).is_symmetric()
        assert make_semigroup([4, 5, 6]).is_symmetric()
        assert make_semigroup([1]).is_symmetric()

    def test_all_two_generated_symmetric(self):
        for a in range(2, 7):
            for b in range(a + 1, 41 // a + 1):
                if math.gcd(a, b) == 1:
                    assert make_semigroup([a, b]).is_symmetric(), (a, b)

    def test_large_build_memory(self):
        # 9 M membership bits (1.1 MB): the symmetry check reverses
        # them without a byte or character per bit
        tracemalloc.start()
        try:
            s = NumericalSemigroup([3000, 3001])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.is_symmetric()
        assert peak < 12 << 20, peak

    @given(small_semigroups)
    @settings(max_examples=150, deadline=None)
    def test_matches_definition(self, s):
        f = s.frobenius
        expected = all((z in s) != (f - z in s)
                       for z in range(-1, f + 2))
        assert s.is_symmetric() == expected
