import math
import random
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semitorsion.torsion as torsion
from conftest import naive_betti_1, naive_fiber_classes
from semitorsion import (CofiniteSet, SemigroupMismatchError, TauEngine,
                         TorsionProfile, canonical_ideal_gens, coprime_pairs,
                         fiber_class_count, fiber_graph,
                         graph_to_dot, ideal_intersect, ideal_shift, ideal_sum,
                         make_ideal, make_semigroup, scan_window,
                         splits_torsion_free, torsion_bound_with_correction,
                         torsion_profile)


@st.composite
def lane_windows(draw):
    """An ideal pair over <1>, <3,4,5> or a 3- or 4-generated semigroup,
    and a window from below its first fiber to past its one-class bound."""
    semi = draw(st.one_of(
        st.sampled_from([[1], [3, 4, 5]]),
        st.lists(st.integers(2, 30), min_size=3, max_size=4, unique=True)
        .filter(lambda g: math.gcd(*g) == 1 and min(g) <= 6)))
    s = make_semigroup(semi)
    ideal = st.lists(st.integers(-6, s.frobenius + 8), min_size=1,
                     max_size=3)
    a, b = make_ideal(s, draw(ideal)), make_ideal(s, draw(ideal))
    lo = a.min_gens[0] + b.min_gens[0] - draw(st.integers(1, 4))
    hi = (a.set.threshold + b.set.threshold + 2 * s.frobenius
          + draw(st.integers(3, 6)))
    return a, b, lo, hi


def naive_window(a, b, lo, hi):
    return [naive_fiber_classes(list(a.semigroup.generators),
                                list(a.min_gens), list(b.min_gens), z)
            for z in range(lo, hi + 1)]


@pytest.fixture
def example_511():
    s = make_semigroup([5, 11])
    return (make_ideal(s, [20, 21, 22]), make_ideal(s, [0, 23, 24]))


class TestFiberGraph:
    def test_three_disjoint_edges(self, example_511):
        a, b = example_511
        g = fiber_graph(a, b, 45)
        assert g.edges == {(1, 1), (2, 3), (3, 2)}
        assert g.left_vertices == (1, 2, 3) and g.right_vertices == (1, 2, 3)
        assert g.component_count == 3

    def test_connected_six_edges(self, example_511):
        a, b = example_511
        g = fiber_graph(a, b, 55)
        assert g.edges == {(1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2)}
        assert g.component_count == 1

    def test_degree_44_has_all_six_vertices(self, example_511):
        # the fiber of 44 contains 22 (x) 22, forcing v3 and w1 to exist
        a, b = example_511
        g = fiber_graph(a, b, 44)
        assert g.left_vertices == (1, 2, 3)
        assert g.right_vertices == (1, 2, 3)
        assert g.edges == {(1, 3), (2, 2), (3, 1)}
        assert g.component_count == 3

    def test_below_fiber_bottom(self, example_511):
        a, b = example_511
        g = fiber_graph(a, b, 19)
        assert g.component_count == 0
        assert not g.left_vertices and not g.right_vertices and not g.edges

    def test_every_vertex_carries_an_edge(self, example_511):
        a, b = example_511
        lo, hi = scan_window(a, b)
        for z in range(lo - 1, hi + 2):
            g = fiber_graph(a, b, z)
            # v_i is present when z - a_i lies in B, w_j when z - b_j in A
            lefts = {i for i, x in enumerate(a.min_gens, 1) if z - x in b.set}
            rights = {j for j, y in enumerate(b.min_gens, 1) if z - y in a.set}
            assert set(g.left_vertices) == lefts == {i for i, _ in g.edges}
            assert set(g.right_vertices) == rights == {j for _, j in g.edges}

    def test_far_degrees_stay_small(self, example_511):
        a, b = example_511
        s = make_semigroup([5, 7])
        tracemalloc.start()
        try:
            far_gens = make_ideal(s, [0, 10**7]).min_gens
            low = fiber_graph(a, b, -10**7)
            high = fiber_graph(a, b, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert far_gens == (0,)
        assert not low.edges and low.component_count == 0
        assert len(high.edges) == 9 and high.component_count == 1
        assert peak < 64 * 1024, peak

    def test_mismatch(self):
        a = make_ideal(make_semigroup([2, 3]), [0])
        b = make_ideal(make_semigroup([2, 5]), [0])
        with pytest.raises(SemigroupMismatchError):
            fiber_graph(a, b, 4)


class TestFiberComponentCounts:
    def test_matches_graph_per_degree(self, example_511):
        a, b = example_511
        lo, hi = scan_window(a, b)
        counts = TauEngine(a.semigroup).component_counts(a.min_gens,
                                                         b.min_gens)
        assert counts == [fiber_graph(a, b, z).component_count
                          for z in range(lo, hi + 1)]
        # degrees 44, 45 and 55 of the worked example
        assert (counts[44 - lo], counts[45 - lo], counts[55 - lo]) == (3, 3, 1)

    def test_empty_window(self):
        s = make_semigroup([1])
        a, b = make_ideal(s, [3]), make_ideal(s, [5])
        assert scan_window(a, b) == (8, 7)
        assert TauEngine(s).component_counts(a.min_gens, b.min_gens) == []

    @pytest.mark.parametrize("cap", [255, 2, 1])
    @pytest.mark.parametrize("semi,ga,gb", [
        ([5, 7], [9], [17, 21, 25]),
        ([5, 7], [0, 3], [0, 1, 2, 3]),
        ([5, 11], [20, 21, 22], [0, 23, 24]),
    ])
    def test_either_order_matches_fill(self, semi, ga, gb, cap, monkeypatch):
        # the shorter tuple gives the reps; some degree counts min(mu)
        # classes, so caps 1 and 2 sum its byte digits in passes
        monkeypatch.setattr(torsion, "_DIGIT_PASS", cap)
        s = make_semigroup(semi)
        a, b = make_ideal(s, ga), make_ideal(s, gb)
        engine = TauEngine(s)
        counts = engine.component_counts(a.min_gens, b.min_gens)
        assert counts == engine.component_counts(b.min_gens, a.min_gens)
        assert counts == fiber_class_count(a, b, *scan_window(a, b))
        assert max(counts) == min(a.mu, b.mu)


class TestTauAt:
    def test_examples(self, example_511):
        a, b = example_511
        tau_by_z = torsion_profile(a, b).tau_by_z
        assert tau_by_z.get(45, 0) == 2
        assert tau_by_z.get(55, 0) == 0
        assert tau_by_z.get(44, 0) == 2


class TestTorsionProfile:
    def test_square_of_45(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        p = torsion_profile(a, a)
        assert p.tau_by_z == {9: 1, 16: 1}
        assert p.total == 2 and p.support_size == 2

    def test_torsion_free_pair(self):
        s = make_semigroup([4, 5, 6])
        p = torsion_profile(make_ideal(s, [4, 5]), make_ideal(s, [4, 6]))
        assert p.total == 0 and p.tau_by_z == {}

    def test_principal_always_zero(self):
        s = make_semigroup([5, 11])
        c = make_ideal(s, [7])
        for gens in [(0, 23, 24), (20, 21, 22), (3,)]:
            assert torsion_profile(c, make_ideal(s, gens)).total == 0

    def test_window_contains_support(self, example_511):
        a, b = example_511
        p = torsion_profile(a, b)
        lo, hi = p.window
        assert all(lo <= z <= hi for z in p.tau_by_z)
        # beyond the window the graph is complete bipartite
        g = fiber_graph(a, b, hi + 1)
        assert len(g.edges) == a.mu * b.mu
        for z in (lo - 1, hi + 1):
            assert fiber_graph(a, b, z).component_count <= 1, z
            assert fiber_class_count(a, b, z, z) in ([0], [1]), z

    def test_equality_compares_degrees(self):
        p = TorsionProfile((0, 5), {1: 1})
        q = TorsionProfile((0, 5), {2: 1})
        assert p != q
        assert p == TorsionProfile((0, 5), {1: 1})
        assert hash(p) == hash(q)

    def test_totals_read_off_degrees(self):
        # a profile stores its degrees only, so no total can disagree
        p = TorsionProfile((0, 5), {3: 1})
        assert (p.total, p.support_size) == (1, 1)
        assert TorsionProfile._fields == ("window", "tau_by_z")
        q = TorsionProfile((0, 9), {2: 3, 7: 1})
        assert (q.total, q.support_size) == (4, 2)

    def test_independent_of_engine(self, monkeypatch):
        # the reference route must not lean on the engine's counter
        def broken(*args):
            raise RuntimeError("engine code reached")

        monkeypatch.setattr(torsion, "_component_reps", broken)
        monkeypatch.setattr(TauEngine, "tau_support_batch", broken)
        with pytest.raises(RuntimeError):
            TauEngine(make_semigroup([5, 11])).profile((0, 1), (0, 2))
        s = make_semigroup([3, 7])
        for ga, gb in [((0, 1, 2), (0, 1, 2)), ((-1, 0, 1), (0, 1)),
                       ((0, 4, 8), (0, 1, 5))]:
            a, b = make_ideal(s, ga), make_ideal(s, gb)
            lo, hi = scan_window(a, b)
            expected = {}
            for z in range(lo, hi + 1):
                count = naive_fiber_classes([3, 7], list(a.min_gens),
                                            list(b.min_gens), z)
                if count > 1:
                    expected[z] = count - 1
            p = torsion_profile(a, b)
            assert p.tau_by_z == expected, (ga, gb)
            assert (p.total, p.support_size) == (sum(expected.values()),
                                                 len(expected))

    def test_empty_window_for_principal_pair(self):
        s = make_semigroup([1])
        p = torsion_profile(make_ideal(s, [3]), make_ideal(s, [5]))
        assert p.total == 0


class TestMaximalIdeal:
    def test_tau_of_m_is_mu_over_plane_curves(self):
        # m kills T(m (x) B) = Tor_1(k, B), so tau(m, B) is the number of
        # minimal relations of B; over <a,b> a non-principal B has mu_B
        # of them (matrix factorizations), each in its own degree.
        # Window F + 1 lists every ideal up to shift.
        checked = 0
        for a, b in coprime_pairs(60):
            s = make_semigroup((a, b))
            engine = TauEngine(s)
            m = (0, b - a)  # (a, b) shifted down by a
            ideal_m = make_ideal(s, m)
            for gb in canonical_ideal_gens(s, s.frobenius + 1, 3)[1:]:
                mu = len(gb)
                for profile in (engine.profile(m, gb),
                                torsion_profile(ideal_m, make_ideal(s, gb))):
                    assert (profile.total, profile.support_size) == (mu, mu), (
                        (a, b), gb)
                checked += 1
        assert checked == 1475

    def test_tau_of_m_is_betti_1(self):
        # off <a,b> there is no mu-only form, so compare with beta_1(B)
        # from its GF(p) definition, over random S with 2 to 5 generators
        # below 25; the brute force gets B's generators as drawn
        rng = random.Random(23)
        pairs = past_mu = 0
        for _ in range(80):
            semi = rng.sample(range(2, 25), rng.randint(2, 5))
            while math.gcd(*semi) != 1:
                semi = rng.sample(range(2, 25), rng.randint(2, 5))
            s = make_semigroup(semi)
            engine = TauEngine(s)
            for _ in range(16):
                gens = rng.sample(range(30), rng.randint(2, 4))
                gb = make_ideal(s, gens).min_gens
                beta = naive_betti_1(semi, gens)
                assert engine.profile(s.generators, gb).total == beta, (
                    semi, gens)
                pairs += 1
                past_mu += beta > len(gb)
        assert pairs == 1280 and past_mu > 100, past_mu


class TestFiberClassCount:
    def test_five_node_fiber(self, example_511):
        a, b = example_511
        # fiber of 44: nodes 20, 21, 22, 33, 44 with 22 ~ 33 ~ 44
        assert fiber_class_count(a, b, 44, 44) == [3]

    def test_square_fiber(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        assert fiber_class_count(a, a, 16, 16) == [2]

    def test_empty(self, example_511):
        a, b = example_511
        assert fiber_class_count(a, b, 19, 19) == [0]

    def test_matches_graph_on_examples(self, example_511):
        a, b = example_511
        lo, hi = scan_window(a, b)
        for z in range(lo - 2, hi + 3):
            assert (fiber_class_count(a, b, z, z)
                    == [fiber_graph(a, b, z).component_count]), z

    def test_matches_graph_randomized(self):
        rng = random.Random(20240801)
        for _ in range(25):
            a_gen = rng.choice([2, 3, 4, 5])
            b_gen = rng.choice([g for g in range(a_gen + 1, 14)
                                if math.gcd(a_gen, g) == 1])
            s = make_semigroup([a_gen, b_gen])
            window = a_gen + b_gen
            ga = sorted(rng.sample(range(window), rng.randint(1, 3)))
            gb = sorted(rng.sample(range(window), rng.randint(1, 3)))
            ia, ib = make_ideal(s, ga), make_ideal(s, gb)
            lo, hi = scan_window(ia, ib)
            for z in range(lo, hi + 1):
                assert (fiber_class_count(ia, ib, z, z)
                        == [fiber_graph(ia, ib, z).component_count]), (ga, gb, z)

    def test_far_degrees_stay_small(self, example_511):
        a, b = example_511
        tracemalloc.start()
        try:
            low = fiber_class_count(a, b, -10**7, -10**7)
            high = fiber_class_count(a, b, 10**7, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (low, high) == ([0], [1])
        assert peak < 64 * 1024, peak

    @pytest.mark.parametrize("semi,ga,gb", [
        ([1], [3], [5]),
        ([3, 4, 5], [0, 1], [0, 2]),  # every minimal generator exceeds F
        ([3, 4, 5], [0, 1, 2], [-1, 0]),
        ([6, 7, 8, 9], [0, 1, 3], [0, 2, 5]),
        ([6, 7, 8, 9], [-2, 3], [0, 10, 11]),
    ])
    def test_window_matches_naive(self, semi, ga, gb):
        # from below the empty fibers to past the one-class bound
        s = make_semigroup(semi)
        a, b = make_ideal(s, ga), make_ideal(s, gb)
        lo = a.min_gens[0] + b.min_gens[0] - 3
        hi = a.set.threshold + b.set.threshold + 2 * s.frobenius + 5
        assert fiber_class_count(a, b, lo, hi) == [
            naive_fiber_classes(semi, list(a.min_gens), list(b.min_gens), z)
            for z in range(lo, hi + 1)]

    def test_window_length(self, example_511):
        a, b = example_511
        bound = (a.set.threshold + b.set.threshold
                 + 2 * a.semigroup.frobenius + 3)
        for lo, hi in [(0, 19), (19, 20), (40, 60), (bound - 2, bound + 2),
                       (-5, bound + 5), (30, 30)]:
            counts = fiber_class_count(a, b, lo, hi)
            assert len(counts) == hi - lo + 1, (lo, hi)
            assert counts == [c for z in range(lo, hi + 1)
                              for c in fiber_class_count(a, b, z, z)], (lo, hi)
        for lo, hi in [(5, 4), (50, 10), (bound + 3, bound)]:
            assert fiber_class_count(a, b, lo, hi) == [], (lo, hi)

    @given(lane_windows())
    @settings(max_examples=60, deadline=None)
    def test_lanes_match_naive(self, window):
        # one fill over every degree, each in its own lane
        assert fiber_class_count(*window) == naive_window(*window)

    @given(lane_windows(), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_naive(self, window, lanes):
        # ints of `lanes` lanes: the doubling overshoots 3 and 5, and the
        # last block of a window often fills lanes past its top
        a, b, lo, hi = window
        top = min(hi, a.set.threshold + b.set.threshold
                  + 2 * a.semigroup.frobenius + 2)
        size = max(4, (top - a.set.lo - b.set.lo
                       + max(a.semigroup.generators) + 8) // 8)
        with patch.object(torsion, "_LANE_BITS", lanes * 8 * size):
            assert fiber_class_count(*window) == naive_window(*window)

    @pytest.mark.parametrize("semi,ga,gb", [
        ([2, 29], [4, 11], [53, 54]),
        ([4, 14, 27], [-5, 0], [-4, 13]),
        ([5, 29, 37, 38], [0, 13], [20, 32]),
    ])
    def test_lane_pad_holds_largest_generator(self, semi, ga, gb):
        # a lane sized by the window alone lets a step by a large
        # generator cross into the next lane; over its scan window each
        # of these pairs catches it
        s = make_semigroup(semi)
        a, b = make_ideal(s, ga), make_ideal(s, gb)
        lo, hi = scan_window(a, b)
        cut = a.set.threshold + b.set.threshold + 2 * s.frobenius + 3
        for window in [(lo, hi), (lo - 1, cut + 1)]:
            assert (fiber_class_count(a, b, *window)
                    == naive_window(a, b, *window)), window

    def test_wide_window_matches_engine(self):
        # 852 lanes of over 850 bits each need many ints of `_LANE_BITS`
        s = make_semigroup([29, 31])
        a, b = make_ideal(s, [0, 5]), make_ideal(s, [0, 7])
        lo, hi = scan_window(a, b)
        assert hi - lo + 1 == 852
        assert fiber_class_count(a, b, lo, hi) == TauEngine(
            s).component_counts(a.min_gens, b.min_gens)

    @pytest.mark.parametrize("semi,ga,gb", [
        ([5, 11], [20, 21, 22], [0, 23, 24]),
        ([3, 7], [-1, 0, 1], [0, 1, 2]),
        ([4, 5, 6], [4, 5], [4, 5]),
        ([2, 3], [2, 3], [0, 1]),  # two classes at bound - 3
        ([1], [3], [5]),  # empty fibers up to bound - 2
    ])
    def test_one_class_bound(self, semi, ga, gb):
        # at A.threshold + B.threshold + 2F + 3 the count is 1 without a
        # fill; the degrees just below it still run the fill
        s = make_semigroup(semi)
        a, b = make_ideal(s, ga), make_ideal(s, gb)
        bound = a.set.threshold + b.set.threshold + 2 * s.frobenius + 3
        for z in range(bound - 3, bound + 1):
            assert fiber_class_count(a, b, z, z) == [naive_fiber_classes(
                list(s.generators), list(a.min_gens), list(b.min_gens), z)], z
        assert fiber_class_count(a, b, bound, bound) == [1]


class TestSplits:
    def test_torsion_free_pair_passes(self):
        s = make_semigroup([4, 5, 6])
        ok, witness = splits_torsion_free(make_ideal(s, [4, 5]),
                                          make_ideal(s, [4, 6]))
        assert ok and witness is None

    def test_torsion_pair_fails_with_witness(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        ok, witness = splits_torsion_free(a, a)
        assert not ok
        assert witness == ((4,), (5,))
        # the witness split genuinely breaks the identity at element 9
        p, q = (make_ideal(s, w) for w in witness)
        lhs = ideal_sum(ideal_intersect(p, q), a)
        rhs = ideal_intersect(ideal_sum(p, a), ideal_sum(q, a))
        assert 9 in rhs.set and 9 not in lhs.set

    def test_principal_vacuous(self):
        s = make_semigroup([4, 5, 6])
        ok, witness = splits_torsion_free(make_ideal(s, [3]),
                                          make_ideal(s, [4, 5]))
        assert ok and witness is None

    def test_cap(self):
        # no difference of 0..20 lies in <21..41>: 21 minimal generators
        a = make_ideal(make_semigroup(range(21, 42)), range(21))
        with pytest.raises(ValueError, match="21 generators"):
            splits_torsion_free(a, a)

    def test_iff_torsion_free_small_exhaustive(self):
        # multiplicity-3 semigroups where torsion-free pairs exist
        for semi in ([4, 5, 6], [3, 4, 5], [3, 5, 7], [4, 5, 7]):
            s = make_semigroup(semi)
            window = s.frobenius + 2
            gens_list = [(0, i) for i in range(1, window)
                         if i not in s] + [(0,)]
            for ga in gens_list:
                for gb in gens_list:
                    ia, ib = make_ideal(s, ga), make_ideal(s, gb)
                    ok, _ = splits_torsion_free(ia, ib)
                    assert ok == (torsion_profile(ia, ib).total == 0), (semi, ga, gb)


class TestBoundWithCorrection:
    def test_single_degree_correction(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        assert torsion_bound_with_correction(a, a, CofiniteSet(8)) == 2 - 1 == 1

    def test_zero_correction_gives_tau(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        assert torsion_bound_with_correction(a, a, ideal_sum(a, a).set) == 2
        b = make_ideal(s, [4, 6])
        assert torsion_bound_with_correction(a, b, ideal_sum(a, b).set) == 0

    def test_rejects_non_containing_set(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        with pytest.raises(ValueError):
            torsion_bound_with_correction(a, a, CofiniteSet(9))


class TestShiftAndSymmetry:
    def test_shift_invariance(self, example_511):
        a, b = example_511
        base = torsion_profile(a, b)
        for c, d in [(1, 2), (-4, 7), (10, -10)]:
            moved = torsion_profile(ideal_shift(a, c), ideal_shift(b, d))
            assert moved.total == base.total
            assert moved.tau_by_z == {z + c + d: t
                                      for z, t in base.tau_by_z.items()}

    def test_symmetry(self, example_511):
        a, b = example_511
        assert torsion_profile(a, b).total == torsion_profile(b, a).total
        s = make_semigroup([4, 5, 6])
        x, y = make_ideal(s, [4, 5]), make_ideal(s, [0, 1, 2])
        assert torsion_profile(x, y).total == torsion_profile(y, x).total


class TestDot:
    def test_dot_output(self, example_511):
        a, b = example_511
        dot = graph_to_dot(fiber_graph(a, b, 45))
        assert dot.startswith("graph fiber_45 {")
        assert "v1 -- w1;" in dot and "v2 -- w3;" in dot and "v3 -- w2;" in dot
        assert dot.count("--") == 3
