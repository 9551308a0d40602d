"""Randomized cross-module invariants, including ideals with negative
generators that the canonical search enumeration never produces."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_fiber_classes
from semitorsion import (TauEngine, boundary_cycle, check_half_mu_bound,
                         dual_formula, dual_symmetric, fiber_class_count,
                         fiber_graph, ideal_dual, ideal_shift,
                         make_hypersurface, make_ideal,
                         make_semigroup, ordered_generators, scan_window,
                         splits_torsion_free, torsion_generator_pairs,
                         torsion_profile)


@st.composite
def hypersurface_pairs(draw):
    a = draw(st.integers(2, 6))
    b = draw(st.integers(a + 1, 13).filter(lambda x: math.gcd(a, x) == 1))
    return make_hypersurface(a, b)


@st.composite
def hypersurface_ideal(draw):
    h = draw(hypersurface_pairs())
    size = draw(st.integers(1, 4))
    gens = draw(st.lists(st.integers(-10, 20), min_size=size, max_size=size))
    return h, make_ideal(h.base, gens)


@st.composite
def general_ideal_pair(draw, max_gens=3):
    gens = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    s = make_semigroup(gens + [max(gens) + 1])
    ga = draw(st.lists(st.integers(-6, 12), min_size=1, max_size=max_gens))
    gb = draw(st.lists(st.integers(-6, 12), min_size=1, max_size=max_gens))
    return make_ideal(s, ga), make_ideal(s, gb)


@given(hypersurface_ideal())
@settings(max_examples=120, deadline=None)
def test_dual_routes_and_biduality(hi):
    h, a = hi
    dual = dual_formula(h, a)
    assert dual == ideal_dual(a) == dual_symmetric(h, a)
    assert dual_formula(h, dual) == a


@given(hypersurface_ideal())
@settings(max_examples=100, deadline=None)
def test_ordered_generators_and_boundary(hi):
    h, a = hi
    og = ordered_generators(h, a)
    assert sorted(og.psi_values) == list(a.min_gens)
    bc = boundary_cycle(h, a)
    assert len(bc.cycle) == h.a + h.b


@given(hypersurface_ideal())
@settings(max_examples=80, deadline=None)
def test_torsion_generator_pair_bound(hi):
    h, a = hi
    assert torsion_generator_pairs(h, a) >= 2 * a.mu - 2


@given(hypersurface_ideal(), st.lists(st.integers(-10, 20), min_size=1,
                                      max_size=3))
@settings(max_examples=60, deadline=None)
def test_half_mu_bounds(hi, gens_b):
    h, a = hi
    b = make_ideal(h.base, gens_b)
    if a.is_principal or b.is_principal:
        return
    report = check_half_mu_bound(h, a, b)
    assert report.inequality_1 and report.inequality_2


@given(general_ideal_pair(), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=60, deadline=None)
def test_shift_invariance_and_symmetry(pair, c, d):
    a, b = pair
    base = torsion_profile(a, b)
    moved = torsion_profile(ideal_shift(a, c), ideal_shift(b, d))
    assert moved.total == base.total
    assert moved.support_size == base.support_size
    assert torsion_profile(b, a).total == base.total


@given(general_ideal_pair())
@settings(max_examples=60, deadline=None)
def test_graph_matches_fiber_closure(pair):
    a, b = pair
    lo, hi = scan_window(a, b)
    for z in range(lo, hi + 1):
        assert (fiber_class_count(a, b, z, z)
                == [fiber_graph(a, b, z).component_count]), z


@given(general_ideal_pair())
@settings(max_examples=80, deadline=None)
def test_fiber_vertices_match_definition(pair):
    a, b = pair
    lo, hi = scan_window(a, b)
    for z in range(lo - 1, hi + 2):
        g = fiber_graph(a, b, z)
        assert g.left_vertices == tuple(
            i for i, x in enumerate(a.min_gens, 1) if (z - x) in b.set), z
        assert g.right_vertices == tuple(
            j for j, y in enumerate(b.min_gens, 1) if (z - y) in a.set), z
        assert g.edges == {
            (i, j) for i, x in enumerate(a.min_gens, 1)
            for j, y in enumerate(b.min_gens, 1) if (z - x - y) in a.semigroup}


@given(general_ideal_pair(max_gens=5))
# over z = 5, left vertices 1 and 2 meet only through vertex 3
@example((make_ideal(make_semigroup([3, 4]), [-1, 0, 1]),
          make_ideal(make_semigroup([3, 4]), [0, 1])))
@settings(max_examples=100, deadline=None)
def test_fiber_routes_match_brute_force(pair):
    a, b = pair
    semi_gens = list(a.semigroup.generators)
    lo, hi = scan_window(a, b)
    engine = TauEngine(a.semigroup)
    profile = engine.profile(a.min_gens, b.min_gens)
    # one counter call over the window: vertices that meet only through
    # a third close across bits of the same ints
    counts = engine.component_counts(a.min_gens, b.min_gens)
    assert len(counts) == hi - lo + 1
    for z in range(lo - 1, hi + 2):
        expected = naive_fiber_classes(semi_gens, list(a.min_gens),
                                       list(b.min_gens), z)
        assert fiber_class_count(a, b, z, z) == [expected], z
        assert fiber_graph(a, b, z).component_count == expected, z
        assert profile.tau_by_z.get(z, 0) == max(0, expected - 1), z
        if lo <= z <= hi:
            assert counts[z - lo] == expected, z


@given(general_ideal_pair())
@settings(max_examples=40, deadline=None)
def test_split_criterion_iff_torsion_free(pair):
    a, b = pair
    ok, witness = splits_torsion_free(a, b)
    assert ok == (torsion_profile(a, b).total == 0)
    if witness is not None:
        left, right = witness
        assert set(left) | set(right) == set(a.min_gens)
        assert not set(left) & set(right)


@given(general_ideal_pair())
@settings(max_examples=60, deadline=None)
def test_tau_nonnegative_and_window(pair):
    a, b = pair
    lo, hi = scan_window(a, b)
    profile = torsion_profile(a, b)
    assert profile.total == sum(profile.tau_by_z.values())
    assert profile.support_size == len(profile.tau_by_z)
    assert all(lo <= z <= hi and t > 0 for z, t in profile.tau_by_z.items())
    for z in (lo - 1, hi + 1):
        assert fiber_graph(a, b, z).component_count <= 1, z
        assert fiber_class_count(a, b, z, z) in ([0], [1]), z
