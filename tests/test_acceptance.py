"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run pytest with -s to watch
them stream). Criteria 1-6 and 9 pin exact values; criterion 7 sweeps
the exhaustive range ab <= 80 with generator window a+b and mu <= 4;
criterion 8 covers every coprime pair with ab <= 200.
"""

import random
import time

import pytest

from semitorsion import (CofiniteSet, TauEngine, boundary_cycle,
                         canonical_ideal_gens, coprime_pairs, dual_formula,
                         dual_symmetric, fiber_class_count, fiber_graph,
                         hw_check_semigroup, ideal_dual, ideal_shift,
                         ideal_sum, make_ideal, make_semigroup,
                         ordered_generators, scan_window,
                         splits_torsion_free, torsion_bound_with_correction,
                         torsion_generator_pairs, torsion_length_2gen,
                         torsion_profile)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def best_of(fn, repeats: int = 10) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_fiber_graphs_of_example():
    s = make_semigroup([5, 11])
    a = make_ideal(s, [20, 21, 22])
    b = make_ideal(s, [0, 23, 24])
    g45 = fiber_graph(a, b, 45)
    g55 = fiber_graph(a, b, 55)
    ok = (g45.edges == {(1, 1), (2, 3), (3, 2)}
          and g45.component_count == 3
          and g55.edges == {(1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2)}
          and g55.component_count == 1)
    elapsed = best_of(lambda: fiber_graph(a, b, 45))
    ok = ok and elapsed < 1e-3
    report("1", ok, f"edge sets exact, {elapsed * 1e6:.0f}us per graph")


def test_criterion_2_profile_and_correction():
    s = make_semigroup([4, 5, 6])
    a = make_ideal(s, [4, 5])
    profile = torsion_profile(a, a)
    corrected = torsion_bound_with_correction(a, a, CofiniteSet(8))
    ok = (profile.tau_by_z == {9: 1, 16: 1} and profile.total == 2
          and corrected == 1)
    elapsed = best_of(lambda: torsion_profile(a, a))
    ok = ok and elapsed < 1e-3
    report("2", ok, f"profile {{9:1,16:1}}, correction 2-1=1, "
                    f"{elapsed * 1e6:.0f}us per profile")


def test_criterion_3_torsion_free_pair_and_split():
    s = make_semigroup([4, 5, 6])
    a = make_ideal(s, [4, 5])
    b = make_ideal(s, [4, 6])
    tau = torsion_profile(a, b).total
    split_ok, witness = splits_torsion_free(a, b)
    report("3", tau == 0 and split_ok and witness is None,
           "tau=0 and every generator split passes")


def test_criterion_4_boundary_cycle():
    a = make_ideal(make_semigroup([5, 7]), [17, 21, 25])
    bc = boundary_cycle(a)
    got = [(p.x, p.y) for p in bc.cycle]
    expected = [(0, 5), (0, 4), (0, 3), (1, 3), (2, 3), (2, 2), (2, 1),
                (3, 1), (4, 1), (5, 1), (5, 0), (6, 0)]
    k = got.index((0, 5)) if (0, 5) in got else -1
    cycle_ok = k >= 0 and got[k:] + got[:k] == expected
    max_ok = {(p.x, p.y) for p in bc.maximal_classes} == {(0, 5), (2, 3), (5, 1)}
    og = ordered_generators(a)
    og_ok = [(p.x, p.y) for p in og] == [(0, 3), (2, 1), (5, 0)]
    report("4", cycle_ok and max_ok and og_ok,
           "12-class cycle, maximal corners, ordered generators")


def test_criterion_5_degree_44_discrepancy():
    s = make_semigroup([5, 11])
    a = make_ideal(s, [20, 21, 22])
    b = make_ideal(s, [0, 23, 24])
    g = fiber_graph(a, b, 44)
    classes = fiber_class_count(a, b, 44, 44)
    ok = (g.component_count == 3 and classes == [3]
          and set(g.left_vertices) == {1, 2, 3}
          and set(g.right_vertices) == {1, 2, 3})
    report("5", ok, "both routes give 3 classes over z=44, all six vertices")


def test_criterion_6_dual_three_routes():
    a = make_ideal(make_semigroup([5, 7]), [17, 21, 25])
    routes = (dual_formula(a).min_gens, ideal_dual(a).min_gens,
              dual_symmetric(a).min_gens)
    report("6", all(r == (0, 3, 4) for r in routes),
           "formula = scan = reflection = (0,3,4)")


# --- criterion 7: exhaustive property suite, ab <= 80, window a+b, mu <= 4 ---

AB_MAX = 80
MU_MAX = 4


@pytest.fixture(scope="module")
def exhaustive_ideals():
    table = {}
    for a, b in coprime_pairs(AB_MAX):
        s = make_semigroup((a, b))
        table[(a, b)] = (s, canonical_ideal_gens(s, a + b, MU_MAX))
    return table


def test_criterion_7_1_and_7_6_tau_bounds_symmetry(exhaustive_ideals):
    bound_violations = 0
    symmetry_violations = 0
    pairs_checked = 0
    for (a, b), (s, gens) in exhaustive_ideals.items():
        engine = TauEngine(s)
        nonprin = [g for g in gens if len(g) > 1]
        by_mu: dict[int, list] = {}
        for g in nonprin:
            by_mu.setdefault(len(g), []).append(g)
        cache = {}
        for ga in nonprin:
            for mb, group in sorted(by_mu.items()):
                taus, supports = engine.tau_support_batch(ga, group)
                for gb, t, c in zip(group, taus, supports):
                    t, c = int(t), int(c)
                    mm = len(ga) * mb
                    pairs_checked += 1
                    if t + c < mm or 2 * t < mm:
                        bound_violations += 1
                    cache[(ga, gb)] = (t, c)
        for (ga, gb), tc in cache.items():
            if cache[(gb, ga)] != tc:
                symmetry_violations += 1
    report("7.1", bound_violations == 0,
           f"tau+support >= mu*mu and 2*tau >= mu*mu on {pairs_checked} "
           f"ordered non-principal pairs, ab <= {AB_MAX}")
    report("7.6a", symmetry_violations == 0,
           "tau(A,B) = tau(B,A) and equal supports across the same sweep")


def test_criterion_7_2_dual_consistency(exhaustive_ideals):
    mismatches = 0
    checked = 0
    for s, gens in exhaustive_ideals.values():
        for g in gens:
            ideal = make_ideal(s, g)
            via_formula = dual_formula(ideal)
            checked += 1
            if not (via_formula == ideal_dual(ideal) == dual_symmetric(ideal)
                    and dual_formula(via_formula) == ideal):
                mismatches += 1
    report("7.2", mismatches == 0,
           f"three dual routes and biduality on {checked} ideals")


def test_criterion_7_3_torsion_generator_pairs(exhaustive_ideals):
    violations = 0
    checked = 0
    for s, gens in exhaustive_ideals.values():
        for g in gens:
            ideal = make_ideal(s, g)
            checked += 1
            if torsion_generator_pairs(ideal) < 2 * ideal.mu - 2:
                violations += 1
    report("7.3", violations == 0,
           f"torsion generator count >= 2*mu-2 on {checked} ideals")


def test_criterion_7_4_oracle_agreement(exhaustive_ideals):
    disagreements = 0
    fibers = 0
    # exhaustive over the small end of the range
    for (a, b), (s, gens) in exhaustive_ideals.items():
        if a * b > 24:
            continue
        ideals = [make_ideal(s, g) for g in gens]
        engine = TauEngine(s)
        for ia in ideals:
            for ib in ideals:
                lo, hi = scan_window(ia, ib)
                counts = engine.profile(ia, ib).counts
                if len(counts) != hi - lo + 1:
                    disagreements += 1
                for z in range(lo, hi + 1):
                    fibers += 1
                    classes = fiber_class_count(ia, ib, z, z)
                    if (classes != [fiber_graph(ia, ib, z).component_count]
                            or classes != [counts[z - lo]]):
                        disagreements += 1
    # seeded samples across the full range
    rng = random.Random(2024)
    keys = sorted(exhaustive_ideals)
    for _ in range(150):
        s, gens = exhaustive_ideals[rng.choice(keys)]
        ia = make_ideal(s, rng.choice(gens))
        ib = make_ideal(s, rng.choice(gens))
        lo, hi = scan_window(ia, ib)
        counts = TauEngine(s).profile(ia, ib).counts
        if len(counts) != hi - lo + 1:
            disagreements += 1
        for z in range(lo, hi + 1):
            fibers += 1
            classes = fiber_class_count(ia, ib, z, z)
            if (classes != [fiber_graph(ia, ib, z).component_count]
                    or classes != [counts[z - lo]]):
                disagreements += 1
    report("7.4", disagreements == 0,
           f"graph components (per degree and per window) = fiber classes "
           f"on {fibers} fibers "
           f"(exhaustive ab <= 24 plus 150 seeded tuples to ab <= 80)")


def test_criterion_7_5_split_criterion(exhaustive_ideals):
    disagreements = 0
    checked = 0
    for (a, b), (s, gens) in exhaustive_ideals.items():
        if a * b > 24:
            continue
        ideals = [make_ideal(s, g) for g in gens if len(g) <= 3]
        for ia in ideals:
            for ib in ideals:
                ok, _ = splits_torsion_free(ia, ib)
                checked += 1
                if ok != (torsion_profile(ia, ib).total == 0):
                    disagreements += 1
    # semigroups with three or more generators admit torsion-free
    # non-principal pairs, exercising the other direction
    for semi in ([3, 4, 5], [4, 5, 6], [3, 5, 7], [4, 5, 7], [4, 6, 7],
                 [5, 6, 7], [5, 6, 9], [6, 7, 8, 9]):
        s = make_semigroup(semi)
        gens = canonical_ideal_gens(s, s.frobenius + 2, 3)
        ideals = [make_ideal(s, g) for g in gens]
        for ia in ideals:
            for ib in ideals:
                ok, _ = splits_torsion_free(ia, ib)
                checked += 1
                if ok != (torsion_profile(ia, ib).total == 0):
                    disagreements += 1
    report("7.5", disagreements == 0,
           f"split criterion iff tau=0 on {checked} pairs "
           f"(hypersurface ab <= 24 plus wider-multiplicity semigroups)")


def test_criterion_7_6b_shift_invariance(exhaustive_ideals):
    violations = 0
    checked = 0
    for (a, b), (s, gens) in exhaustive_ideals.items():
        nonprin = [g for g in gens if len(g) > 1]
        samples = nonprin[:2] + nonprin[-1:]
        for ga in samples:
            ia = make_ideal(s, ga)
            ib = make_ideal(s, samples[-1])
            base = torsion_profile(ia, ib)
            for c, d in ((1, 2), (-4, 3)):
                moved = torsion_profile(ideal_shift(ia, c), ideal_shift(ib, d))
                checked += 1
                if (moved.total != base.total
                        or moved.tau_by_z != {z + c + d: t
                                              for z, t in base.tau_by_z.items()}):
                    violations += 1
    report("7.6b", violations == 0,
           f"profile shift-covariance on {checked} shifted pairs")


def test_criterion_8_hw_and_route_agreement():
    failures = []
    route_checks = 0
    for a, b in coprime_pairs(200):
        s = make_semigroup((a, b))
        for n in s.gaps():
            count = torsion_length_2gen(s, n)  # raises on route mismatch
            route_checks += 1
            if count < 1:
                failures.append((a, b, n))
        if not hw_check_semigroup(s).all_positive:
            failures.append((a, b, "hw"))
    pinned = torsion_length_2gen(make_semigroup([5, 7]), 1)
    report("8", not failures and pinned == 12,
           f"all gaps positive over {len(coprime_pairs(200))} semigroups, "
           f"two routes agree on {route_checks} (S, n) inputs, "
           f"count(<5,7>, 1) = {pinned}")


def test_criterion_9_zero_correction_bridge():
    # with the correction set equal to the sum set (the monomial case)
    # the corrected bound is exactly the torsion total
    checked = 0
    ok = True
    for semi, ga, gb in [([4, 5, 6], [4, 5], [4, 5]),
                         ([4, 5, 6], [4, 5], [4, 6]),
                         ([5, 11], [20, 21, 22], [0, 23, 24]),
                         ([5, 7], [17, 21, 25], [0, 3, 4]),
                         ([2, 3], [0, 1], [0, 1])]:
        s = make_semigroup(semi)
        a, b = make_ideal(s, ga), make_ideal(s, gb)
        checked += 1
        if torsion_bound_with_correction(a, b, ideal_sum(a, b).set) \
                != torsion_profile(a, b).total:
            ok = False
    report("9", ok,
           f"zero-correction bound equals the torsion total on {checked} "
           f"monomial-case pairs; ring lengths are out of scope by design")
