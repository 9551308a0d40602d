import math

import pytest

import semitorsion.hypersurface as hypersurface
from semitorsion import (LatticeClass, boundary_cycle, dual_formula,
                         dual_symmetric, ideal_dual, make_ideal,
                         make_semigroup, ordered_generators,
                         torsion_generator_pairs, torsion_profile)

from conftest import naive_dual_members


def rotate(pairs, a, b, r):
    """Restart the generator cycle at position r, re-windowing the wrap."""
    moved = list(pairs[r:]) + [LatticeClass(p.x + b, p.y - a)
                               for p in pairs[:r]]
    return moved


def normalize(s, g):
    """The point the coordinate reader gives the value g over S."""
    _, _, [(x, y)] = hypersurface._coordinates(s, [g])
    return LatticeClass(x, y)


def formula_from_pairs(s, pairs):
    a, b = s.generators
    xs = [p.x for p in pairs]
    ys = [p.y for p in pairs]
    n = len(pairs)
    gens = [-a * xs[0] - b * ys[-1]]
    gens.extend(a * b - a * xs[i + 1] - b * ys[i] for i in range(n - 1))
    return make_ideal(s, gens)


@pytest.fixture
def s57():
    return make_semigroup([5, 7])


@pytest.fixture
def triple(s57):
    return make_ideal(s57, [17, 21, 25])


class TestConstruction:
    def test_validation(self, s57):
        # <a, b> is read off the semigroup: its order is the sorted
        # generators, and only a two-generated S has a plane
        with pytest.raises(ValueError, match="gcd"):
            make_semigroup([4, 6])
        for gens in ([1, 5], [3, 4, 5]):
            with pytest.raises(ValueError, match="two-generated"):
                ordered_generators(make_ideal(make_semigroup(gens), [0]))
        assert make_semigroup([7, 5]) is s57 and s57.frobenius == 23

    def test_rejects_foreign_ideal(self):
        # each function takes one ideal and reads S off it, so no pair can
        # mismatch; an ideal over a semigroup with no plane is refused
        s345 = make_semigroup([3, 4, 5])
        off_plane = make_ideal(s345, [0, 1])
        for call in (lambda: ordered_generators(off_plane),
                     lambda: boundary_cycle(off_plane),
                     lambda: dual_formula(off_plane),
                     lambda: torsion_generator_pairs(off_plane)):
            with pytest.raises(ValueError, match="two-generated"):
                call()


class TestLatticeNormalize:
    def test_examples(self, s57):
        assert normalize(s57, 17) == LatticeClass(2, 1)
        assert normalize(s57, 21) == LatticeClass(0, 3)
        assert normalize(s57, 25) == LatticeClass(5, 0)
        assert normalize(s57, 0) == LatticeClass(0, 0)

    @pytest.mark.parametrize("g", [-13, 0, 1, 17, 40, 173])
    @pytest.mark.parametrize("lo", [-5, 0, 2, 9])
    def test_window_and_value(self, s57, g, lo):
        # each window [lo, lo + 7) of x holds one point of the class of g,
        # found by search; it lies a multiple of (7, -5) from the point
        # the reader returns in [0, 7), and is that point exactly when the
        # window holds it
        p = normalize(s57, g)
        assert 0 <= p.x < 7
        assert 5 * p.x + 7 * p.y == g
        window = [x for x in range(lo, lo + 7) if (g - 5 * x) % 7 == 0]
        assert len(window) == 1
        k, rest = divmod(window[0] - p.x, 7)
        assert rest == 0 and (k == 0) == (lo <= p.x < lo + 7)


class TestOrderedGenerators:
    def test_example(self, triple):
        og = ordered_generators(triple)
        assert og == (LatticeClass(0, 3), LatticeClass(2, 1),
                      LatticeClass(5, 0))
        assert [5 * p.x + 7 * p.y for p in og] == [21, 17, 25]

    def test_principal(self, s57):
        og = ordered_generators(make_ideal(s57, [9]))
        assert len(og) == 1 and 5 * og[0].x + 7 * og[0].y == 9

    def test_broken_chain_raises(self, triple, monkeypatch):
        # a wrong a^-1 puts the generators at (0,3), (3,0), (4,0), which
        # breaks y1 > y2 > y3; the check must hold under python -O, so it
        # is not an assert, and both readers of the chain go through it
        monkeypatch.setattr(hypersurface, "_plane", lambda s: (5, 7, 1))
        with pytest.raises(RuntimeError, match="not ordered"):
            ordered_generators(triple)
        with pytest.raises(RuntimeError, match="not ordered"):
            dual_formula(triple)

    def test_repeated_x_raises(self, triple, monkeypatch):
        # a^-1 = 0 puts every generator at x = 0; ties in x sort by y
        # ascending, so the falling-y check alone must catch the repeat
        monkeypatch.setattr(hypersurface, "_plane", lambda s: (5, 7, 0))
        with pytest.raises(RuntimeError, match="not ordered"):
            ordered_generators(triple)
        with pytest.raises(RuntimeError, match="not ordered"):
            dual_formula(triple)

    def test_two_gen_small(self):
        og = ordered_generators(make_ideal(make_semigroup([2, 3]), [0, 1]))
        xs = [p.x for p in og]
        assert xs[1] - xs[0] < 3

    def test_chains_hold_exhaustively(self):
        for a in (2, 3, 4, 5):
            for b in range(a + 1, 36 // a + 1):
                if math.gcd(a, b) != 1:
                    continue
                s = make_semigroup([a, b])
                for i in range(1, a + b):
                    for j in range(i + 1, a + b):
                        ideal = make_ideal(s, [0, i, j])
                        og = ordered_generators(ideal)  # checks internally
                        ys = [p.y for p in og]
                        assert ys == sorted(ys, reverse=True)


class TestBoundaryCycle:
    def test_twelve_class_cycle(self, triple):
        bc = boundary_cycle(triple)
        expected = [(0, 5), (0, 4), (0, 3), (1, 3), (2, 3), (2, 2), (2, 1),
                    (3, 1), (4, 1), (5, 1), (5, 0), (6, 0)]
        got = [(p.x, p.y) for p in bc.cycle]
        assert len(got) == 12
        k = got.index((0, 5))
        assert got[k:] + got[:k] == expected

    def test_maximal_classes(self, triple):
        bc = boundary_cycle(triple)
        assert {(p.x, p.y) for p in bc.maximal_classes} == {(0, 5), (2, 3), (5, 1)}

    def test_length_is_a_plus_b(self):
        bc = boundary_cycle(make_ideal(make_semigroup([2, 3]), [0]))
        assert len(bc.cycle) == 5
        assert len(set(bc.keys)) == 5

    def test_duplicate_keys_raise(self, triple, monkeypatch):
        # two classes on one key would make the cycle order arbitrary
        monkeypatch.setattr(hypersurface, "_cyclic_key", lambda a, b, p: 0)
        with pytest.raises(RuntimeError, match="duplicate cyclic keys"):
            boundary_cycle(triple)


class TestDualFormula:
    def test_example(self, triple):
        assert dual_formula(triple).min_gens == (0, 3, 4)

    def test_principal(self, s57):
        assert dual_formula(make_ideal(s57, [9])).min_gens == (-9,)

    def test_agrees_with_scan(self):
        a = make_ideal(make_semigroup([2, 3]), [0, 1])
        assert dual_formula(a) == ideal_dual(a)

    def test_rotation_invariance(self, s57, triple):
        og = ordered_generators(triple)
        base = dual_formula(triple)
        for r in range(len(og)):
            rotated = rotate(og, 5, 7, r)
            xs = [p.x for p in rotated]
            assert all(xs[i] < xs[i + 1] for i in range(len(xs) - 1))
            assert formula_from_pairs(s57, rotated) == base

    def test_against_oracle_scan(self, triple):
        dual = dual_formula(triple)
        lo, hi = dual.set.lo, dual.set.threshold + 5
        expected = naive_dual_members([5, 7], [17, 21, 25], lo, hi)
        assert {z for z in range(lo, hi + 1) if z in dual.set} == expected


class TestDualSymmetric:
    def test_example(self, triple):
        assert dual_symmetric(triple).min_gens == (0, 3, 4)

    def test_semigroup_is_self_dual(self, s57):
        s_as_ideal = make_ideal(s57, [0])
        assert dual_symmetric(s_as_ideal).min_gens == (0,)

    def test_principal(self, s57):
        principal = make_ideal(s57, [9])
        assert dual_symmetric(principal).min_gens == (-9,)

    def test_accepts_any_symmetric_semigroup(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        assert dual_symmetric(a) == ideal_dual(a)

    def test_rejects_non_symmetric(self):
        s = make_semigroup([3, 5, 7])
        with pytest.raises(ValueError):
            dual_symmetric(make_ideal(s, [0]))


class TestHalfMuBound:
    # tau + support >= mu(A) mu(B) and 2 tau >= mu(A) mu(B), on the
    # flood-fill profile
    def test_tight_case(self):
        a = make_ideal(make_semigroup([2, 3]), [0, 1])
        profile = torsion_profile(a, a)
        assert (profile.total, profile.support_size, a.mu * a.mu) == (2, 2, 4)

    def test_triple_pair(self):
        s = make_semigroup([5, 11])
        a = make_ideal(s, [20, 21, 22])
        b = make_ideal(s, [0, 23, 24])
        profile = torsion_profile(a, b)
        assert a.mu * b.mu == 9
        assert profile.total >= 5  # ceil(9 / 2)
        assert profile.tau_by_z[44] == 2 and profile.tau_by_z[45] == 2
        assert profile.total + profile.support_size >= 9

    def test_reports_over_any_semigroup(self):
        # off <a, b> the inequalities are not theorems: over <3,4,5>,
        # A = (0, 1) has tau = support = 1 against mu product 4
        a = make_ideal(make_semigroup([3, 4, 5]), [0, 1])
        profile = torsion_profile(a, a)
        assert (profile.total, profile.support_size, a.mu * a.mu) == (1, 1, 4)


class TestTorsionGeneratorPairs:
    def test_triple(self, triple):
        count = torsion_generator_pairs(triple)
        assert count == 6
        assert count >= 2 * triple.mu - 2

    def test_principal(self, s57):
        assert torsion_generator_pairs(make_ideal(s57, [9])) == 0

    def test_small(self):
        a = make_ideal(make_semigroup([2, 3]), [0, 1])
        assert torsion_generator_pairs(a) == 2 == 2 * a.mu - 2
