import math

import pytest

from semitorsion import (HypersurfaceSemigroup, LatticeClass,
                         SemigroupMismatchError, boundary_cycle,
                         check_half_mu_bound, dual_formula, dual_symmetric,
                         ideal_dual, make_ideal, make_hypersurface,
                         make_semigroup, lattice_normalize,
                         ordered_generators, torsion_generator_pairs,
                         torsion_profile)

from conftest import naive_dual_members


def rotate(pairs, a, b, r):
    """Restart the generator cycle at position r, re-windowing the wrap."""
    moved = list(pairs[r:]) + [LatticeClass(p.x + b, p.y - a)
                               for p in pairs[:r]]
    return moved


def formula_from_pairs(h, pairs):
    xs = [p.x for p in pairs]
    ys = [p.y for p in pairs]
    n = len(pairs)
    gens = [-h.a * xs[0] - h.b * ys[-1]]
    gens.extend(h.a * h.b - h.a * xs[i + 1] - h.b * ys[i] for i in range(n - 1))
    return make_ideal(h.base, gens)


@pytest.fixture
def h57():
    return make_hypersurface(5, 7)


@pytest.fixture
def triple(h57):
    return make_ideal(h57.base, [17, 21, 25])


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_hypersurface(4, 6)
        with pytest.raises(ValueError):
            make_hypersurface(1, 5)
        with pytest.raises(ValueError):
            make_hypersurface(7, 5)
        h = make_hypersurface(5, 7)
        assert h.base.frobenius == 23 and h.base is make_semigroup([5, 7])

    def test_rejects_foreign_ideal(self, h57):
        foreign = make_ideal(make_semigroup([2, 3]), [0, 1])
        native = make_ideal(h57.base, [0, 3])
        for call in (lambda: ordered_generators(h57, foreign),
                     lambda: boundary_cycle(h57, foreign),
                     lambda: dual_formula(h57, foreign),
                     lambda: check_half_mu_bound(h57, native, foreign),
                     lambda: check_half_mu_bound(h57, foreign, native),
                     lambda: dual_symmetric(h57, foreign)):
            with pytest.raises(SemigroupMismatchError):
                call()


class TestLatticeNormalize:
    def test_examples(self, h57):
        assert lattice_normalize(h57, 17) == LatticeClass(2, 1)
        assert lattice_normalize(h57, 21) == LatticeClass(0, 3)
        assert lattice_normalize(h57, 25) == LatticeClass(5, 0)
        assert lattice_normalize(h57, 0) == LatticeClass(0, 0)

    @pytest.mark.parametrize("g", [-13, 0, 1, 17, 40, 173])
    @pytest.mark.parametrize("x_lo", [-5, 0, 2, 9])
    def test_window_and_value(self, h57, g, x_lo):
        p = lattice_normalize(h57, g, x_lo)
        assert x_lo <= p.x < x_lo + 7
        assert 5 * p.x + 7 * p.y == g


class TestOrderedGenerators:
    def test_example(self, h57, triple):
        og = ordered_generators(h57, triple)
        assert [(p.x, p.y) for p in og.pairs] == [(0, 3), (2, 1), (5, 0)]
        assert og.psi_values == (21, 17, 25)
        assert sorted(og.psi_values) == list(triple.min_gens)

    def test_principal(self, h57):
        og = ordered_generators(h57, make_ideal(h57.base, [9]))
        assert len(og.pairs) == 1 and og.psi_values == (9,)

    def test_broken_chain_raises(self, triple):
        # a wrong a^-1 puts the generators at (0,3), (3,0), (4,0), which
        # breaks y1 > y2 > y3; the check must hold under python -O, so it
        # is not an assert, and both readers of the chain go through it
        h = HypersurfaceSemigroup(5, 7, make_semigroup((5, 7)), a_inverse=1)
        with pytest.raises(RuntimeError, match="not ordered"):
            ordered_generators(h, triple)
        with pytest.raises(RuntimeError, match="not ordered"):
            dual_formula(h, triple)

    def test_two_gen_small(self):
        h = make_hypersurface(2, 3)
        og = ordered_generators(h, make_ideal(h.base, [0, 1]))
        xs = [p.x for p in og.pairs]
        assert xs[1] - xs[0] < 3

    def test_chains_hold_exhaustively(self):
        for a in (2, 3, 4, 5):
            for b in range(a + 1, 36 // a + 1):
                if math.gcd(a, b) != 1:
                    continue
                h = make_hypersurface(a, b)
                for i in range(1, a + b):
                    for j in range(i + 1, a + b):
                        ideal = make_ideal(h.base, [0, i, j])
                        og = ordered_generators(h, ideal)  # checks internally
                        ys = [p.y for p in og.pairs]
                        assert ys == sorted(ys, reverse=True)


class TestBoundaryCycle:
    def test_twelve_class_cycle(self, h57, triple):
        bc = boundary_cycle(h57, triple)
        expected = [(0, 5), (0, 4), (0, 3), (1, 3), (2, 3), (2, 2), (2, 1),
                    (3, 1), (4, 1), (5, 1), (5, 0), (6, 0)]
        got = [(p.x, p.y) for p in bc.cycle]
        assert len(got) == 12
        k = got.index((0, 5))
        assert got[k:] + got[:k] == expected

    def test_maximal_classes(self, h57, triple):
        bc = boundary_cycle(h57, triple)
        assert {(p.x, p.y) for p in bc.maximal_classes} == {(0, 5), (2, 3), (5, 1)}

    def test_length_is_a_plus_b(self):
        h = make_hypersurface(2, 3)
        bc = boundary_cycle(h, make_ideal(h.base, [0]))
        assert len(bc.cycle) == 5
        assert len(set(bc.keys)) == 5


class TestDualFormula:
    def test_example(self, h57, triple):
        assert dual_formula(h57, triple).min_gens == (0, 3, 4)

    def test_principal(self, h57):
        assert dual_formula(h57, make_ideal(h57.base, [9])).min_gens == (-9,)

    def test_agrees_with_scan(self):
        h = make_hypersurface(2, 3)
        a = make_ideal(h.base, [0, 1])
        assert dual_formula(h, a) == ideal_dual(a)

    def test_rotation_invariance(self, h57, triple):
        og = ordered_generators(h57, triple)
        base = dual_formula(h57, triple)
        for r in range(len(og.pairs)):
            rotated = rotate(og.pairs, 5, 7, r)
            xs = [p.x for p in rotated]
            assert all(xs[i] < xs[i + 1] for i in range(len(xs) - 1))
            assert formula_from_pairs(h57, rotated) == base

    def test_against_oracle_scan(self, h57, triple):
        dual = dual_formula(h57, triple)
        lo, hi = dual.set.lo, dual.set.threshold + 5
        expected = naive_dual_members([5, 7], [17, 21, 25], lo, hi)
        assert set(dual.set.members_upto(hi)) == expected


class TestDualSymmetric:
    def test_example(self, h57, triple):
        assert dual_symmetric(h57, triple).min_gens == (0, 3, 4)

    def test_semigroup_is_self_dual(self, h57):
        s_as_ideal = make_ideal(h57.base, [0])
        assert dual_symmetric(h57, s_as_ideal).min_gens == (0,)

    def test_principal(self, h57):
        assert dual_symmetric(h57, make_ideal(h57.base, [9])).min_gens == (-9,)

    def test_accepts_any_symmetric_semigroup(self):
        s = make_semigroup([4, 5, 6])
        a = make_ideal(s, [4, 5])
        assert dual_symmetric(s, a) == ideal_dual(a)

    def test_rejects_non_symmetric(self):
        s = make_semigroup([3, 5, 7])
        with pytest.raises(ValueError):
            dual_symmetric(s, make_ideal(s, [0]))


class TestHalfMuBound:
    def test_tight_case(self):
        h = make_hypersurface(2, 3)
        a = make_ideal(h.base, [0, 1])
        report = check_half_mu_bound(h, a, a)
        assert (report.tau, report.support, report.mu_product) == (2, 2, 4)
        assert report.inequality_1 and report.inequality_2

    def test_triple_pair(self):
        h = make_hypersurface(5, 11)
        a = make_ideal(h.base, [20, 21, 22])
        b = make_ideal(h.base, [0, 23, 24])
        report = check_half_mu_bound(h, a, b)
        assert report.mu_product == 9
        assert report.tau >= 5  # ceil(9 / 2)
        profile = torsion_profile(a, b)
        assert profile.tau_by_z[44] == 2 and profile.tau_by_z[45] == 2
        assert report.inequality_1 and report.inequality_2

    def test_principal_rejected(self):
        h = make_hypersurface(5, 7)
        a = make_ideal(h.base, [0, 1])
        with pytest.raises(ValueError):
            check_half_mu_bound(h, a, make_ideal(h.base, [4]))


class TestTorsionGeneratorPairs:
    def test_triple(self, h57, triple):
        count = torsion_generator_pairs(h57, triple)
        assert count == 6
        assert count >= 2 * triple.mu - 2

    def test_principal(self, h57):
        assert torsion_generator_pairs(h57, make_ideal(h57.base, [9])) == 0

    def test_small(self):
        h = make_hypersurface(2, 3)
        a = make_ideal(h.base, [0, 1])
        assert torsion_generator_pairs(h, a) == 2 == 2 * a.mu - 2
