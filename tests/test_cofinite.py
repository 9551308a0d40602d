from hypothesis import given, settings
from hypothesis import strategies as st

from semitorsion import CofiniteSet, make_semigroup
from semitorsion.cofinite import reverse_bits

cofinite_sets = st.builds(
    CofiniteSet,
    st.integers(-8, 20),
    st.lists(st.integers(-15, 25), max_size=10),
)


@st.composite
def bits_and_width(draw):
    """A width in 0..300 (most not multiples of 8) and a value below
    2**width whose top bits are often zero."""
    width = draw(st.integers(0, 300))
    value = draw(st.integers(0, (1 << width) - 1))
    return value >> draw(st.integers(0, width)), width


@given(bits_and_width())
@settings(max_examples=300)
def test_reverse_bits_matches_string(case):
    bits, width = case
    assert reverse_bits(bits, width) == int(format(bits, f"0{width}b")[::-1], 2)


def brute_members(c: CofiniteSet, lo: int, hi: int) -> set[int]:
    return {z for z in range(lo, hi + 1) if z in c}


class TestNormalization:
    def test_threshold_pulled_down(self):
        c = CofiniteSet(11, [8, 9, 10])
        assert c.threshold == 8 and c.below == ()

    def test_partial(self):
        c = CofiniteSet(7, [3, 5, 6])
        assert c.threshold == 5 and c.below == (3,)

    def test_drops_above_threshold(self):
        c = CofiniteSet(4, [1, 4, 9, 1])
        assert c.threshold == 4 and c.below == (1,)

    def test_equality_is_structural(self):
        assert CofiniteSet(11, [8, 9, 10]) == CofiniteSet(8)
        assert CofiniteSet(5, [0]) != CofiniteSet(5, [1])

    @given(cofinite_sets)
    def test_canonical_threshold(self, c):
        assert (c.threshold - 1) not in c
        assert all(x < c.threshold for x in c.below)

    @given(st.integers(-8, 20), st.integers(-15, 25), st.integers(0, 1 << 30))
    def test_from_bits_is_canonical(self, t, lo, bits):
        c = CofiniteSet.from_bits(t, lo, bits)
        members = [lo + i for i in range(bits.bit_length()) if bits >> i & 1]
        assert c == CofiniteSet(t, members)
        assert c.below == tuple(x for x in sorted(members) if x < c.threshold)

    @given(cofinite_sets, st.integers(-60, 60), st.integers(-5, 40))
    @settings(max_examples=150)
    def test_window_vs_brute(self, x, lo, width):
        bits = x.window(lo, lo + width)
        assert bits.bit_length() <= max(width, 0)
        assert all(((bits >> i) & 1) == (lo + i in x) for i in range(width))

    def test_min_element(self):
        assert CofiniteSet(5, [-3, 2]).lo == -3
        assert CofiniteSet(5).lo == 5


class TestOperations:
    @given(cofinite_sets, cofinite_sets)
    @settings(max_examples=60)
    def test_intersect_union_vs_brute(self, x, y):
        lo = min(x.lo, y.lo) - 2
        hi = max(x.threshold, y.threshold) + 5
        assert brute_members(x.intersect(y), lo, hi) == (
            brute_members(x, lo, hi) & brute_members(y, lo, hi))
        assert brute_members(x.union(y), lo, hi) == (
            brute_members(x, lo, hi) | brute_members(y, lo, hi))

    @given(cofinite_sets, st.integers(-9, 9))
    def test_shift(self, x, c):
        assert x.shift(c).shift(-c) == x
        assert (x.lo + c) == x.shift(c).lo

    @given(cofinite_sets, cofinite_sets)
    @settings(max_examples=60)
    def test_sumset_vs_brute(self, x, y):
        got = x.sumset(y)
        hi = got.threshold + 8
        xs = brute_members(x, x.lo, hi - y.lo)
        ys = brute_members(y, y.lo, hi - x.lo)
        expected = {u + v for u in xs for v in ys if u + v <= hi}
        assert brute_members(got, got.lo, hi) == expected

    def test_sumset_wide_head(self):
        # a head of over 64 members, so the shifted heads span many words
        s = make_semigroup([29, 31])
        p = CofiniteSet(s.frobenius + 1,
                        [z for z in range(s.frobenius + 1) if s.contains(z)])
        assert len(p.below) ** 2 > 4096
        got = p.sumset(p)
        top = got.threshold + 5
        head = p.members_upto(top)
        small = {u + v for u in head for v in head if u + v <= top}
        assert set(got.members_upto(top)) == small

    @given(cofinite_sets, cofinite_sets)
    def test_difference_and_card(self, x, y):
        diff = x.difference(y)
        t = max(x.threshold, y.threshold)
        expected = {z for z in x.members_upto(t) if z not in y}
        assert len(x.difference(y)) == len(expected)
        assert all(z in x and z not in y for z in diff)
        assert all(z not in y for z in diff)
        assert set(diff) == expected

    def test_difference_examples(self):
        assert len(CofiniteSet(8).difference(CofiniteSet(12, [8, 9, 10]))) == 1
        assert CofiniteSet(8).difference(CofiniteSet(12, [8, 9, 10])) == [11]
        c = CofiniteSet(4, [0, 2])
        assert len(c.difference(c)) == 0

    def test_apery_count_as_difference(self):
        s = make_semigroup([5, 7])
        members = CofiniteSet(s.frobenius + 1,
                              [z for z in range(s.frobenius + 1) if s.contains(z)])
        shifted = members.shift(5)
        assert members.difference(shifted) == [0, 7, 14, 21, 28]
        assert len(members.difference(shifted)) == 5

    @given(cofinite_sets, cofinite_sets)
    def test_issubset(self, x, y):
        inter = x.intersect(y)
        assert inter.issubset(x) and inter.issubset(y)
        assert x.issubset(x.union(y))
