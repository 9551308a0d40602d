"""Relative ideals of a numerical semigroup and their algebra.

A relative ideal is a union of translates g + S; it is stored as the
cofinite set it equals. `make_ideal` keeps generators it has checked
minimal; any other ideal reads its minimal generating set off its set by
`minimal_generators_of_set` on demand, once. An ideal and its dual read
S as one int with its tail bits set; shifts move it.
"""

from __future__ import annotations

from operator import index
from typing import Iterable

from .cofinite import CofiniteSet, bit_positions
from .semigroup import NumericalSemigroup, minimal_generators_of_set


class SemigroupMismatchError(ValueError):
    """Raised when combining ideals defined over different semigroups."""


class RelativeIdeal:
    """A relative ideal over a fixed numerical semigroup, stored as its set.

    Its minimal generators come checked from `make_ideal` or are scanned
    on first read; `==` and the hash read the semigroup and set only."""

    __slots__ = ("semigroup", "set", "_min_gens")

    semigroup: NumericalSemigroup
    set: CofiniteSet

    def __init__(self, semigroup: NumericalSemigroup, cset: CofiniteSet):
        self.semigroup = semigroup
        self.set = cset
        self._min_gens = None

    @property
    def min_gens(self) -> tuple[int, ...]:
        if self._min_gens is None:
            self._min_gens = minimal_generators_of_set(self.semigroup, self.set)
        return self._min_gens

    @property
    def mu(self) -> int:
        return len(self.min_gens)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelativeIdeal)
            and (self.semigroup is other.semigroup
                 or self.semigroup == other.semigroup)
            and self.set == other.set
        )

    def __hash__(self) -> int:
        return hash((self.semigroup, self.set))

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.min_gens)
        return f"({gens}) over {self.semigroup!r}"


def make_ideal(s: NumericalSemigroup, generators: Iterable[int]) -> RelativeIdeal:
    """The relative ideal generated by `generators` over `s`.

    A generator past min + F lies in min + S and adds nothing. Below
    max + F + 1 (past it everything lies in max + S) the set is the OR
    of the translates g + S, S read as one int with its tail bits set;
    if no generator lies in an earlier translate, all are kept as minimal.
    """
    gens = sorted(set(map(index, generators)))
    if not gens:
        raise ValueError("generator list must be non-empty")
    g0 = gens[0]
    cut = g0 + max(s.frobenius, 0)
    if gens[-1] > cut:
        gens = [g for g in gens if g <= cut]
    t = gens[-1] + s.frobenius + 1
    member = s.bits | -1 << s.threshold
    bits = reached = 0
    for g in gens:
        reached |= bits >> (g - g0) & 1
        bits |= member << (g - g0)
    ideal = RelativeIdeal(s, CofiniteSet.from_bits(t, g0, bits))
    if not reached:
        ideal._min_gens = tuple(gens)
    return ideal


def _check_over(s: NumericalSemigroup, *ideals: RelativeIdeal) -> None:
    """Raise SemigroupMismatchError unless every ideal lives over `s`."""
    for ideal in ideals:
        if ideal.semigroup is not s and ideal.semigroup != s:
            raise SemigroupMismatchError(
                f"ideal over {ideal.semigroup!r} does not live over {s!r}")


def ideal_sum(a: RelativeIdeal, b: RelativeIdeal) -> RelativeIdeal:
    """The ideal generated by all pairwise sums of generators."""
    _check_over(a.semigroup, b)
    return make_ideal(a.semigroup,
                      {x + y for x in a.min_gens for y in b.min_gens})


def ideal_intersect(a: RelativeIdeal, b: RelativeIdeal) -> RelativeIdeal:
    _check_over(a.semigroup, b)
    return RelativeIdeal(a.semigroup, a.set.intersect(b.set))


def ideal_dual(a: RelativeIdeal) -> RelativeIdeal:
    """{z : z + a is contained in the semigroup}.

    Membership only needs checking against the minimal generators; the
    candidate window is [-min_gen, F + 1 - min_gen) since past its top
    every shift of every generator lands above the Frobenius number.
    Over it the dual is the AND of S >> (g - min_gen), S one int with
    its tail bits set; `from_bits` drops the rest.
    """
    s = a.semigroup
    g0 = a.min_gens[0]
    member = s.bits | -1 << s.threshold
    bits = -1
    for g in a.min_gens:
        bits &= member >> (g - g0)
    return RelativeIdeal(s, CofiniteSet.from_bits(s.threshold - g0, -g0, bits))


def ideal_shift(a: RelativeIdeal, c: int) -> RelativeIdeal:
    return RelativeIdeal(a.semigroup, a.set.shift(index(c)))


def apery_set(a: RelativeIdeal, n: int) -> set[int]:
    """{x in a : x - n not in a} for a member n > 0 of the semigroup.

    Has exactly n elements: membership along each residue class mod n is
    upward closed, so the set collects the least member of every class.
    Every x >= threshold + n has x - n in the tail, so over the window
    [lo, threshold + n) the set is own & ~(own << n).
    """
    s, own, n = a.semigroup, a.set, index(n)
    if n <= 0 or n not in s:
        raise ValueError(f"{n} is not a positive member of {s!r}")
    bits = own.window(own.lo, own.threshold + n)
    return set(bit_positions(bits & ~(bits << n), own.lo))
