"""Relative ideals of a numerical semigroup and their algebra.

A relative ideal is a union of translates g + S; it is stored as its
unique minimal generating set together with the cofinite set it equals.
Sums, intersections, duals and shifts all return relative ideals with
minimal generators recomputed.
"""

from __future__ import annotations

from typing import Iterable, Union

from .cofinite import CofiniteSet, bit_positions
from .semigroup import NumericalSemigroup

__all__ = [
    "RelativeIdeal",
    "SemigroupMismatchError",
    "make_ideal",
    "ideal_sum",
    "ideal_intersect",
    "ideal_dual",
    "ideal_shift",
    "apery_set",
    "minimal_generators_of_set",
]


class SemigroupMismatchError(ValueError):
    """Raised when combining ideals defined over different semigroups."""


class RelativeIdeal:
    """A relative ideal over a fixed numerical semigroup."""

    __slots__ = ("semigroup", "min_gens", "set")

    semigroup: NumericalSemigroup
    min_gens: tuple[int, ...]
    set: CofiniteSet

    def __init__(self, semigroup: NumericalSemigroup,
                 min_gens: tuple[int, ...], cset: CofiniteSet):
        self.semigroup = semigroup
        self.min_gens = min_gens
        self.set = cset

    def contains(self, z: int) -> bool:
        return z in self.set

    __contains__ = contains

    @property
    def mu(self) -> int:
        return len(self.min_gens)

    @property
    def is_principal(self) -> bool:
        return len(self.min_gens) == 1

    @property
    def min_element(self) -> int:
        return self.min_gens[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelativeIdeal)
            and self.semigroup == other.semigroup
            and self.min_gens == other.min_gens
        )

    def __hash__(self) -> int:
        return hash((self.semigroup, self.min_gens))

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.min_gens)
        return f"({gens}) over {self.semigroup!r}"


def _reduce_generators(s: NumericalSemigroup, gens: Iterable[int]) -> tuple[int, ...]:
    uniq = sorted(set(int(g) for g in gens))
    return tuple(
        g for g in uniq
        if not any(h != g and s.contains(g - h) for h in uniq)
    )


def _build_set(s: NumericalSemigroup, gens: tuple[int, ...]) -> CofiniteSet:
    # Everything at or above max(gens) + F + 1 lies in max(gens) + S;
    # below it the set is the OR of the translates g + S.
    g0 = gens[0]
    t = gens[-1] + s.frobenius + 1
    bits = 0
    for g in gens:
        bits |= s.mask(t - g) << (g - g0)
    return CofiniteSet.from_bits(t, g0, bits)


def make_ideal(s: NumericalSemigroup, generators: Iterable[int]) -> RelativeIdeal:
    """The relative ideal generated by `generators` over `s`."""
    gens = list(generators)
    if not gens:
        raise ValueError("generator list must be non-empty")
    minimal = _reduce_generators(s, gens)
    return RelativeIdeal(s, minimal, _build_set(s, minimal))


def minimal_generators_of_set(s: NumericalSemigroup,
                              cset: CofiniteSet) -> tuple[int, ...]:
    """Minimal generators of a cofinite set that is closed under adding s.

    An element is a generator iff subtracting any semigroup generator
    leaves the set; candidates at or above threshold + multiplicity are
    never generators since subtracting the multiplicity stays in the
    tail. Over that window the generators are own & ~OR(own << n).
    """
    lo = cset.lo
    own = cset.window(lo, cset.threshold + s.multiplicity)
    reached = 0
    for n in s.generators:
        reached |= own << n
    return tuple(bit_positions(own & ~reached, lo))


def _from_set(s: NumericalSemigroup, cset: CofiniteSet) -> RelativeIdeal:
    return RelativeIdeal(s, minimal_generators_of_set(s, cset), cset)


def _check_same(a: RelativeIdeal, b: RelativeIdeal) -> None:
    if a.semigroup != b.semigroup:
        raise SemigroupMismatchError(
            f"ideals over different semigroups: "
            f"{a.semigroup!r} vs {b.semigroup!r}"
        )


def ideal_sum(a: RelativeIdeal, b: RelativeIdeal) -> RelativeIdeal:
    """The ideal generated by all pairwise sums of generators."""
    _check_same(a, b)
    return make_ideal(a.semigroup,
                      {x + y for x in a.min_gens for y in b.min_gens})


def ideal_intersect(a: RelativeIdeal, b: RelativeIdeal) -> RelativeIdeal:
    _check_same(a, b)
    return _from_set(a.semigroup, a.set.intersect(b.set))


def ideal_dual(a: RelativeIdeal) -> RelativeIdeal:
    """{z : z + a is contained in the semigroup}.

    Membership only needs checking against the minimal generators; the
    candidate window is [-min_gen, F + 1 - min_gen) since past its top
    every shift of every generator lands above the Frobenius number.
    Over the window the dual is the AND of S >> (g - min_gen).
    """
    s = a.semigroup
    g0 = a.min_gens[0]
    width = s.frobenius + 1
    bits = (1 << width) - 1
    for g in a.min_gens:
        bits &= s.mask(width + g - g0) >> (g - g0)
    return _from_set(s, CofiniteSet.from_bits(width - g0, -g0, bits))


def ideal_shift(a: RelativeIdeal, c: int) -> RelativeIdeal:
    return RelativeIdeal(a.semigroup,
                         tuple(g + c for g in a.min_gens),
                         a.set.shift(c))


def apery_set(a: Union[RelativeIdeal, NumericalSemigroup], n: int) -> set[int]:
    """{x in a : x - n not in a} for a member n > 0 of the semigroup.

    Has exactly n elements: membership along each residue class mod n is
    upward closed, so the set collects the least member of every class.
    """
    s = a.semigroup if isinstance(a, RelativeIdeal) else a
    if n <= 0 or not s.contains(n):
        raise ValueError(f"{n} is not a positive member of {s!r}")
    if isinstance(a, RelativeIdeal):
        start, member = a.set.min_element, a.set.contains
    else:
        start, member = 0, s.contains
    found: dict[int, int] = {}
    z = start
    while len(found) < n:
        if member(z) and (z % n) not in found:
            found[z % n] = z
        z += 1
    return set(found.values())
