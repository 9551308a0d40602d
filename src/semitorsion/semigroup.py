"""Numerical semigroups: construction, gaps, symmetry, minimal generators.

A numerical semigroup is a cofinite set, so `NumericalSemigroup` is a
`CofiniteSet` and takes its membership, windows and equality from it.
Minimal generators, of the semigroup and of its relative ideals, come
from one bit scan, `minimal_generators_of_set`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .cofinite import CofiniteSet, bit_positions, reverse_bits


class NumericalSemigroup(CofiniteSet):
    """A submonoid of the non-negative integers with finite complement.

    As a set its threshold is frobenius + 1, lo is 0 and bit z of
    `bits` says whether z in [0, frobenius] is a member. It adds the
    minimal generating set, the Frobenius number (largest integer not
    in the semigroup, -1 for the full monoid) and the multiplicity.
    Equal members mean equal minimal generators, so the inherited
    equality and hash serve. Instances are immutable.
    """

    __slots__ = ("generators", "frobenius", "multiplicity")

    generators: tuple[int, ...]
    frobenius: int
    multiplicity: int

    def __init__(self, generators: Iterable[int]):
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise ValueError("generator list must be non-empty")
        if gens[0] < 1:
            raise ValueError(f"generators must be positive, got {gens[0]}")
        if math.gcd(*gens) != 1:
            raise ValueError(
                f"gcd of generators is {math.gcd(*gens)}, not 1: "
                "the complement would be infinite"
            )

        bits = _membership_bits(gens)
        frob = (~bits & ((1 << bits.bit_length()) - 1)).bit_length() - 1
        self._normalize(frob + 1, 0, bits)
        self.frobenius = frob
        # Every input generator spans S, so the minimal ones are the
        # members of S \ {0} that no input generator reaches inside it.
        self.generators = tuple(gens)
        self.multiplicity = gens[0]
        self.generators = minimal_generators_of_set(
            self, CofiniteSet.from_bits(max(frob + 1, 1), 1, self.bits >> 1))

    def gaps(self) -> list[int]:
        """The non-members in [0, frobenius], ascending."""
        return bit_positions(self.bits ^ ((1 << self.threshold) - 1))

    def genus(self) -> int:
        return self.threshold - self.bits.bit_count()

    def is_symmetric(self) -> bool:
        """True iff z is a member exactly when frobenius - z is not.

        Checking z in [0, frobenius] suffices: outside that window one
        side is forced negative and the other forced above F. There the
        condition says the reversed membership bits are their complement.
        """
        width = self.threshold
        return reverse_bits(self.bits, width) == self.bits ^ ((1 << width) - 1)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"


def minimal_generators_of_set(s: NumericalSemigroup,
                              cset: CofiniteSet) -> tuple[int, ...]:
    """Minimal generators of a cofinite set that is closed under adding s.

    An element is a generator iff subtracting any generator of s (any
    generating set serves, minimal or not) leaves the set; candidates at
    or above threshold + multiplicity are never generators since
    subtracting the multiplicity stays in the tail. Over that window the
    generators are own & ~OR(own << n).
    """
    lo = cset.lo
    own = cset.window(lo, cset.threshold + s.multiplicity)
    reached = 0
    for n in s.generators:
        reached |= own << n
    return tuple(bit_positions(own & ~reached, lo))


def _membership_bits(gens: list[int]) -> int:
    """Bit z set iff z is a non-negative combination of `gens`, z <= bound.

    The bound starts at the product of the two largest generators, which
    is past the Frobenius number for any generating set with gcd 1, and
    doubles until the top min(gens) bits are a full run (past that point
    every integer decomposes). Closing under one generator g takes
    log(bound / g) shift-and-ORs by g, 2g, 4g, ...
    """
    lead = gens[-1] * (gens[-2] if len(gens) > 1 else gens[-1])
    bound = max(lead, gens[-1] + 1, 2)
    step = gens[0]
    while True:
        full = (1 << (bound + 1)) - 1
        bits = 1
        for g in gens:
            while g <= bound:
                bits |= (bits << g) & full
                g *= 2
        if bits >> (bound + 1 - step) == (1 << step) - 1:
            return bits
        bound *= 2


@lru_cache(maxsize=None)
def _cached(generators: tuple[int, ...]) -> NumericalSemigroup:
    return NumericalSemigroup(generators)


def make_semigroup(generators: Iterable[int]) -> NumericalSemigroup:
    """Build the numerical semigroup generated by `generators`.

    The stored generating set is reduced to the minimal one. Repeated
    calls with the same generators return a shared instance.
    """
    return _cached(tuple(sorted(set(int(g) for g in generators))))
