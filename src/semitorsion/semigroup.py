"""Numerical semigroups: construction, gaps, symmetry, minimal generators.

A numerical semigroup is a cofinite set, so `NumericalSemigroup` is a
`CofiniteSet` and takes its membership, windows and equality from it.
Minimal generators, of the semigroup and of its relative ideals, come
from one bit scan, `minimal_generators_of_set`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import index
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

    __slots__ = ("generators", "frobenius", "multiplicity", "_symmetric")

    generators: tuple[int, ...]
    frobenius: int
    multiplicity: int

    def __init__(self, generators: Iterable[int]):
        gens = sorted(set(map(index, generators)))
        if not gens:
            raise ValueError("generator list must be non-empty")
        if gens[0] < 1:
            raise ValueError(f"generators must be positive, got {gens[0]}")
        if math.gcd(*gens) != 1:
            raise ValueError(
                f"gcd of generators is {math.gcd(*gens)}, not 1: "
                "the complement would be infinite"
            )

        try:
            bits = _membership_bits(gens)
        except (OverflowError, MemoryError):  # a bound past what Python holds
            raise ValueError(f"generators {gens} are too large") from None
        frob = (~bits & ((1 << bits.bit_length()) - 1)).bit_length() - 1
        self._normalize(frob + 1, 0, bits)
        self.frobenius = frob
        # Every input generator spans S, so the minimal ones are the
        # members of S \ {0} that no input generator reaches inside it.
        self.generators = tuple(gens)
        self.multiplicity = gens[0]
        self.generators = minimal_generators_of_set(
            self, CofiniteSet.from_bits(max(frob + 1, 1), 1, self.bits >> 1))
        full = (1 << (frob + 1)) - 1
        self._symmetric = reverse_bits(self.bits, frob + 1) == self.bits ^ full

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
        return self._symmetric

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"


def minimal_generators_of_set(s: NumericalSemigroup,
                              cset: CofiniteSet) -> tuple[int, ...]:
    """Minimal generators of a cofinite set that is closed under adding s.

    A member is a generator iff subtracting any generator of s (any
    generating set serves, minimal or not) leaves the set; none lies at
    or above threshold + multiplicity, since subtracting the multiplicity
    stays in the tail. Over that window they are own & ~OR(own << n).
    """
    lo, out = cset.lo, []
    bits = own = cset.window(lo, cset.threshold + s.multiplicity)
    for n in s.generators:
        bits &= ~(own << n)
    while bits:  # at most multiplicity bits: read them off one by one
        out.append(lo + (bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return tuple(out)


def _membership_bits(gens: list[int]) -> int:
    """Bit z set iff z is a non-negative combination of `gens`, z <= bound.

    The bound is the product of the two largest generators. By Schur's
    bound F <= (a1 - 1)(an - 1) - 1 (Brauer, 1942), F + a1 <= a1*an - an
    lies below it, so the top a1 bits are a full run and one pass holds
    every gap. Closing under one generator g takes log(bound / g)
    shift-and-ORs by g, 2g, 4g, ...
    """
    bound = max(gens[-1] * gens[-2 if len(gens) > 1 else -1], gens[-1] + 1, 2)
    full = (1 << (bound + 1)) - 1
    bits = 1
    for g in gens:
        while g <= bound:
            bits |= (bits << g) & full
            g *= 2
    return bits


@lru_cache(maxsize=None)
def _cached(generators: tuple[int, ...]) -> NumericalSemigroup:
    return NumericalSemigroup(generators)


def make_semigroup(generators: Iterable[int]) -> NumericalSemigroup:
    """Build the numerical semigroup generated by `generators`.

    The stored generating set is reduced to the minimal one. Repeated
    calls with the same generators return a shared instance.
    """
    return _cached(tuple(sorted(set(map(index, generators)))))
