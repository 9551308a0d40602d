"""Numerical semigroups: construction, membership, gaps, Apery sets, symmetry."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .cofinite import bit_flags, reverse_bits


class NumericalSemigroup:
    """A submonoid of the non-negative integers with finite complement.

    Stores the minimal generating set, the Frobenius number (largest
    integer not in the semigroup, -1 for the full monoid), a byte table
    over [0, frobenius] so that scalar `contains` is O(1), and the same
    membership as the int `bits` (bit z set iff z is a member) for the
    word-parallel scans. Instances are immutable and hashable.
    """

    __slots__ = ("generators", "frobenius", "multiplicity", "bits",
                 "_table", "_hash")

    generators: tuple[int, ...]
    frobenius: int
    multiplicity: int
    bits: int

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
        table = bit_flags(bits)
        frob = (~bits & ((1 << len(table)) - 1)).bit_length() - 1

        minimal = tuple(
            g for g in gens
            if not any(table[m] and table[g - m] for m in range(1, g))
        )
        self.generators = minimal
        self.frobenius = frob
        self.multiplicity = minimal[0]
        # Queries above the Frobenius number never touch the table.
        self._table = table[: max(frob + 1, 1)]
        self.bits = bits & ((1 << (frob + 1)) - 1)
        self._hash = hash(minimal)

    def contains(self, z: int) -> bool:
        if z < 0:
            return False
        if z > self.frobenius:
            return True
        return bool(self._table[z])

    __contains__ = contains

    def mask(self, hi: int) -> int:
        """Membership bits of [0, hi), the tail past frobenius filled in."""
        top = self.frobenius + 1
        if hi <= top:
            return self.bits & ((1 << max(hi, 0)) - 1)
        return self.bits | (((1 << (hi - top)) - 1) << top)

    def gaps(self) -> list[int]:
        """The non-members in [0, frobenius], ascending."""
        return [z for z in range(self.frobenius + 1) if not self._table[z]]

    def genus(self) -> int:
        return (self.frobenius + 1) - sum(self._table[: self.frobenius + 1])

    def is_symmetric(self) -> bool:
        """True iff z is a member exactly when frobenius - z is not.

        Checking z in [0, frobenius] suffices: outside that window one
        side is forced negative and the other forced above F. There the
        condition says the reversed membership bits are their complement.
        """
        width = self.frobenius + 1
        return reverse_bits(self.bits, width) == self.bits ^ ((1 << width) - 1)

    def members_upto(self, bound: int) -> list[int]:
        """All members in [0, bound]."""
        return [z for z in range(bound + 1) if self.contains(z)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NumericalSemigroup)
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"


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
