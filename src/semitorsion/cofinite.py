"""Cofinite integer sets: a finite head bitmask plus a full tail [threshold, oo).

The head is one Python int read at an offset: bit i stands for lo + i.
Bulk operations are word operations on aligned windows of those ints
(shift-and-OR sums, `&`, `|`, `& ~`), after the bit-parallel semigroup
algorithms of Fromentin and Hivert (arXiv:1305.3831). A numerical
semigroup is one of these sets (`semigroup.NumericalSemigroup`), so
ideals and the semigroup share one membership representation.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable

_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def bit_positions(bits: int, offset: int = 0) -> list[int]:
    """offset + i for every set bit i of `bits` (non-negative), ascending."""
    flags = bin(bits)[:1:-1].encode().translate(_DIGITS)  # byte i: bit i
    return list(compress(range(offset, offset + len(flags)), flags))


def reverse_bits(bits: int, width: int) -> int:
    """Bit i of the result is bit width - 1 - i of `bits` (< 2**width).

    Flipping each byte by table and then the byte order reverses
    8 * size bits; the shift drops the pad above `width`."""
    size = (width + 7) // 8
    flipped = bits.to_bytes(size, "little").translate(_REVERSED)
    return int.from_bytes(flipped, "big") >> (8 * size - width)


class CofiniteSet:
    """Set of integers containing every z >= threshold.

    Below the threshold the members are lo + i for the set bits i of
    `bits`; `lo` is the least member (threshold when the head is empty).
    Construction normalizes: bits at or above the threshold are dropped,
    the threshold is pulled down while threshold - 1 is a member, and
    the offset moves up to the least member, so equal sets always have
    equal (threshold, lo, bits) triples, and equality and hashing read
    only that triple (also for subclasses such as the semigroup).
    """

    __slots__ = ("threshold", "lo", "bits")

    threshold: int
    lo: int
    bits: int

    def __init__(self, threshold: int, below: Iterable[int] = ()):
        t = int(threshold)
        head = {int(x) for x in below if x < t}
        lo = min(head, default=t)
        self._normalize(t, lo, sum(1 << (x - lo) for x in head))

    @classmethod
    def from_bits(cls, threshold: int, lo: int, bits: int) -> "CofiniteSet":
        """{lo + i : bit i of bits} together with [threshold, oo)."""
        out = object.__new__(cls)
        out._normalize(threshold, lo, bits)
        return out

    def _normalize(self, t: int, lo: int, bits: int) -> None:
        lo = min(lo, t)
        # the run of ones ending at t - 1 belongs to the tail
        width = (~bits & ((1 << (t - lo)) - 1)).bit_length()
        bits &= (1 << width) - 1
        low = (bits & -bits).bit_length() - 1 if bits else width
        self.threshold, self.lo, self.bits = lo + width, lo + low, bits >> low

    @property
    def below(self) -> tuple[int, ...]:
        """The members strictly less than `threshold`, sorted."""
        return tuple(bit_positions(self.bits, self.lo))

    def window(self, lo: int, hi: int) -> int:
        """Membership bits of [lo, hi): bit i is set iff lo + i is a member."""
        width = hi - lo
        if width <= 0:
            return 0
        # a head starting past the window's top adds nothing: skip a
        # shift that would allocate d bits
        d = self.lo - lo
        if d >= width:
            bits = 0
        else:
            bits = self.bits << d if d >= 0 else self.bits >> -d
        t = self.threshold - lo
        if t < width:
            bits |= -1 << t if t > 0 else -1
        return bits & ((1 << width) - 1)

    def contains(self, z: int) -> bool:
        if z >= self.threshold:
            return True
        d = z - self.lo
        return d >= 0 and (self.bits >> d) & 1 == 1

    __contains__ = contains

    def members_upto(self, bound: int) -> list[int]:
        """All members z <= bound, ascending."""
        return bit_positions(self.window(self.lo, bound + 1), self.lo)

    def intersect(self, other: "CofiniteSet") -> "CofiniteSet":
        t = max(self.threshold, other.threshold)
        lo = max(self.lo, other.lo)
        return CofiniteSet.from_bits(
            t, lo, self.window(lo, t) & other.window(lo, t))

    def union(self, other: "CofiniteSet") -> "CofiniteSet":
        t = min(self.threshold, other.threshold)
        lo = min(self.lo, other.lo)
        return CofiniteSet.from_bits(
            t, lo, self.window(lo, t) | other.window(lo, t))

    def shift(self, c: int) -> "CofiniteSet":
        return CofiniteSet.from_bits(self.threshold + c, self.lo + c, self.bits)

    def sumset(self, other: "CofiniteSet") -> "CofiniteSet":
        """{x + y : x in self, y in other}.

        Every z >= min(self) + other.threshold (and symmetrically) is a
        sum, so only head-by-head sums below that bound matter: the OR
        of one head shifted by each member of the other.
        """
        t = min(self.lo + other.threshold, other.lo + self.threshold)
        acc = 0
        for d in bit_positions(self.bits):
            acc |= other.bits << d
        return CofiniteSet.from_bits(t, self.lo + other.lo, acc)

    def difference(self, other: "CofiniteSet") -> list[int]:
        """Sorted members of self not in other; always finite.

        Both sets contain everything at or above the larger threshold,
        so the difference lives below it.
        """
        t = max(self.threshold, other.threshold)
        lo = self.lo
        return bit_positions(self.window(lo, t) & ~other.window(lo, t), lo)

    def issubset(self, other: "CofiniteSet") -> bool:
        return not self.difference(other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CofiniteSet)
            and self.threshold == other.threshold
            and self.lo == other.lo
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.threshold, self.lo, self.bits))

    def __repr__(self) -> str:
        head = ",".join(str(x) for x in self.below)
        sep = "," if head else ""
        return f"{{{head}{sep}{self.threshold}->}}"
