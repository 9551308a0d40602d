"""Lattice machinery for two-generated semigroups S = <a, b>.

Integers correspond to classes of Z^2 modulo (b, -a) through
(x, y) -> a*x + b*y. Relative ideals become staircase regions of the
plane; their generators carry a cyclic order read off from the key
(b*x - a*y) mod (a^2 + b^2), which is representative-independent.
The dual has an explicit generator formula in the ordered generator
coordinates, and a reflection formula z -> F - z holds over any
symmetric semigroup. One private reader, `_coordinates`, turns values
into points for every function here. Each function reads S off its
ideal, and `_plane` alone checks that S is <a, b>.
The half-mu bounds are checked by the `half-mu-bound` campaign.
"""

from __future__ import annotations

from operator import gt
from typing import Iterable, NamedTuple

from .cofinite import CofiniteSet, reverse_bits
from .ideals import RelativeIdeal, apery_set, ideal_sum, make_ideal
from .semigroup import NumericalSemigroup


class LatticeClass(NamedTuple):
    """A chosen representative (x, y) of a class of Z^2 mod (b, -a)."""

    x: int
    y: int


def _plane(s: NumericalSemigroup) -> tuple[int, int, int]:
    """(a, b, a^-1 mod b) for S = <a, b>; S is coprime by construction."""
    if len(s.generators) != 2:
        raise ValueError(f"{s!r} is not two-generated")
    a, b = s.generators
    return a, b, pow(a, -1, b)


def _coordinates(s: NumericalSemigroup, values: Iterable[int]
                 ) -> tuple[int, int, list[tuple[int, int]]]:
    """a, b and the point (x, y) of each value g: a*x + b*y = g, 0 <= x < b."""
    a, b, a_inverse = _plane(s)
    return a, b, [(x := a_inverse * g % b, (g - a * x) // b) for g in values]


def _ordered_coordinates(ideal: RelativeIdeal) -> tuple[
        int, int, tuple[int, ...], tuple[int, ...]]:
    """a, b and the generator x and y tuples by x in [0, b), chain checked."""
    a, b, points = _coordinates(ideal.semigroup, ideal.min_gens)
    xs, ys = zip(*sorted(points))
    # ties in x sort by y: falling ys also rule out a repeated x
    if not all(map(gt, ys, ys[1:])) or ys[-1] <= ys[0] - a:
        raise RuntimeError(
            f"generator chain of {ideal!r} is not ordered: x={xs}, y={ys}")
    return a, b, xs, ys


def ordered_generators(ideal: RelativeIdeal) -> tuple[LatticeClass, ...]:
    """Generator representatives with x1 < ... < xn < x1 + b.

    The matching chain y1 > ... > yn > y1 - a then holds as well; it is
    checked wherever coordinates are read, and a violation raises
    RuntimeError since it would be a bug rather than bad input.
    """
    _, _, xs, ys = _ordered_coordinates(ideal)
    return tuple(map(LatticeClass, xs, ys))


def _cyclic_key(a: int, b: int, p: LatticeClass) -> int:
    # (b*x - a*y) changes by exactly a^2 + b^2 across representatives,
    # so the residue is class-invariant.
    return (b * p.x - a * p.y) % (a * a + b * b)


class BoundaryCycle(NamedTuple):
    """Cyclically ordered lattice classes of the width-(a+b) Apery set."""

    cycle: tuple[LatticeClass, ...]
    keys: tuple[int, ...]
    maximal_flags: tuple[bool, ...]

    @property
    def maximal_classes(self) -> tuple[LatticeClass, ...]:
        return tuple(p for p, m in zip(self.cycle, self.maximal_flags) if m)


def boundary_cycle(ideal: RelativeIdeal) -> BoundaryCycle:
    """Apery set of a+b as a cycle, with maximal corners flagged.

    A boundary class is maximal when stepping one unit down in either
    coordinate stays inside the ideal, i.e. both value - a and
    value - b are members.
    """
    s = ideal.semigroup
    values = sorted(apery_set(ideal, sum(s.generators)))  # a + b, if <a, b>
    a, b, points = _coordinates(s, values)
    entries = sorted((_cyclic_key(a, b, p), p, g)
                     for p, g in zip(map(LatticeClass._make, points), values))
    keys = tuple(k for k, _, _ in entries)
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"duplicate cyclic keys in boundary of {ideal!r}")
    return BoundaryCycle(
        tuple(p for _, p, _ in entries),
        keys,
        tuple((g - a) in ideal.set and (g - b) in ideal.set
              for _, _, g in entries),
    )


def dual_formula(ideal: RelativeIdeal) -> RelativeIdeal:
    """Dual ideal from the ordered generator coordinates.

    With generators at (x_i, y_i) and x_{n+1} = x_1 + b, the dual is
    generated by the ab - a*x_{i+1} - b*y_i (the last is -a*x_1 - b*y_n).
    Minimality of the produced set is checked by `make_ideal`, not assumed.
    """
    a, b, xs, ys = _ordered_coordinates(ideal)
    return make_ideal(ideal.semigroup, [
        a * (b - x) - b * y for x, y in zip((*xs[1:], xs[0] + b), ys)])


def dual_symmetric(ideal: RelativeIdeal) -> RelativeIdeal:
    """Dual via the reflection z in dual iff F - z not in the ideal.

    Valid exactly over symmetric semigroups.
    """
    s = ideal.semigroup
    if not s.is_symmetric():
        raise ValueError(f"{s!r} is not symmetric")
    # z in [F + 1 - threshold, F + 1 - min) maps to F - z in the ideal's
    # head window, so the head is the reversed complement of its bits.
    f = s.frobenius
    own = ideal.set
    width = own.threshold - own.lo
    bits = reverse_bits(own.bits ^ ((1 << width) - 1), width)
    cset = CofiniteSet.from_bits(f + 1 - own.lo, f + 1 - own.threshold, bits)
    return RelativeIdeal(s, cset)


def torsion_generator_pairs(ideal: RelativeIdeal) -> int:
    """Generator pairs of (ideal, dual) that can be made torsion.

    The product ideal C = A + A* needs one generator pair per minimal
    generator it has; every remaining pair (g, g*) either sums to a
    non-generator of C or duplicates a degree already covered, and the
    corresponding tensor generator can be replaced by a torsion element.
    """
    dual = dual_formula(ideal)
    product = ideal_sum(ideal, dual)
    return ideal.mu * dual.mu - product.mu
