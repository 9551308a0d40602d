"""Lattice machinery for two-generated semigroups S = <a, b>.

Integers correspond to classes of Z^2 modulo (b, -a) through
(x, y) -> a*x + b*y. Relative ideals become staircase regions of the
plane; their generators carry a cyclic order read off from the key
(b*x - a*y) mod (a^2 + b^2), which is representative-independent.
The dual has an explicit generator formula in the ordered generator
coordinates (int lists from one checked reader), and a reflection
formula z -> F - z holds over any symmetric semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cofinite import CofiniteSet, reverse_bits
from .ideals import (RelativeIdeal, _check_over, _from_set, apery_set,
                     ideal_sum, make_ideal)
from .semigroup import NumericalSemigroup, make_semigroup
from .torsion import TauEngine

__all__ = [
    "HypersurfaceSemigroup",
    "LatticeClass",
    "OrderedGenerators",
    "BoundaryCycle",
    "make_hypersurface",
    "lattice_normalize",
    "ordered_generators",
    "boundary_cycle",
    "dual_formula",
    "dual_symmetric",
    "check_half_mu_bound",
    "torsion_generator_pairs",
    "HalfMuReport",
]


@dataclass(frozen=True)
class LatticeClass:
    """A chosen representative (x, y) of a class of Z^2 mod (b, -a)."""

    x: int
    y: int


@dataclass(frozen=True)
class HypersurfaceSemigroup:
    a: int
    b: int
    base: NumericalSemigroup
    a_inverse: int = field(compare=False, repr=False)  # a^-1 mod b


def make_hypersurface(a: int, b: int) -> HypersurfaceSemigroup:
    if not (b > a > 1):
        raise ValueError(f"need b > a > 1, got a={a}, b={b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"a={a} and b={b} are not coprime")
    return HypersurfaceSemigroup(a, b, make_semigroup((a, b)), pow(a, -1, b))


def lattice_normalize(h: HypersurfaceSemigroup, g: int,
                      x_lo: int = 0) -> LatticeClass:
    """The representative (x, y) of the class of value g with x in [x_lo, x_lo+b)."""
    r = h.a_inverse * g % h.b
    x = x_lo + (r - x_lo) % h.b
    return LatticeClass(x, (g - h.a * x) // h.b)


@dataclass(frozen=True)
class OrderedGenerators:
    """Generator representatives with x1 < ... < xn < x1 + b.

    The matching chain y1 > ... > yn > y1 - a then holds as well; it is
    checked wherever coordinates are read, and a violation raises
    RuntimeError since it would be a bug rather than bad input.
    """

    pairs: tuple[LatticeClass, ...]
    psi_values: tuple[int, ...]


def _ordered_coordinates(h: HypersurfaceSemigroup,
                         ideal: RelativeIdeal) -> tuple[list[int], list[int]]:
    """Generator x and y lists, by x in [0, b); the chain is checked."""
    _check_over(h.base, ideal)
    pairs = sorted((h.a_inverse * g % h.b, g) for g in ideal.min_gens)
    xs = [x for x, _ in pairs]
    ys = [(g - h.a * x) // h.b for x, g in pairs]
    if (len(set(xs)) < len(xs) or ys != sorted(set(ys), reverse=True)
            or ys[-1] <= ys[0] - h.a):
        raise RuntimeError(
            f"generator chain of {ideal!r} is not ordered: x={xs}, y={ys}")
    return xs, ys


def ordered_generators(h: HypersurfaceSemigroup,
                       ideal: RelativeIdeal) -> OrderedGenerators:
    xs, ys = _ordered_coordinates(h, ideal)
    return OrderedGenerators(tuple(map(LatticeClass, xs, ys)),
                             tuple(h.a * x + h.b * y for x, y in zip(xs, ys)))


def _cyclic_key(h: HypersurfaceSemigroup, p: LatticeClass) -> int:
    # (b*x - a*y) changes by exactly a^2 + b^2 across representatives,
    # so the residue is class-invariant.
    return (h.b * p.x - h.a * p.y) % (h.a * h.a + h.b * h.b)


@dataclass(frozen=True)
class BoundaryCycle:
    """Cyclically ordered lattice classes of the width-(a+b) Apery set."""

    cycle: tuple[LatticeClass, ...]
    keys: tuple[int, ...]
    maximal_flags: tuple[bool, ...]

    @property
    def maximal_classes(self) -> tuple[LatticeClass, ...]:
        return tuple(p for p, m in zip(self.cycle, self.maximal_flags) if m)


def boundary_cycle(h: HypersurfaceSemigroup,
                   ideal: RelativeIdeal) -> BoundaryCycle:
    """Apery set of a+b as a cycle, with maximal corners flagged.

    A boundary class is maximal when stepping one unit down in either
    coordinate stays inside the ideal, i.e. both value - a and
    value - b are members.
    """
    _check_over(h.base, ideal)
    entries = []
    for g in sorted(apery_set(ideal, h.a + h.b)):
        p = lattice_normalize(h, g)
        entries.append((_cyclic_key(h, p), p, g))
    entries.sort()
    keys = tuple(k for k, _, _ in entries)
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"duplicate cyclic keys in boundary of {ideal!r}")
    return BoundaryCycle(
        tuple(p for _, p, _ in entries),
        keys,
        tuple((g - h.a) in ideal.set and (g - h.b) in ideal.set
              for _, _, g in entries),
    )


def dual_formula(h: HypersurfaceSemigroup,
                 ideal: RelativeIdeal) -> RelativeIdeal:
    """Dual ideal from the ordered generator coordinates.

    With generators at (x_i, y_i) the dual is generated by
    -a*x_1 - b*y_n together with ab - a*x_{i+1} - b*y_i. Minimality of
    the produced set is recomputed rather than assumed.
    """
    xs, ys = _ordered_coordinates(h, ideal)
    gens = [-h.a * xs[0] - h.b * ys[-1]]
    gens.extend(h.a * (h.b - x) - h.b * y for x, y in zip(xs[1:], ys))
    return make_ideal(h.base, gens)


def dual_symmetric(s_or_h: HypersurfaceSemigroup | NumericalSemigroup,
                   ideal: RelativeIdeal) -> RelativeIdeal:
    """Dual via the reflection z in dual iff F - z not in the ideal.

    Valid exactly over symmetric semigroups.
    """
    s = s_or_h.base if isinstance(s_or_h, HypersurfaceSemigroup) else s_or_h
    _check_over(s, ideal)
    if not s.is_symmetric():
        raise ValueError(f"{s!r} is not symmetric")
    # z in [F + 1 - threshold, F + 1 - min) maps to F - z in the ideal's
    # head window, so the head is the reversed complement of its bits.
    f = s.frobenius
    own = ideal.set
    width = own.threshold - own.lo
    bits = reverse_bits(own.bits ^ ((1 << width) - 1), width)
    cset = CofiniteSet.from_bits(f + 1 - own.lo, f + 1 - own.threshold, bits)
    return _from_set(s, cset)


@dataclass(frozen=True)
class HalfMuReport:
    tau: int
    support: int
    mu_product: int
    inequality_1: bool  # tau + support >= mu(A) * mu(B)
    inequality_2: bool  # 2 * tau >= mu(A) * mu(B)


def check_half_mu_bound(h: HypersurfaceSemigroup, a: RelativeIdeal,
                        b: RelativeIdeal) -> HalfMuReport:
    """Evaluate both generator-count lower bounds on the torsion total.

    Only defined for non-principal ideals; for principal ones the
    torsion total is zero and the bounds do not apply.
    """
    _check_over(h.base, a, b)
    if a.is_principal or b.is_principal:
        raise ValueError("bounds require non-principal ideals")
    profile = TauEngine(h.base).profile(a.min_gens, b.min_gens)
    mm = a.mu * b.mu
    return HalfMuReport(
        tau=profile.total,
        support=profile.support_size,
        mu_product=mm,
        inequality_1=profile.total + profile.support_size >= mm,
        inequality_2=2 * profile.total >= mm,
    )


def torsion_generator_pairs(h: HypersurfaceSemigroup,
                            ideal: RelativeIdeal) -> int:
    """Generator pairs of (ideal, dual) that can be made torsion.

    The product ideal C = A + A* needs one generator pair per minimal
    generator it has; every remaining pair (g, g*) either sums to a
    non-generator of C or duplicates a degree already covered, and the
    corresponding tensor generator can be replaced by a torsion element.
    """
    dual = dual_formula(h, ideal)
    product = ideal_sum(ideal, dual)
    return ideal.mu * dual.mu - product.mu
