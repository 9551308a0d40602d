"""Irreducible arithmetic triples and the two-generated torsion check.

For a step n, the integers x with x and x + n both in S form a cofinite
set P, and those with x, x + n, x + 2n in S form T. A triple starting
at x is irreducible when x is in T but not in P + P. The count of
irreducible triples equals the torsion length of the tensor product of
the two-generated ideal (1, t^n) with its dual; the conjecture being
probed predicts a positive count for every gap n of S.

P + P = G + P for the minimal generators G of P: P + S lies in P, so
p + q = g + (s + q) whenever p = g + s. G has at most multiplicity
members, so the sum ORs a few shifted copies of P, not one per member.

The scan needs only the window [0, w), w = 2F + 2, read as plain ints.
P holds every x > F, so min P <= F + 1 and P + P holds every
x >= min P + F + 1, hence T minus (P + P) lies below w. Only the
members of G below F + 1 matter there: a sum g + q < w with g > F has
g + q - min P > F in P, so it is also min P + (g + q - min P), and
then min P <= F is in G. Whether x is in G reads P only below x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cofinite import CofiniteSet, bit_positions
from .ideals import ideal_dual, make_ideal
from .semigroup import NumericalSemigroup

__all__ = [
    "TripleReport",
    "HWReport",
    "RouteDisagreementError",
    "pairs_set",
    "triples_set",
    "irreducible_triples",
    "torsion_length_2gen",
    "hw_check_semigroup",
]


class RouteDisagreementError(RuntimeError):
    """The direct triple scan and the dual-quotient route disagreed."""


def pairs_set(s: NumericalSemigroup, n: int) -> CofiniteSet:
    """{x : x in S and x + n in S}; contains every x > F."""
    return irreducible_triples(s, n).pairs


def triples_set(s: NumericalSemigroup, n: int) -> CofiniteSet:
    """{x : x, x + n and x + 2n in S}; contains every x > F."""
    return irreducible_triples(s, n).triples


class TripleReport:
    """P, T and the irreducible starts T minus (P + P) as bits over
    [0, 2F + 2), with the count and least start (None when there is
    none); the sets and the tuple are built from the bits when read."""

    __slots__ = ("step", "count", "least", "_threshold", "_p", "_tri", "_irr")

    def __init__(self, step: int, threshold: int, p: int, tri: int,
                 irr: int):
        self.step, self._threshold = step, threshold
        self._p, self._tri, self._irr = p, tri, irr
        self.count = irr.bit_count()
        self.least = (irr & -irr).bit_length() - 1 if irr else None

    @property
    def pairs(self) -> CofiniteSet:
        return CofiniteSet.from_bits(self._threshold, 0, self._p)

    @property
    def triples(self) -> CofiniteSet:
        return CofiniteSet.from_bits(self._threshold, 0, self._tri)

    @property
    def irreducible(self) -> tuple[int, ...]:
        return tuple(bit_positions(self._irr))


def irreducible_triples(s: NumericalSemigroup, n: int) -> TripleReport:
    """Triples (x, x+n, x+2n) in S that are not sums of two pairs.

    Over the window [0, 2F + 2) of the module docstring, P and T are
    ANDs of three windows of S, at 0, n and 2n, so the cost does not
    grow with n. G = P & ~OR(P << g) over [0, F + 1) for the generators
    g of S, and G + P ORs P shifted by each bit of G. S = <1> has an
    empty window.
    """
    if n <= 0:
        raise ValueError(f"step must be positive, got {n}")
    w = 2 * s.frobenius + 2
    p = s.window(0, w) & s.window(n, n + w)
    tri = p & s.window(2 * n, 2 * n + w)
    gens = head = p & ((1 << (s.frobenius + 1)) - 1)
    for g in s.generators:
        gens &= ~(head << g)
    k = 0
    while gens:
        low = gens & -gens
        k |= p << (low.bit_length() - 1)
        gens ^= low
    return TripleReport(n, s.frobenius + 1, p, tri, tri & ~k)


def torsion_length_2gen(s: NumericalSemigroup, n: int) -> int:
    """Irreducible triple count for step n, cross-checked two ways.

    The direct scan over S is compared against the same quantity
    computed through the relative-ideal dual algebra; a mismatch means
    a bug, not bad input.
    """
    direct = irreducible_triples(s, n).count
    pair_dual = ideal_dual(make_ideal(s, [0, n])).set
    triple_dual = ideal_dual(make_ideal(s, [0, n, 2 * n])).set
    via_duals = len(triple_dual.difference(pair_dual.sumset(pair_dual)))
    if direct != via_duals:
        raise RouteDisagreementError(
            f"step {n} over {s!r}: direct scan {direct} != dual route {via_duals}"
        )
    return direct


@dataclass(frozen=True)
class HWReport:
    semigroup: tuple[int, ...]
    per_gap: dict[int, int]
    min_irreducible: dict[int, int]
    all_positive: bool

    def to_json_dict(self) -> dict:
        return {
            "semigroup": list(self.semigroup),
            "gaps": [
                {"n": n, "count": c,
                 "min_irreducible": self.min_irreducible.get(n)}
                for n, c in sorted(self.per_gap.items())
            ],
            "all_positive": self.all_positive,
        }


def hw_check_semigroup(s: NumericalSemigroup) -> HWReport:
    """Irreducible triple counts for every gap of S.

    A zero count for some gap would exhibit a two-generated monomial
    ideal whose tensor with its dual is torsion-free; none is known.
    """
    per_gap = {}
    min_irr = {}
    for n in s.gaps():
        report = irreducible_triples(s, n)
        per_gap[n] = report.count
        if report.least is not None:
            min_irr[n] = report.least
    return HWReport(
        semigroup=s.generators,
        per_gap=per_gap,
        min_irreducible=min_irr,
        all_positive=all(c > 0 for c in per_gap.values()),
    )
