"""Irreducible arithmetic triples and the two-generated torsion check.

For a step n, the integers x with x and x + n both in S form a cofinite
set P, and those with x, x + n, x + 2n in S form T. A triple starting
at x is irreducible when x is in T but not in P + P. The count of
irreducible triples equals the torsion length of the tensor product of
the two-generated ideal (1, t^n) with its dual; the conjecture being
probed predicts a positive count for every gap n of S.

P + P = G + P for the minimal generators G of P: P + S lies in P, so
p + q = g + (s + q) whenever p = g + s. G has at most multiplicity
members, so the sum ORs a few shifted heads of P, not one per member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cofinite import CofiniteSet
from .ideals import ideal_dual, make_ideal
from .semigroup import NumericalSemigroup, _generator_bits

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


def _progressions(s: NumericalSemigroup,
                  n: int) -> tuple[CofiniteSet, CofiniteSet]:
    """{x : x, x + n in S} and {x : x, x + n, x + 2n in S}.

    Both contain every x > F. Over [0, F] they are M & (M >> n) and
    M & (M >> n) & (M >> 2n) for the membership bits M of S.
    """
    if n <= 0:
        raise ValueError(f"step must be positive, got {n}")
    t = s.frobenius + 1
    m = s.window(0, t + 2 * n)
    bits = m & (m >> n)
    return (CofiniteSet.from_bits(t, 0, bits),
            CofiniteSet.from_bits(t, 0, bits & (m >> 2 * n)))


def pairs_set(s: NumericalSemigroup, n: int) -> CofiniteSet:
    """{x : x in S and x + n in S}; contains every x > F."""
    return _progressions(s, n)[0]


def triples_set(s: NumericalSemigroup, n: int) -> CofiniteSet:
    """{x : x, x + n and x + 2n in S}; contains every x > F."""
    return _progressions(s, n)[1]


@dataclass(frozen=True)
class TripleReport:
    step: int
    pairs: CofiniteSet
    triples: CofiniteSet
    irreducible: tuple[int, ...]
    count: int


def irreducible_triples(s: NumericalSemigroup, n: int) -> TripleReport:
    """Triples (x, x+n, x+2n) in S that are not sums of two pairs.

    P + P = G + P for the minimal generators G of P, since P + S lies in
    P and each p in P is g + s; G with P's tail still sums to P + P.
    """
    p, t = _progressions(s, n)
    gens = CofiniteSet.from_bits(p.threshold, p.lo, _generator_bits(s, p))
    irr = tuple(t.difference(gens.sumset(p)))
    return TripleReport(n, p, t, irr, len(irr))


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
        if report.irreducible:
            min_irr[n] = report.irreducible[0]
    return HWReport(
        semigroup=s.generators,
        per_gap=per_gap,
        min_irreducible=min_irr,
        all_positive=all(c > 0 for c in per_gap.values()),
    )
