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

The scan reads S as one int with its tail bits set: bit z says whether
z is in S, for every z >= 0. P and T are ANDs of that int shifted right
by 0, n and 2n, cut to its first w = 2F + 2 bits, the window [0, w).
P holds every x > F, so min P <= F + 1 and P + P holds every
x >= min P + F + 1, hence T minus (P + P) lies below w. Only the
members of G below F + 1 matter there: a sum g + q < w with g > F has
g + q - min P > F in P, so it is also min P + (g + q - min P), and
then min P <= F is in G. Whether x is in G reads P only below x.
The report keeps the count of T minus (P + P) and its least member;
no set is built.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .ideals import ideal_dual, make_ideal
from .semigroup import NumericalSemigroup


class RouteDisagreementError(RuntimeError):
    """The direct triple scan and the dual-quotient route disagreed."""


class TripleReport(NamedTuple):
    """The count of irreducible starts and the least one (None when
    there is none)."""

    count: int
    least: int | None


def irreducible_triples(s: NumericalSemigroup, n: int) -> TripleReport:
    """Triples (x, x+n, x+2n) in S that are not sums of two pairs.

    `member` is S as one negative int, its tail bits set, so one read
    of S serves all three shifts: P = member & (member >> n) cut to the
    window [0, 2F + 2) of the module docstring, and T = P & (member >>
    2n). A shift past F gives -1 without allocating, so the cost does
    not grow with n. G = P & ~OR(P << g) over [0, F + 1) for the
    generators g of S, and G + P ORs P shifted by each bit of G.
    S = <1> (F = -1) has member -1 and an empty window.
    """
    n = index(n)
    if n <= 0:
        raise ValueError(f"step must be positive, got {n}")
    f = s.frobenius
    member = s.bits | -(1 << (f + 1))
    p = member & (member >> n) & ((1 << (2 * f + 2)) - 1)
    tri = p & (member >> 2 * n)
    gens = head = p & ((1 << (f + 1)) - 1)
    for g in s.generators:
        gens &= ~(head << g)
    k = 0
    while gens:
        low = gens & -gens
        k |= p << (low.bit_length() - 1)
        gens ^= low
    irr = tri & ~k
    return TripleReport(irr.bit_count(),
                        (irr & -irr).bit_length() - 1 if irr else None)


def torsion_length_2gen(s: NumericalSemigroup, n: int) -> int:
    """Irreducible triple count for step n, cross-checked two ways.

    The direct scan over S is compared against the same quantity
    computed through the relative-ideal dual algebra; a mismatch means
    a bug, not bad input.
    """
    n = index(n)
    direct = irreducible_triples(s, n).count
    pair_dual = ideal_dual(make_ideal(s, [0, n])).set
    triple_dual = ideal_dual(make_ideal(s, [0, n, 2 * n])).set
    via_duals = len(triple_dual.difference(pair_dual.sumset(pair_dual)))
    if direct != via_duals:
        raise RouteDisagreementError(
            f"step {n} over {s!r}: direct scan {direct} != dual route {via_duals}"
        )
    return direct


class HWReport(NamedTuple):
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
