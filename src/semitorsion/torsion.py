"""Torsion numbers of semigroup tensor products.

For relative ideals A, B over the same semigroup, the tensor classes
lying over an integer z correspond to connected components of a
bipartite graph on the minimal generators of A and B. The torsion
number at z is one less than the component count (floored at 0), and
the total over all z is the torsion number of the pair.

One engine computes them. `TauEngine.pack` lays right-hand tuples out
as a `Batch` of byte-aligned lanes over every degree, and `_reps` shifts
its rows by each left-hand generator into one int per generator pair
and runs the bit-parallel component counter `_component_reps` on all of
them at once. `Batch.suffix` drops lanes by a shift, so a campaign
packs a semigroup's ideals once and calls the engine once per ideal.
A short tuple repeats its last generator, which is exact: the copied
right vertex has the neighbours of the original. One multiply sums the
byte popcounts of every lane up to 248 bits (k bytes sum to at most
8k < 256, no carry); wider lanes, such as the 368-bit ones of <11,29>,
count one by one. `component_counts` builds one lane over a scan
window and sums its reps as byte digits, a byte per degree;
`fiber_graph` states the edge rule for one degree, for display. The
independent reference uses neither the edge ints nor the counter: a
bit flood fill of the fibers by generator steps, one lane per degree,
the lanes built by doubling shifts, `fiber_class_count` over a window
and `torsion_profile` over the scan window. The records are
`NamedTuple`s and `Batch` a frozen plain class, free of `dataclasses`;
a `TorsionProfile` holds only its window and its degrees.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate
from operator import add, and_, index, or_
from struct import iter_unpack, unpack
from typing import NamedTuple

from .cofinite import _DIGITS, CofiniteSet, reverse_bits
from .ideals import (RelativeIdeal, _check_over, ideal_intersect, ideal_sum,
                     make_ideal)
from .semigroup import NumericalSemigroup


def _component_reps(edges: list[list[int]]) -> list[int]:
    """Least-indexed left vertex of each component, for many graphs at once.

    `edges[i][j]` is an int whose bit p says that left vertex i and
    right vertex j are joined in graph p. Every vertex present in a
    graph must carry an edge there, so each component holds a left
    vertex and the components are the classes of "share a right
    neighbour" closed over the left vertices (Floyd-Warshall on bits).
    Bit p of entry i of the result is set when left vertex i is present
    in graph p and no lower-indexed left vertex shares its component.
    """
    n = len(edges)
    reach = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i + 1):
            shared = 0
            for x, y in zip(edges[i], edges[k]):
                shared |= x & y
            reach[i][k] = reach[k][i] = shared
    for m in range(n):
        via_m = reach[m]
        for row in reach:
            via = row[m]
            if via:
                for k in range(n):
                    row[k] |= via & via_m[k]
    reps = []
    for i, row in enumerate(reach):
        lower = 0
        for k in range(i):
            lower |= row[k]
        reps.append(row[i] & ~lower)
    return reps


class Batch:
    """Generator tuples as lanes, from `TauEngine.pack`: row j holds
    generator j of each tuple, and `keep` is the lane mask in each lane."""

    __slots__ = ("semigroup", "gbs", "spread", "stride", "keep", "rows")

    def __init__(self, semigroup: NumericalSemigroup,
                 gbs: tuple[tuple[int, ...], ...], spread: int, stride: int,
                 keep: int, rows: tuple[int, ...]) -> None:
        for name, value in zip(Batch.__slots__, (semigroup, gbs, spread,
                                                 stride, keep, rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Batch")

    def __len__(self) -> int:
        return len(self.gbs)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.gbs)

    def suffix(self, p: int) -> Batch:
        """The batch of gbs[p:], its lanes shifted down past the first p."""
        shift = p * self.stride
        rows = tuple(row >> shift for row in self.rows)
        return Batch(self.semigroup, self.gbs[p:], self.spread, self.stride,
                     self.keep >> shift, rows)


class TauEngine:
    """Torsion numbers for generator tuples over one semigroup, on bit lanes."""

    def __init__(self, s: NumericalSemigroup):
        self.s = s
        self.f = s.frobenius

    def pack(self, gbs: Sequence[tuple[int, ...]], spread: int) -> Batch:
        """The tuples gbs as lanes, for any ga with ga[-1] - ga[0] <= spread.

        Bit w of a lane stands for degree ga[0] + min gb[0] + w, up to the
        top of every pair's scan window; the extra fibers of a pair with
        a smaller spread carry no torsion. A lane's stride, a whole number
        of bytes, leaves room for the shift by ga.
        """
        base = min((gb[0] for gb in gbs), default=0)
        top = max((gb[-1] for gb in gbs), default=0)
        width = self.f + spread + top - base + 1
        size = (width + spread + 8) // 8  # bytes per lane
        member, lane = self.s.window(0, width), (1 << width) - 1
        chunks: dict[int, bytes] = {}
        rows = []
        for j in range(max(map(len, gbs), default=0)):
            column = []
            for gb in gbs:
                g = gb[j] if j < len(gb) else gb[-1]  # pad with a copy
                if g not in chunks:
                    # bit w of the lane of g: base + w - g is a member
                    chunks[g] = ((member << (g - base)) & lane).to_bytes(
                        size, "little")
                column.append(chunks[g])
            rows.append(int.from_bytes(b"".join(column), "little"))
        return Batch(self.s, tuple(gbs), spread, 8 * size, int.from_bytes(
            lane.to_bytes(size, "little") * len(gbs), "little"), tuple(rows))

    def _reps(self, ga: tuple[int, ...], rows: Sequence[int],
              keep: int) -> list[int]:
        """`_component_reps` of (ga, gb) on the lanes of `rows` cut to `keep`:
        a degree's component count is the number of reps with its bit set."""
        return _component_reps(
            [[(row << (g - ga[0])) & keep for row in rows] for g in ga])

    def tau_support_batch(self, ga: tuple[int, ...],
                          batch: Batch) -> tuple[list[int], list[int]]:
        """(tau totals, support sizes) of (ga, gb) for each gb of `batch`,
        which `pack` laid out over this semigroup for ga's spread or more."""
        if batch.semigroup != self.s or ga[-1] - ga[0] > batch.spread:
            raise ValueError(f"batch not packed over {self.s.generators} "
                             f"for a spread of {ga[-1] - ga[0]}")
        lanes, stride = len(batch), batch.stride
        reps = self._reps(ga, batch.rows, batch.keep)
        tau = [0] * lanes
        multi = 0  # the degrees with more than one component
        # a rep past the first component at its degree adds one to tau
        for e in map(and_, reps[1:], accumulate(reps, or_)):
            tau = list(map(add, tau, _lane_counts(e, lanes, stride)))
            multi |= e
        return tau, list(_lane_counts(multi, lanes, stride))

    def component_counts(self, ga: tuple[int, ...],
                         gb: tuple[int, ...]) -> list[int]:
        """Fiber graph component counts of (ga, gb) over its scan window."""
        ga, gb = (gb, ga) if len(gb) < len(ga) else (ga, gb)  # symmetric
        width = self.f + ga[-1] - ga[0] + gb[-1] - gb[0] + 1
        member, keep = self.s.window(0, width), (1 << width) - 1
        reps = self._reps(ga, [member << (g - gb[0]) for g in gb], keep)
        counts = [0] * width  # byte w of a rep's digits: its bit w
        for p in range(0, len(reps), _DIGIT_PASS):
            digits = sum(int.from_bytes(bin(rep)[:1:-1].encode().translate(
                _DIGITS), "little") for rep in reps[p:p + _DIGIT_PASS])
            counts = list(map(add, counts, digits.to_bytes(width, "little")))
        return counts

    def profile(self, ga: tuple[int, ...],
                gb: tuple[int, ...]) -> TorsionProfile:
        """Per-degree torsion numbers of (ga, gb) over its scan window."""
        lo, hi = ga[0] + gb[0], self.f + ga[-1] + gb[-1]
        by_z = {z: count - 1 for z, count in
                enumerate(self.component_counts(ga, gb), lo) if count > 1}
        return TorsionProfile((lo, hi), by_z)


_DIGIT_PASS = 255  # reps a byte-digit sum adds with no carry
_POPCOUNT = bytes(b.bit_count() for b in range(256))


def _lane_counts(bits: int, lanes: int, stride: int) -> Sequence[int]:
    """Set bits in each byte-aligned lane of `bits`, lowest lane first.

    Byte popcounts times the k-byte repunit sum each k-byte lane in its
    top byte (SWAR): at most 8k, which cannot carry while stride <= 248.
    """
    k = stride // 8
    view = bits.to_bytes(lanes * k, "little")
    if stride > 248:
        return [int.from_bytes(lane, "little").bit_count()
                for lane, in iter_unpack(f"{k}s", view)]
    sums = int.from_bytes(view.translate(_POPCOUNT), "little")
    sums *= int.from_bytes(b"\1" * k, "little")
    return sums.to_bytes((lanes + 1) * k, "little")[k - 1:lanes * k:k]


class FiberGraph(NamedTuple):
    """Bipartite graph over z: v_i for generators of A, w_j for B.

    Vertex indices are 1-based. v_i is present when z - a_i lies in B,
    w_j when z - b_j lies in A, and the edge (i, j) when z - a_i - b_j
    lies in the semigroup. Every present vertex carries an edge.
    """

    z: int
    left_vertices: tuple[int, ...]
    right_vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    component_count: int


def fiber_graph(a: RelativeIdeal, b: RelativeIdeal, z: int) -> FiberGraph:
    _check_over(a.semigroup, b)
    z = index(z)
    grid = [[int(z - x - y in a.semigroup) for y in b.min_gens]
            for x in a.min_gens]
    edges = frozenset((i, j) for i, row in enumerate(grid, 1)
                      for j, e in enumerate(row, 1) if e)
    # B is the union of the b_j + S, so z - a_i is in B exactly when row
    # i has an edge; symmetrically for the columns.
    lefts = tuple(sorted({i for i, _ in edges}))
    rights = tuple(sorted({j for _, j in edges}))
    return FiberGraph(z, lefts, rights, edges, sum(_component_reps(grid)))


class TorsionProfile(NamedTuple):
    """Positive torsion numbers of a pair of ideals by degree in `window`;
    the total and the support size are read off them."""

    window: tuple[int, int]
    tau_by_z: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.tau_by_z.values())

    @property
    def support_size(self) -> int:
        return len(self.tau_by_z)

    def __hash__(self) -> int:  # the dict is compared, not hashed
        return hash((self.window, self.total, self.support_size))


def scan_window(a: RelativeIdeal, b: RelativeIdeal) -> tuple[int, int]:
    """Closed z-interval outside which the torsion number vanishes.

    Below min(A) + min(B) the fiber is empty. Above F + max + max every
    z - a_i - b_j exceeds the Frobenius number, so the graph is complete
    bipartite and connected.
    """
    f = a.semigroup.frobenius
    return (a.min_gens[0] + b.min_gens[0],
            f + a.min_gens[-1] + b.min_gens[-1])


def torsion_profile(a: RelativeIdeal, b: RelativeIdeal) -> TorsionProfile:
    """Reference profile: fiber classes minus one, one window flood fill.

    It uses neither the engine's edge ints nor `_component_reps`, so it
    is the independent route that `TauEngine.profile` is checked against.
    """
    lo, hi = scan_window(a, b)
    by_z = {z: count - 1 for z, count in
            enumerate(fiber_class_count(a, b, lo, hi), lo) if count > 1}
    return TorsionProfile((lo, hi), by_z)


_LANE_BITS = 1 << 15  # bits of fill lanes per int: 4 KB stays in cache


def fiber_class_count(a: RelativeIdeal, b: RelativeIdeal, lo: int,
                      hi: int) -> list[int]:
    """Tensor classes over each z in [lo, hi], by flood-filling the fibers.

    The nodes over z are the x in A with z - x in B, as bits over
    [min A, z - min B]; x and x' share a class exactly when |x - x'| is
    in S. Generator steps suffice: if x and x + s are nodes with s = g1
    + ... + gk in S, each partial sum y = x + g1 + ... + gi is a node,
    as y is in A + S, inside A, and z - y = (z - x - s) + g(i+1) + ...
    + gk is in B + S, inside B. So no mask joins nodes more than F
    apart: on lanes it costs more per round than the rounds it saves.

    Each z has a byte-aligned lane of A's bits AND rev >> (top - z), rev B's
    reversed bits: copies of rev stride + 1 apart, made by doubling shifts
    (not a repunit multiply, which costs stride times the bits), take one
    shift for all lanes, and one fill grows them all. A lane spans the frame
    plus the largest generator (not F: over <3,4,5> each exceeds F), so a
    step stays in its lane or lands in the pad, which holds no node, nor
    does the top bit, the guard. With bit 0 of each lane in `ones`,
    (rest | guard) - ones borrows inside lanes only (SWAR): it clears each
    lane's lowest node and keeps the guard of each lane with nodes. So an
    outer round seeds every unfinished lane and adds 1 to its lane of the
    counter. Ints of at most `_LANE_BITS` bits keep wide windows in cache.

    Below min A + min B the fiber is empty. From z = A.threshold +
    B.threshold + 2F + 3 on the count is 1 without a fill: all of
    [A.threshold, z - B.threshold] are nodes, each more than F from one
    end of it, and the ends are more than F apart.
    """
    _check_over(a.semigroup, b)
    lo, hi = index(lo), index(hi)
    gens = a.semigroup.generators
    base = a.set.lo + b.set.lo
    cut = a.set.threshold + b.set.threshold + 2 * a.semigroup.frobenius + 3
    counts = [0] * (min(hi + 1, base) - lo)
    first, top = max(lo, base), min(hi, cut - 1)
    if first <= top:
        amask = a.set.window(a.set.lo, top - b.set.lo + 1)
        rev = reverse_bits(b.set.window(b.set.lo, top - a.set.lo + 1),
                           top - base + 1)
        size = max(4, (top - base + max(gens) + 8) // 8)  # bytes per lane
        stride, span = 8 * size, 8 * size + 1  # span: copy to copy
        step = min(max(1, _LANE_BITS // stride), top + 1 - first)  # lanes
        ones = int.from_bytes((1).to_bytes(size, "little") * step, "little")
        arep = int.from_bytes(amask.to_bytes(size, "little") * step, "little")
        guard, revs, spaced, k = ones << (stride - 1), rev, 1, span
        while k < step * span:  # doubles the k // span copies of rev and 1
            revs, spaced, k = revs | revs << k, spaced | spaced << k, 2 * k
        for z0 in range(first, top + 1, step):
            # lane i keeps [0, z0 + i - base], not the low bits of copy i +
            # 1; lanes past top, in the last block, are dropped at the end
            keep = (spaced << (z0 - base + 1)) - ones
            rest, tally = (revs >> (top - z0)) & keep & arep, 0
            while rest:
                low = (rest | guard) - ones
                tally += (low & guard) >> (stride - 1)
                new = rest & ~low  # the lowest node of every lane
                rest ^= new
                while new:
                    grown = 0
                    for g in gens:
                        grown |= (new << g) | (new >> g)
                    new = grown & rest
                    rest ^= new
            counts += unpack("<" + f"I{size - 4}x" * step,
                             tally.to_bytes(size * step, "little"))
    return counts[:top + 1 - lo] + [1] * (hi + 1 - max(lo, cut))


_SPLIT_CAP = 20  # generators of A: 2^(n-1) - 1 splits are tried


def splits_torsion_free(a: RelativeIdeal, b: RelativeIdeal) -> tuple[
        bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Generator-split criterion for torsion freeness of the pair.

    For every proper bipartition of the generators of A into P | Q,
    tests (P meet Q) + B == (P + B) meet (Q + B). Returns (True, None)
    when all splits pass, else (False, first failing bipartition).
    """
    _check_over(a.semigroup, b)
    s, gens, n = a.semigroup, a.min_gens, a.mu
    if n > _SPLIT_CAP:
        raise ValueError(f"{n} generators exceeds split cap {_SPLIT_CAP}")
    # P holds gens[0], as a split and its complement agree; Q is non-empty
    for bits in range((1 << (n - 1)) - 1):
        left = [gens[0]] + [g for k, g in enumerate(gens[1:]) if bits >> k & 1]
        right = [g for k, g in enumerate(gens[1:]) if not bits >> k & 1]
        p, q = make_ideal(s, left), make_ideal(s, right)
        lhs = ideal_sum(ideal_intersect(p, q), b)
        rhs = ideal_intersect(ideal_sum(p, b), ideal_sum(q, b))
        if lhs != rhs:
            return False, (tuple(left), tuple(right))
    return True, None


def torsion_bound_with_correction(a: RelativeIdeal, b: RelativeIdeal,
                                  c: CofiniteSet) -> int:
    """Torsion total minus the correction |c \\ (a+b)|.

    `c` must contain the sum ideal's set (it plays the role of a product
    set that may be strictly larger than the sum of the summand sets).
    """
    _check_over(a.semigroup, b)
    total = TauEngine(a.semigroup).profile(a.min_gens, b.min_gens).total
    sum_set = ideal_sum(a, b).set
    if sum_set.difference(c):
        raise ValueError("correction set does not contain the sum ideal")
    return total - len(c.difference(sum_set))


def graph_to_dot(g: FiberGraph) -> str:
    """DOT rendering with vertex names v1..vm and w1..wn."""
    lines = [f'graph fiber_{g.z} {{']
    for i in g.left_vertices:
        lines.append(f"  v{i};")
    for j in g.right_vertices:
        lines.append(f"  w{j};")
    for i, j in sorted(g.edges):
        lines.append(f"  v{i} -- w{j};")
    lines.append("}")
    return "\n".join(lines)
