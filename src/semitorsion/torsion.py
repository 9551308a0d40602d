"""Torsion numbers of semigroup tensor products.

For relative ideals A, B over the same semigroup, the tensor classes
lying over an integer z correspond to connected components of a
bipartite graph on the minimal generators of A and B. The torsion
number at z is one less than the component count (floored at 0), and
the total over all z is the torsion number of the pair.

One engine computes them. `TauEngine.tau_support_batch` lays right-hand
tuples out as byte-aligned lanes over every degree, with a table of one
int per generator difference, and keeps that packing: a later call on a
suffix of the same tuples reads the same rows and table from an offset,
so a campaign's calls on a semigroup's ideals pack them once. `_reps`
reads the shared right neighbours of each pair of left-hand generators
off the table with one shift and runs the bit-parallel component counter
`_component_reps` on every lane at once. A short tuple repeats its last
generator, which is exact: the copied right vertex has the neighbours of
the original. One count reads the extra reps and their union: one
multiply sums the byte popcounts of all lanes up to 248 bits (8k < 256
for k bytes); wider lanes, such as the 368-bit ones of <11,29>, count
one by one. `profile` builds one lane of a pair over its scan window
and sums its reps as byte digits; `fiber_graph` states the edge rule
for one degree. The independent reference uses neither the engine's
ints nor the counter: a bit flood fill of the fibers by generator
steps, one lane per degree, the lanes built by doubling shifts,
`fiber_class_count` over a window and `torsion_profile` over the scan
window. Both routes give a `TorsionProfile` (a `NamedTuple`, as are all
records, free of `dataclasses`): the class count at each degree of the
window, compared by one `==`; the torsion numbers are read off it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from itertools import accumulate
from operator import add, and_, index, lt, or_
from struct import iter_unpack, unpack
from typing import NamedTuple

from .cofinite import _DIGITS, CofiniteSet, reverse_bits
from .ideals import (RelativeIdeal, _check_over, ideal_intersect, ideal_sum,
                     make_ideal)
from .semigroup import NumericalSemigroup


def _component_reps(reach: list[list[int]]) -> list[int]:
    """Least-indexed left vertex of each component, for many graphs at once.

    Bit p of `reach[i][k]`, a symmetric matrix, says that left vertices i
    and k share a right neighbour in graph p (i is present if k = i). Each
    present vertex carries an edge, so the components are the classes of
    `reach` closed in place (Warshall on bits), each pair k < i apart from
    m set once through m, and mirrored: reach[i][m] is in reach[m][m]. Rep
    i has bit p when i is the least vertex of its component in graph p.
    """
    for m, via_m in enumerate(reach):
        for i in range(1, len(reach)):
            if i != m and (via := via_m[i]):
                row = reach[i]
                for k in range(i):
                    if k != m:
                        row[k] = reach[k][i] = row[k] | via & via_m[k]
    return [row[i] & ~reduce(or_, row[:i], 0) for i, row in enumerate(reach)]


def _check_ascending(*tuples: Sequence[int]) -> list[tuple[int, ...]]:
    """The tuples as plain ints, each non-empty and strictly ascending."""
    out = []
    for gens in tuples:
        gens = tuple(map(index, gens))
        if not gens:
            raise ValueError("a generator tuple must not be empty")
        if not all(map(lt, gens, gens[1:])):
            raise ValueError(f"{gens} is not strictly ascending")
        out.append(gens)
    return out


class TauEngine:
    """Torsion numbers of ideals or tuples over one semigroup, on bit lanes."""

    def __init__(self, s: NumericalSemigroup):
        self.s = s
        self.f = s.frobenius
        # the last `_pack`: tuples, spread, stride, lane mask, rows, table
        self._packed: tuple = ((), -1)  # none yet: any ga packs

    def _pack(self, gbs: tuple[tuple[int, ...], ...], spread: int) -> tuple:
        """The tuples gbs as lanes, for any ga with ga[-1] - ga[0] <= spread.

        Bit w of a lane stands for degree ga[0] + min gb[0] + w, up to the
        top of every pair's scan window; the extra fibers of a pair with
        a smaller spread carry no torsion. A lane's stride, a whole number
        of bytes, leaves room for the shift by ga; lane 0 starts at bit
        `spread`, so that `_reps` shifts right only. Row j holds generator
        j of each tuple; the lane mask starts at bit 0.
        """
        base = min(gb[0] for gb in gbs)
        width = self.f + spread + max(gb[-1] for gb in gbs) - base + 1
        size = (width + spread + 8) // 8  # bytes per lane
        member, lane = self.s.window(0, width), (1 << width) - 1
        chunks: dict[int, bytes] = {}
        rows = []
        for j in range(max(map(len, gbs))):
            column = []
            for gb in gbs:
                g = gb[j] if j < len(gb) else gb[-1]  # pad with a copy
                if g not in chunks:
                    # bit w of the lane of g: base + w - g is a member
                    chunks[g] = ((member << (g - base)) & lane).to_bytes(
                        size, "little")
                column.append(chunks[g])
            rows.append(int.from_bytes(b"".join(column), "little") << spread)
        return gbs, spread, 8 * size, int.from_bytes(
            lane.to_bytes(size, "little") * len(gbs), "little"), rows, {}

    def _reps(self, ga: tuple[int, ...], rows: Sequence[int],
              table: dict[int, int], offset: int, keep: int) -> list[int]:
        """`_component_reps` of (ga, gb) on `rows` cut to `keep`, lane 0 at
        bit `offset` >= ga's spread. As (r << s) & (r << t) = (r & r << (s
        - t)) << t, vertices i >= k share table[ga[i] - ga[k]] >> (offset -
        ga[k] + ga[0]); table[d], added if missing, is OR of r & r << d."""
        top, reach = offset + ga[0], [[0] * len(ga) for _ in ga]
        for i, g in enumerate(ga):
            for k, h in enumerate(ga[:i + 1]):
                if (shared := table.get(g - h)) is None:
                    shared = table[g - h] = reduce(
                        or_, [r & r << (g - h) for r in rows], 0)
                reach[i][k] = reach[k][i] = shared >> (top - h) & keep
        return _component_reps(reach)

    def tau_support_batch(self, ga: tuple[int, ...],
                          gbs: Sequence[tuple[int, ...]]) -> tuple[
                              list[int], list[int]]:
        """(tau totals, support sizes) of (ga, gb) for each gb of gbs.

        When gbs are the packed tuples from some p on, and ga's spread fits
        the packed spread, the call reads the packed rows and table from
        lane p up; any other call packs gbs for the larger of ga's spread
        and the widest gb's. One lane count reads the support and each
        extra rep, end to end.
        """
        (ga,), gbs = _check_ascending(ga), tuple(gbs)
        if not gbs:
            return [], []
        packed, spread = self._packed, ga[-1] - ga[0]
        p = len(packed[0]) - len(gbs)
        if p < 0 or spread > packed[1] or packed[0][p:] != gbs:
            gbs = tuple(_check_ascending(*gbs))
            packed = self._packed = self._pack(gbs, max(
                spread, *(gb[-1] - gb[0] for gb in gbs)))
            p = 0
        _, offset, stride, keep, rows, table = packed  # lane 0 at bit offset
        lanes, shift = len(gbs), p * stride
        reps = self._reps(ga, rows, table, offset + shift, keep >> shift)
        stacked = multi = 0  # multi: the degrees with more than one component
        # a rep past the first component at its degree adds one to tau
        for e in map(and_, reps[1:], accumulate(reps, or_)):
            stacked, multi = stacked << lanes * stride | e, multi | e
        counts = _lane_counts(stacked << lanes * stride | multi,
                              len(reps) * lanes, stride)  # multi's lanes first
        tau = bytes(lanes)
        for i in range(1, len(reps)):
            tau = map(add, tau, counts[i * lanes:(i + 1) * lanes])
        return list(tau), list(counts[:lanes])

    def profile(self, a: RelativeIdeal, b: RelativeIdeal) -> TorsionProfile:
        """Fiber class counts of (a, b) over its scan window, on one lane:
        the shorter tuple gives the reps, summed as byte digits."""
        _check_over(self.s, a, b)
        ga, gb = sorted((a.min_gens, b.min_gens), key=len)
        spread = ga[-1] - ga[0]
        width = self.f + spread + gb[-1] - gb[0] + 1
        member, keep = self.s.window(0, width), (1 << width) - 1
        reps = self._reps(ga, [member << (g - gb[0] + spread) for g in gb],
                          {}, spread, keep)
        counts = (0,) * width  # byte w of a rep's digits: its bit w
        for p in range(0, len(reps), _DIGIT_PASS):
            digits = sum(int.from_bytes(bin(rep)[:1:-1].encode().translate(
                _DIGITS), "little") for rep in reps[p:p + _DIGIT_PASS])
            counts = tuple(map(add, counts, digits.to_bytes(width, "little")))
        return TorsionProfile(scan_window(a, b), counts)


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
    """The fiber graph over z; its grid's shared bits feed the counter."""
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
    reach = [[reduce(or_, map(and_, x, y)) for y in grid] for x in grid]
    return FiberGraph(z, lefts, rights, edges, sum(_component_reps(reach)))


class TorsionProfile(NamedTuple):
    """Fiber class counts of a pair of ideals at each degree of `window`;
    the torsion numbers, their total and support are read off them."""

    window: tuple[int, int]
    counts: tuple[int, ...]

    @property
    def tau_by_z(self) -> dict[int, int]:
        return {z: c - 1 for z, c in enumerate(self.counts, self.window[0])
                if c > 1}

    @property
    def total(self) -> int:
        return sum(self.tau_by_z.values())

    @property
    def support_size(self) -> int:
        return len(self.tau_by_z)


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
    """Reference profile: the fiber classes of one window flood fill.

    It uses neither the engine's edge ints nor `_component_reps`, so it
    is the independent route that `TauEngine.profile` is checked against.
    """
    window = scan_window(a, b)
    return TorsionProfile(window, tuple(fiber_class_count(a, b, *window)))


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
    total = TauEngine(a.semigroup).profile(a, b).total
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
