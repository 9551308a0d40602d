"""Torsion numbers of semigroup tensor products.

For relative ideals A, B over the same semigroup, the tensor classes
lying over an integer z correspond to connected components of a
bipartite graph on the minimal generators of A and B. The torsion
number at z is one less than the component count (floored at 0), and
the total over all z is the torsion number of the pair.

One engine computes them. `TauEngine.pack` lays a batch of right-hand
tuples out as byte-aligned lanes over every degree, and `_reps` shifts
them by each left-hand generator into one int per generator pair and
runs the bit-parallel component counter `_component_reps` on all of
them at once. Slices share a packing, so a campaign packs a semigroup's
ideals once and calls the engine once per ideal. A short tuple repeats
its last generator, which is exact: the copied right vertex has the
neighbours of the original. Torsion totals, per-degree profiles and
the component counts of a scan window all come from the engine;
`fiber_graph` states the edge rule for one degree, for display. The
independent reference uses neither the edge ints nor the counter: a
bit flood fill of the fibers by generator steps, `fiber_class_count`
over a window of degrees and `torsion_profile` over the whole scan
window.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, and_, or_
from struct import iter_unpack

from .cofinite import CofiniteSet, bit_positions, reverse_bits
from .ideals import (RelativeIdeal, _check_over, ideal_intersect, ideal_sum,
                     make_ideal)
from .semigroup import NumericalSemigroup

__all__ = [
    "FiberGraph",
    "TorsionProfile",
    "TauEngine",
    "fiber_graph",
    "torsion_profile",
    "fiber_class_count",
    "splits_torsion_free",
    "torsion_bound_with_correction",
    "graph_to_dot",
]


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


class Lanes(tuple):
    """Generator tuples with their lanes, from `TauEngine.pack`.

    A contiguous slice shares the packing: its rows are shifted down past
    the lanes it drops, and the engine masks off lanes past its end.
    """

    def __getitem__(self, key):
        part = tuple.__getitem__(self, key)
        if not isinstance(key, slice) or key.step not in (None, 1):
            return part  # a plain tuple; the engine packs it afresh
        out = Lanes(part)
        vars(out).update(vars(self))
        shift = key.indices(len(self))[0] * self.stride
        out.rows = [row >> shift for row in self.rows]
        return out


class TauEngine:
    """Torsion numbers for generator tuples over one semigroup, on bit lanes."""

    def __init__(self, s: NumericalSemigroup):
        self.s = s
        self.f = s.frobenius

    def pack(self, gbs: Sequence[tuple[int, ...]], spread: int) -> Lanes:
        """The tuples gbs as lanes, for any ga with ga[-1] - ga[0] <= spread.

        Bit w of a lane stands for degree ga[0] + min gb[0] + w, up to the
        top of every pair's scan window; the extra fibers of a pair with
        a smaller spread carry no torsion. A lane's stride, a whole number
        of bytes, leaves room for the shift by ga.
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
            rows.append(int.from_bytes(b"".join(column), "little"))
        out = Lanes(gbs)
        vars(out).update(semigroup=self.s, spread=spread, stride=8 * size,
                         lane=lane, rows=rows)
        return out

    def _reps(self, ga: tuple[int, ...], gbs: Sequence[tuple[int, ...]]
              ) -> tuple[int, int, list[int]]:
        """(stride, lane mask, reps) of (ga, gb) for gbs, a list or `Lanes`.

        Rep int i has the bits where left vertex i is the least of a
        component, so a degree's component count is the number of reps
        with its bit set.
        """
        spread = ga[-1] - ga[0]
        if not (isinstance(gbs, Lanes) and gbs.semigroup is self.s
                and gbs.spread >= spread):
            gbs = self.pack(gbs, spread)
        keep = int.from_bytes(  # the lane mask in each of len(gbs) lanes
            gbs.lane.to_bytes(gbs.stride // 8, "little") * len(gbs), "little")
        return gbs.stride, gbs.lane, _component_reps(
            [[(row << (g - ga[0])) & keep for row in gbs.rows] for g in ga])

    def tau_support_batch(self, ga: tuple[int, ...],
                          gbs: Sequence[tuple[int, ...]]
                          ) -> tuple[list[int], list[int]]:
        """(tau totals, support sizes) of (ga, gb) per gb; sorted minimal
        tuples of any lengths, as a list or as the `Lanes` of `pack`."""
        stride, _, reps = self._reps(ga, gbs)
        tau = [0] * len(gbs)
        multi = 0  # the degrees with more than one component
        # a rep past the first component at its degree adds one to tau
        for e in map(and_, reps[1:], accumulate(reps, or_)):
            tau = list(map(add, tau, _lane_counts(e, len(gbs), stride)))
            multi |= e
        return tau, _lane_counts(multi, len(gbs), stride)

    def component_counts(self, ga: tuple[int, ...],
                         gb: tuple[int, ...]) -> list[int]:
        """Fiber graph component counts of (ga, gb) over its scan window."""
        _, lane, reps = self._reps(ga, [gb])
        counts = [0] * lane.bit_length()
        for rep in reps:
            for w in bit_positions(rep):
                counts[w] += 1
        return counts

    def profile(self, ga: tuple[int, ...],
                gb: tuple[int, ...]) -> TorsionProfile:
        """Per-degree torsion numbers of (ga, gb) over its scan window."""
        lo, hi = ga[0] + gb[0], self.f + ga[-1] + gb[-1]
        by_z = {z: count - 1 for z, count in
                enumerate(self.component_counts(ga, gb), lo) if count > 1}
        return TorsionProfile((lo, hi), by_z, sum(by_z.values()), len(by_z))


def _lane_counts(bits: int, lanes: int, stride: int) -> list[int]:
    """Set bits in each byte-aligned lane of `bits`, lowest lane first."""
    view = bits.to_bytes(lanes * stride // 8, "little")
    return [int.from_bytes(lane, "little").bit_count()
            for lane, in iter_unpack(f"{stride // 8}s", view)]


@dataclass(frozen=True)
class FiberGraph:
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
    grid = [[int(z - x - y in a.semigroup) for y in b.min_gens]
            for x in a.min_gens]
    edges = frozenset((i, j) for i, row in enumerate(grid, 1)
                      for j, e in enumerate(row, 1) if e)
    # B is the union of the b_j + S, so z - a_i is in B exactly when row
    # i has an edge; symmetrically for the columns.
    lefts = tuple(sorted({i for i, _ in edges}))
    rights = tuple(sorted({j for _, j in edges}))
    return FiberGraph(z, lefts, rights, edges, sum(_component_reps(grid)))


@dataclass(frozen=True)
class TorsionProfile:
    """Torsion numbers of a pair of ideals, indexed by degree."""

    window: tuple[int, int]
    tau_by_z: dict[int, int] = field(hash=False)
    total: int = 0
    support_size: int = 0


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
    return TorsionProfile((lo, hi), by_z, sum(by_z.values()), len(by_z))


def fiber_class_count(a: RelativeIdeal, b: RelativeIdeal, lo: int,
                      hi: int) -> list[int]:
    """Tensor classes over each z in [lo, hi], by flood-filling the fibers.

    The nodes over z are the x in A with z - x in B, as bits over
    [min A, z - min B]; x and x' share a class exactly when |x - x'| is
    in S. Generator steps suffice: if x and x + s are nodes with s = g1
    + ... + gk in S, each partial sum y = x + g1 + ... + gi is a node,
    as y is in A + S, inside A, and z - y = (z - x - s) + g(i+1) + ...
    + gk is in B + S, inside B. A class grows by its newest nodes
    shifted by each generator, and by the nodes more than F away, which
    are always joined (prefix and suffix masks).

    A's bits and B's reversed bits are built once, over a frame ending
    at the last degree to fill; the nodes over z are one shift and one
    AND. Below min A + min B the fiber is empty. From z = A.threshold +
    B.threshold + 2F + 3 on the count is 1 without a fill: all of
    [A.threshold, z - B.threshold] are nodes, each more than F from one
    end of it, and the ends are more than F apart.
    """
    _check_over(a.semigroup, b)
    f, gens = a.semigroup.frobenius, a.semigroup.generators
    base = a.set.lo + b.set.lo
    cut = a.set.threshold + b.set.threshold + 2 * f + 3
    counts = [0] * (min(hi + 1, base) - lo)
    top = min(hi, cut - 1)
    if max(lo, base) <= top:
        amask = a.set.window(a.set.lo, top - b.set.lo + 1)
        rev = reverse_bits(b.set.window(b.set.lo, top - a.set.lo + 1),
                           top - base + 1)
        for z in range(max(lo, base), top + 1):
            nodes = amask & (rev >> (top - z))
            count = 0
            while nodes:
                cls = new = nodes & -nodes
                while new:
                    grown = -1 << ((new & -new).bit_length() + f)
                    below = new.bit_length() - f - 1
                    if below > 0:
                        grown |= (1 << below) - 1
                    for g in gens:
                        grown |= (new << g) | (new >> g)
                    new = grown & nodes & ~cls
                    cls |= new
                nodes &= ~cls
                count += 1
            counts.append(count)
    return counts + [1] * (hi + 1 - max(lo, cut))


def splits_torsion_free(a: RelativeIdeal, b: RelativeIdeal,
                        cap: int = 20) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Generator-split criterion for torsion freeness of the pair.

    For every proper bipartition of the generators of A into P | Q,
    tests (P meet Q) + B == (P + B) meet (Q + B). Returns (True, None)
    when all splits pass, else (False, first failing bipartition).
    """
    _check_over(a.semigroup, b)
    n = a.mu
    if n > cap:
        raise ValueError(f"{n} generators exceeds split cap {cap}")
    s = a.semigroup
    gens = a.min_gens
    # P holds gens[0], as a split and its complement agree; Q is non-empty
    for bits in range((1 << (n - 1)) - 1):
        left = [gens[0]] + [g for k, g in enumerate(gens[1:]) if bits >> k & 1]
        right = [g for k, g in enumerate(gens[1:]) if not bits >> k & 1]
        p = make_ideal(s, left)
        q = make_ideal(s, right)
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
    if not sum_set.issubset(c):
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
