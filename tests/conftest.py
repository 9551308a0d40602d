"""Shared brute-force oracles, kept independent of the library internals."""

from __future__ import annotations

import pytest


def knapsack_members(gens: list[int], bound: int) -> set[int]:
    """Non-negative integer combinations of gens up to bound, by BFS."""
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y <= bound and y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def naive_ideal_members(semi_gens: list[int], ideal_gens: list[int],
                        bound: int) -> set[int]:
    """Union of g + S truncated at bound, built from scratch."""
    base = knapsack_members(semi_gens, bound - min(ideal_gens))
    return {g + s for g in ideal_gens for s in base if g + s <= bound}


def naive_dual_members(semi_gens: list[int], ideal_gens: list[int],
                       lo: int, hi: int) -> set[int]:
    """{z in [lo, hi] : z + every ideal generator is a combination}."""
    top = hi + max(ideal_gens)
    base = knapsack_members(semi_gens, top)
    return {
        z for z in range(lo, hi + 1)
        if all(z + g >= 0 and (z + g) in base for g in ideal_gens)
    }


def naive_fiber_classes(semi_gens: list[int], gens_a: list[int],
                        gens_b: list[int], z: int) -> int:
    """Tensor classes over z, by breadth-first search over a Python set.

    The nodes are the x in A with z - x in B; x and x' are linked when
    |x - x'| is a non-negative combination of the semigroup generators.
    """
    in_a = naive_ideal_members(semi_gens, gens_a, z - min(gens_b))
    in_b = naive_ideal_members(semi_gens, gens_b, z - min(gens_a))
    unseen = {x for x in in_a if z - x in in_b}
    members = knapsack_members(semi_gens, z - min(gens_a) - min(gens_b))
    classes = 0
    while unseen:
        classes += 1
        frontier = [unseen.pop()]
        while frontier:
            x = frontier.pop()
            linked = {y for y in unseen if abs(x - y) in members}
            unseen -= linked
            frontier.extend(linked)
    return classes


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) of integer row vectors, by Gauss-Jordan elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = pow(rows[rank][col], -1, p)
        rows[rank] = [x * scale % p for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [(x - row[col] * y) % p
                           for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def naive_betti_1(semi_gens: list[int], ideal_gens: list[int],
                  p: int = 32003) -> int:
    """beta_1(B) over GF(p): the minimal relations of the ideal B, by degree.

    The free cover F has a basis vector e_j per minimal generator b_j of
    B, in degree b_j. So F_z has the basis J_z = {j : z - b_j in S}, and
    the relations K_z are the sum-zero vectors on J_z. (mK)_z is spanned
    by the K_{z-n}, one for each generator n of S, embedded along
    J_{z-n} in J_z. Then beta_1 = sum over z of dim K_z - rank (mK)_z.
    Past max b_j + conductor + n for the least n, J_{z-n} = J_z, so
    every later degree adds nothing.
    """
    n_lo, n_hi = min(semi_gens), max(semi_gens)
    members = knapsack_members(semi_gens, n_lo * n_hi)  # F < n_lo * n_hi
    conductor = 1 + max((x for x in range(n_lo * n_hi) if x not in members),
                        default=-1)
    top = max(ideal_gens) + conductor + n_lo
    members = knapsack_members(semi_gens, top - min(ideal_gens))
    gens = sorted({g for g in ideal_gens if not any(
        g != h and g - h in members for h in ideal_gens)})

    supports = {z: [j for j, g in enumerate(gens) if z - g in members]
                for z in range(gens[0], top)}  # J_z, empty below gens[0]
    total = 0
    for z, j_z in supports.items():
        below = [supports.get(z - n, []) for n in semi_gens]
        if len(j_z) < 2 or j_z in below:  # K_z is 0, or one K_{z-n}
            continue
        column = {j: i for i, j in enumerate(j_z)}
        rows = []
        for j_below in below:
            for j in j_below[1:]:  # e_first - e_j span K_{z-n}
                row = [0] * len(j_z)
                row[column[j_below[0]]], row[column[j]] = 1, -1
                rows.append(row)
        total += len(j_z) - 1 - rank_mod_p(rows, p)
    return total


class Index:
    """An integer type with only `__index__`, as numpy's integers have."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.fixture
def oracles():
    return knapsack_members, naive_ideal_members, naive_dual_members
