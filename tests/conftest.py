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


@pytest.fixture
def oracles():
    return knapsack_members, naive_ideal_members, naive_dual_members
