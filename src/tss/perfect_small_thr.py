"""Minimum perfect target set solvers for thresholds bounded by two or three.

Both solvers first equalize the instance so every threshold is exactly the
bound t, by attaching t star gadgets: each star center gains t degree-1
leaves, and every original vertex is wired to enough centers to raise its
effective requirement to t. Every perfect target set of the equalized
instance contains all t*t star leaves, the centers then activate for free,
and original vertices behave exactly as before; minima shift by exactly t*t.

On the equalized instance a two-part search runs: part 1 brute-forces small
candidate sets in ascending size, part 2 is bounded_thr.branch_and_reduce
with degree-based reduction and branching rules, finishing each stable branch
by exhausting the free part. The counting bound (activation.counting_bound)
sets the first size of each brute force and prunes part 2's nodes that cannot
beat the incumbent.
"""

from __future__ import annotations

from functools import partial
from math import floor
from typing import Optional

from .activation import (
    bits_of, closure_mask, counting_bound, fit_table, is_perfect_target_set, mask_of, members,
    seed_masks,
)
from .activation import closure  # noqa: F401  perfbench/spans.py wraps this name
from .bounded_thr import Split, br1_split, branch_and_reduce
from .instance import Graph, Instance
from .stats import Stats

# Brute-force cutoff fractions for the two solvers: part 1 covers candidate
# sizes up to (1 - PART1_GAMMA_THR2) * n for thresholds two, and up to
# (1 - (2/3) * PART1_GAMMA_THR3) * n for thresholds three.
PART1_GAMMA_THR2 = 0.655984
PART1_GAMMA_THR3 = 0.839533


def gadget_bounded_to_equal(inst: Instance, t: int) -> Instance:
    """Equalize thresholds to exactly t by adding t star gadgets (t >= 2).

    Adds t centers with t leaves each (t*(t+1) new vertices); original vertex v
    is connected to the first t - thr(v) centers. All output thresholds are t.
    Minimum perfect target sets grow by exactly t*t (the forced star leaves).
    """
    if t < 2:
        raise ValueError("equalization target must be at least 2")
    if inst.max_threshold() > t:
        raise ValueError(f"threshold above {t} present; cannot equalize downward")
    n = inst.n
    edges = list(inst.graph.edges())
    centers = []
    for i in range(t):
        c = n + i * (t + 1)
        centers.append(c)
        for j in range(1, t + 1):
            edges.append((c, c + j))
    for v in range(n):
        for i in range(t - inst.thr[v]):
            edges.append((v, centers[i]))
    graph = Graph(n + t * (t + 1), edges)
    return Instance(graph, (t,) * graph.n)


def solve_perfect_thr2(inst: Instance, stats: Optional[Stats] = None) -> frozenset[int]:
    """Minimum perfect target set when every threshold is at most two."""
    return _solve_small_thr(inst, 2, Stats() if stats is None else stats)


def solve_perfect_thr3(inst: Instance, stats: Optional[Stats] = None) -> frozenset[int]:
    """Minimum perfect target set when every threshold is at most three."""
    return _solve_small_thr(inst, 3, Stats() if stats is None else stats)


def _solve_small_thr(inst: Instance, t: int, stats: Stats) -> frozenset[int]:
    if inst.max_threshold() > t:
        raise ValueError(f"threshold above {t} present")
    if is_perfect_target_set(inst, ()):
        return frozenset()
    eq = gadget_bounded_to_equal(inst, t)
    if t == 2:
        part1_max = floor((1.0 - PART1_GAMMA_THR2) * eq.n)
    else:
        part1_max = floor((1.0 - (2.0 / 3.0) * PART1_GAMMA_THR3) * eq.n)
    stats.part1_max_size = part1_max
    best = members(_min_perfect_equal(eq, t, part1_max, stats))
    answer = frozenset(v for v in best if v < inst.n)
    assert len(answer) == len(best) - t * t
    assert is_perfect_target_set(inst, answer)
    return answer


def _min_perfect_equal(eq: Instance, t: int, part1_max: int, stats: Stats) -> int:
    """Mask of a minimum perfect target set of an equalized (thr == t everywhere)
    gadget instance."""
    n = eq.n
    thr = eq.thr
    masks = eq.graph.neighbor_masks()
    n_orig = n - t * (t + 1)
    leaves = mask_of(v for v in range(n_orig, n) if (v - n_orig) % (t + 1) != 0)
    full_mask = (1 << n) - 1
    m = eq.graph.m
    lower = partial(counting_bound, masks, fit_table(thr), m, l=n)  # of a selection, at l = n

    # Part 1: ascending brute force from the counting bound up to part1_max. Star
    # leaves (one neighbor, threshold t >= 2) sit in every perfect target set; what
    # they activate seeds every candidate, and a minimum set holds none of it, so
    # the rest is enumerated.
    forced = closure_mask(masks, thr, leaves)
    others = bits_of(full_mask & ~forced)
    for seed in seed_masks(others, part1_max - t * t, forced, lower(leaves) - t * t):
        if closure_mask(masks, thr, seed) == full_mask:
            stats.part1_found = 1
            return leaves | (seed & ~forced)

    # Part 2: branch and reduce; the incumbent starts at the full vertex set.
    deg = [eq.graph.degree(v) for v in range(n)]
    low_degree = mask_of(v for v in range(n) if deg[v] < t)
    degree_three = mask_of(v for v in range(n) if deg[v] == 3)
    degree_four = mask_of(v for v in range(n) if deg[v] == 4)
    best = full_mask

    def rr3(free: int) -> int:
        low = free & low_degree
        stats.rr3_moves += low.bit_count()
        return low

    def prune(selected: int, free: int, act: int) -> bool:
        if lower(selected) >= best.bit_count():
            stats.bound_prunes += 1
            return True
        return closure_mask(masks, thr, act | free) != full_mask

    def r4(free: int) -> Split:
        for u, v in eq.graph.edges():
            if (free >> u) & (free >> v) & 1 and deg[u] == deg[v] == t:
                stats.r4_apps += 1
                stats.r4_children += 3
                return 1 << u | 1 << v, [1 << v, 1 << u, 1 << u | 1 << v]
        return None

    def r5(free: int) -> Split:
        for v in bits_of(free & degree_four):
            mates = bits_of(masks[v] & free & degree_three)
            if len(mates) >= 2:
                trio = sorted((mates[0], v, mates[1]))
                children = list(seed_masks(trio, 3))[1:]
                stats.r5_apps += 1
                stats.r5_children += len(children)
                return mask_of(trio), children
        return None

    def leaf(selected: int, free: int, act: int) -> None:
        # act, the closure of selected, seeds every candidate; the witness keeps selected
        nonlocal best
        if t == 2:
            # with no rule applicable the already-decided part activates everything
            assert closure_mask(masks, thr, act | (full_mask & ~free)) == full_mask
        stats.leaf_bruteforces += 1
        size = selected.bit_count()
        for seed in seed_masks(bits_of(free), best.bit_count() - size - 1, act,
                               lower(selected) - size):
            if closure_mask(masks, thr, seed) == full_mask:
                best = selected | (seed & ~act)
                return

    rules = [lambda free: br1_split(masks, thr, free, stats), r4] + ([r5] if t == 3 else [])
    branch_and_reduce(masks, thr, rules, prune, leaf, stats, rr3)
    return best
