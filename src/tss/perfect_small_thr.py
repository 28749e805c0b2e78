"""Minimum perfect target set solvers for thresholds bounded by two or three.

Both solvers first equalize the instance so every threshold is exactly the
bound t, by attaching t star gadgets: each star center gains t degree-1
leaves, and every original vertex is wired to enough centers to raise its
effective requirement to t. Every perfect target set of the equalized
instance contains all t*t star leaves, the centers then activate for free,
and original vertices behave exactly as before; minima shift by exactly t*t.

On the equalized instance a two-part search runs: part 1 brute-forces small
candidate sets in ascending size, part 2 is branch-and-reduce over
selected / excluded / free with degree-based reduction and branching rules,
finishing each stable branch by exhausting the free part.
"""

from __future__ import annotations

from math import floor
from typing import Optional

from .activation import closure_mask, is_perfect_target_set, mask_of, members, seed_masks
from .activation import closure  # noqa: F401  perfbench/spans.py wraps this name
from .bounded_thr import br1_split
from .instance import Graph, Instance, subsets_ascending
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
    return _solve_small_thr(inst, 2, stats)


def solve_perfect_thr3(inst: Instance, stats: Optional[Stats] = None) -> frozenset[int]:
    """Minimum perfect target set when every threshold is at most three."""
    return _solve_small_thr(inst, 3, stats)


def _solve_small_thr(inst: Instance, t: int, stats: Optional[Stats]) -> frozenset[int]:
    if inst.max_threshold() > t:
        raise ValueError(f"threshold above {t} present")
    if is_perfect_target_set(inst, ()):
        return frozenset()
    eq = gadget_bounded_to_equal(inst, t)
    if t == 2:
        part1_max = floor((1.0 - PART1_GAMMA_THR2) * eq.n)
    else:
        part1_max = floor((1.0 - (2.0 / 3.0) * PART1_GAMMA_THR3) * eq.n)
    if stats is not None:
        stats.part1_max_size = part1_max
    best = _min_perfect_equal(eq, t, part1_max, stats)
    answer = frozenset(v for v in best if v < inst.n)
    assert len(answer) == len(best) - t * t
    assert is_perfect_target_set(inst, answer)
    return answer


def _min_perfect_equal(
    eq: Instance, t: int, part1_max: int, stats: Optional[Stats]
) -> frozenset[int]:
    """Minimum perfect target set of an equalized (thr == t everywhere) gadget instance."""
    n = eq.n
    thr = eq.thr
    masks = eq.graph.neighbor_masks()
    n_orig = n - t * (t + 1)
    leaves = frozenset(
        v for v in range(n_orig, n) if (v - n_orig) % (t + 1) != 0
    )
    full_mask = (1 << n) - 1

    # Part 1: ascending brute force up to part1_max. Star leaves (one neighbor,
    # threshold t >= 2) sit in every perfect target set; what they activate seeds
    # every candidate, and a minimum set holds none of it, so the rest is enumerated.
    forced = closure_mask(masks, thr, mask_of(leaves))
    others = [v for v in range(n) if not (forced >> v) & 1]
    for seed in seed_masks(others, part1_max - t * t, forced):
        if closure_mask(masks, thr, seed) == full_mask:
            if stats is not None:
                stats.part1_found = True
            return leaves | members(seed & ~forced)

    # Part 2: branch and reduce; the incumbent starts at the full vertex set.
    nbr = eq.graph.neighbor_sets()
    deg = [eq.graph.degree(v) for v in range(n)]
    best: list[frozenset[int]] = [frozenset(range(n))]

    def leaf_bruteforce(selected: frozenset[int], free: frozenset[int], act: int) -> None:
        # act, the closure of selected, seeds every candidate; the witness keeps selected
        if stats is not None:
            stats.leaf_bruteforces += 1
        limit = len(best[0]) - len(selected) - 1
        for seed in seed_masks(sorted(free), limit, act):
            if closure_mask(masks, thr, seed) == full_mask:
                best[0] = selected | members(seed & ~act)
                return

    def branch(selected: frozenset[int], excluded: frozenset[int],
               free: frozenset[int], act: int) -> None:
        # act is the parent's closure: exact as a seed, since the selection only grows
        while True:
            act = closure_mask(masks, thr, act | mask_of(selected))
            move = frozenset(v for v in free if (act >> v) & 1)
            if stats is not None:
                stats.rr1_moves += len(move)
            excluded |= move
            free -= move
            low = frozenset(v for v in free if deg[v] < t)
            if not low:
                break
            if stats is not None:
                stats.rr3_moves += len(low)
            selected |= low
            free -= low
        if len(selected) >= len(best[0]):
            return
        if closure_mask(masks, thr, act | mask_of(free)) != full_mask:
            return

        split = br1_split(nbr, thr, free)
        if split is not None:
            group, children = split
            if stats is not None:
                stats.br1_apps += 1
                stats.br1_children.append((t, len(children)))
            for to_sel, to_exc in children:
                branch(selected | to_sel, excluded | to_exc, free - group, act)
            return

        edge = next(((u, v) for u, v in eq.graph.edges()
                     if u in free and v in free and deg[u] == deg[v] == t), None)
        if edge is not None:
            u, v = edge
            children4 = [
                (frozenset({v}), frozenset({u})),
                (frozenset({u}), frozenset({v})),
                (frozenset({u, v}), frozenset()),
            ]
            if stats is not None:
                stats.r4_apps += 1
                stats.r4_children.append(len(children4))
            for to_sel, to_exc in children4:
                branch(selected | to_sel, excluded | to_exc, free - {u, v}, act)
            return

        if t == 3:
            trio = None
            for v in sorted(free):
                if deg[v] != 4:
                    continue
                mates = sorted(u for u in nbr[v] & free if deg[u] == 3)
                if len(mates) >= 2:
                    trio = (mates[0], v, mates[1])
                    break
            if trio is not None:
                group = frozenset(trio)
                children5 = [
                    (frozenset(inside), group - frozenset(inside))
                    for inside in subsets_ascending(sorted(group))
                ][1:]
                if stats is not None:
                    stats.r5_apps += 1
                    stats.r5_children.append(len(children5))
                for to_sel, to_exc in children5:
                    branch(selected | to_sel, excluded | to_exc, free - group, act)
                return

        if t == 2:
            # with no rule applicable the already-decided part activates everything
            assert closure_mask(masks, thr, act | mask_of(excluded)) == full_mask
        leaf_bruteforce(selected, free, act)

    branch(frozenset(), frozenset(), frozenset(range(n)), 0)
    return best[0]
