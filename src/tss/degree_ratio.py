"""Small perfect target sets from vertex orderings, and the decision solver
for instances whose thresholds stay within one third of the degree (rounded up).

For any ordering of the vertices, taking every vertex that sees fewer earlier
neighbors than its threshold yields a perfect target set: activation sweeps
the ordering left to right. Under the degree/3 threshold cap a random ordering
lands each vertex in the set with probability thr(v)/(deg(v)+1), giving an
expected size of at most 0.45n on connected graphs with at least 3 vertices,
so a set within floor(0.45n) always exists and sampling finds one quickly.
"""

from __future__ import annotations

import random
import warnings
from math import floor
from typing import Optional, Sequence

from .activation import (closure_mask, first_reaching, is_perfect_target_set, mask_of, members,
                         seed_masks)
from .instance import Instance

SIZE_FRACTION = 0.45
SAMPLES_PER_VERTEX = 64
EXHAUSTIVE_FALLBACK_N = 12


def pts_from_permutation(inst: Instance, order: Sequence[int]) -> frozenset[int]:
    """Vertices with fewer earlier neighbors (under order) than their threshold.

    The result is a perfect target set for every permutation and any thresholds.
    """
    n = inst.n
    pos = [-1] * n
    for i, v in enumerate(order):
        if not (0 <= v < n) or pos[v] >= 0:
            raise ValueError("order is not a permutation of the vertices")
        pos[v] = i
    if len(order) != n:
        raise ValueError("order is not a permutation of the vertices")
    nbr = inst.graph.neighbor_sets()
    return frozenset(
        v for v in range(n)
        if sum(1 for u in nbr[v] if pos[u] < pos[v]) < inst.thr[v]
    )


def construct_small_pts(inst: Instance, seed: int = 0) -> frozenset[int]:
    """A perfect target set of size at most floor(0.45n).

    Requires a connected graph, n >= 3, and thr(v) <= ceil(deg(v)/3) for all v.
    When more than half the vertices of a part have degree one, a vertex with
    two degree-one neighbors is taken, and each component of what remains with
    at least 3 vertices becomes a part of its own (the smaller ones activate for
    free once the vertex is active); otherwise random orderings of the part are
    sampled (up to 64n, seeded). If sampling misses the bound, small parts fall
    back to exhaustive bounded-size search; larger ones keep the best sample
    found with a warning. The parts wait on an explicit stack, components pushed
    last-first, so they are solved depth-first in component order and depth is
    no limit.
    """
    if not inst.graph.is_connected():
        raise ValueError("graph must be connected")
    if inst.n < 3:
        raise ValueError("need at least 3 vertices")
    _check_ratio(inst)
    rng = random.Random(seed)
    chosen: set[int] = set()
    parts = [(inst, list(range(inst.n)))]  # a part and its vertices' ids in inst
    while parts:
        part, ids = parts.pop()
        n = part.n
        deg = [part.graph.degree(v) for v in range(n)]
        n1 = deg.count(1)
        if n == 3:
            chosen.add(ids[0])
        elif n1 > n - n1:
            nbr = part.graph.neighbor_sets()
            # more degree-one vertices than others forces a vertex with two of them
            pick = next(v for v in range(n) if sum(1 for u in nbr[v] if deg[u] == 1) >= 2)
            chosen.add(ids[pick])
            rest_graph, old_ids = part.graph.induced(set(range(n)) - {pick})
            rest_thr = [max(0, part.thr[old] - (old in nbr[pick])) for old in old_ids]
            for comp in reversed(rest_graph.components()):
                if len(comp) >= 3:
                    comp_graph, comp_ids = rest_graph.induced(comp)
                    parts.append((Instance(comp_graph, tuple(rest_thr[i] for i in comp_ids)),
                                  [ids[old_ids[i]] for i in comp_ids]))
        else:
            chosen.update(ids[v] for v in _sample(part, rng))
    result = frozenset(chosen)
    assert is_perfect_target_set(inst, result)
    return result


def _sample(inst: Instance, rng: random.Random) -> frozenset[int]:
    """The first sampled ordering's set within floor(0.45n), else the
    exhaustive search's first seed (n <= 12) or the best sample."""
    n = inst.n
    bound = floor(SIZE_FRACTION * n)
    best: Optional[frozenset[int]] = None
    for _ in range(SAMPLES_PER_VERTEX * n):
        order = list(range(n))
        rng.shuffle(order)
        cand = pts_from_permutation(inst, order)
        if best is None or len(cand) < len(best):
            best = cand
        if len(best) <= bound:
            return best
    assert best is not None
    if n <= EXHAUSTIVE_FALLBACK_N:
        seed, _ = first_reaching(inst.graph.neighbor_masks(), inst.thr, range(n), bound, n)
        if seed is None:
            raise RuntimeError("no perfect target set within the size bound; precondition violated?")
        return members(seed)
    warnings.warn(
        f"ordering samples exceeded the floor(0.45n) bound (best {len(best)} > {bound})",
        RuntimeWarning,
    )
    return best


def solve_ratio_tss(inst: Instance, k: int, l: int) -> Optional[frozenset[int]]:
    """Decision solver under the degree/3 threshold cap: X with |X| <= k, >= l activated.

    Components of size >= 3 admit a perfect target set within 0.45n, so only
    selections of at most floor(0.45n) vertices inside them need considering;
    the remaining budget goes greedily to inactive two-vertex components, each
    pick activating exactly two vertices. Isolated vertices have threshold 0
    under the cap, so they activate for free.
    """
    _check_ratio(inst)
    if k < 0 or l < 0:
        raise ValueError("budget and target must be non-negative")
    n = inst.n
    if l > n:
        return None
    masks = inst.graph.neighbor_masks()
    comps = inst.graph.components()
    big_vertices = sorted(v for c in comps if len(c) >= 3 for v in c)
    pair_heads = [c[0] for c in comps if len(c) == 2]
    bound = min(floor(SIZE_FRACTION * n), k)
    for seed in seed_masks(big_vertices, bound):
        act = closure_mask(masks, inst.thr, seed)
        if act.bit_count() >= l:
            return members(seed)
        picks = [v for v in pair_heads if not (act >> v) & 1][: k - seed.bit_count()]
        if picks and closure_mask(masks, inst.thr, act | mask_of(picks)).bit_count() >= l:
            return members(seed | mask_of(picks))
    return None


def ratio_violator(inst: Instance) -> Optional[int]:
    """The first vertex whose threshold exceeds ceil(deg/3), or None when the cap holds."""
    return next(
        (v for v in range(inst.n) if inst.thr[v] > -(-inst.graph.degree(v) // 3)), None
    )


def _check_ratio(inst: Instance) -> None:
    v = ratio_violator(inst)
    if v is not None:
        raise ValueError(f"threshold {inst.thr[v]} of vertex {v} exceeds ceil(deg/3)")
