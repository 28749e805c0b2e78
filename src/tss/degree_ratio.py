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

from .activation import closure_mask, is_perfect_target_set, mask_of, members, seed_masks
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
    When more than half the vertices have degree one, a vertex with two
    degree-one neighbors is taken and the solver recurses on what remains;
    otherwise random orderings are sampled (up to 64n, seeded). If sampling
    misses the bound, small instances fall back to exhaustive bounded-size
    search; larger ones return the best sample found with a warning.
    """
    if not inst.graph.is_connected():
        raise ValueError("graph must be connected")
    if inst.n < 3:
        raise ValueError("need at least 3 vertices")
    _check_ratio(inst)
    rng = random.Random(seed)
    result = _construct(inst, rng)
    assert is_perfect_target_set(inst, result)
    return result


def _construct(inst: Instance, rng: random.Random) -> frozenset[int]:
    n = inst.n
    bound = floor(SIZE_FRACTION * n)
    if n == 3:
        return frozenset({0})
    deg = [inst.graph.degree(v) for v in range(n)]
    n1 = sum(1 for d in deg if d == 1)
    if n1 > n - n1:
        return _peel_leafy_vertex(inst, rng)

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
        masks = inst.graph.neighbor_masks()
        for seed in seed_masks(range(n), bound):
            if closure_mask(masks, inst.thr, seed).bit_count() == n:
                return members(seed)
        raise RuntimeError("no perfect target set within the size bound; precondition violated?")
    warnings.warn(
        f"ordering samples exceeded the floor(0.45n) bound (best {len(best)} > {bound})",
        RuntimeWarning,
    )
    return best


def _peel_leafy_vertex(inst: Instance, rng: random.Random) -> frozenset[int]:
    """Select a vertex with two degree-one neighbors and recurse on the rest.

    Components of size at most 2 of the remainder activate for free once the
    selected vertex is active; only components of size >= 3 are recursed into.
    """
    n = inst.n
    nbr = inst.graph.neighbor_sets()
    deg = [inst.graph.degree(v) for v in range(n)]
    pick = -1
    for v in range(n):
        if sum(1 for u in nbr[v] if deg[u] == 1) >= 2:
            pick = v
            break
    assert pick >= 0, "more degree-one vertices than others forces such a vertex"
    rest_graph, old_ids = inst.graph.induced(set(range(n)) - {pick})
    rest_thr = tuple(
        max(0, inst.thr[old] - (1 if old in nbr[pick] else 0)) for old in old_ids
    )
    rest = Instance(rest_graph, rest_thr)
    chosen = {pick}
    for comp in rest_graph.components():
        if len(comp) < 3:
            continue
        comp_graph, comp_ids = rest_graph.induced(comp)
        comp_inst = Instance(comp_graph, tuple(rest_thr[i] for i in comp_ids))
        part = _construct(comp_inst, rng)
        chosen.update(old_ids[comp_ids[i]] for i in part)
    return frozenset(chosen)


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
