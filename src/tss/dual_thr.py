"""Perfect target sets under bounded dual thresholds, via degenerate-subgraph search.

Reading activation as deletion: a vertex leaves the remaining graph once at
most deg(v) - thr(v) of its neighbors remain. A target set is perfect exactly
when its complement peels empty under that rule, so the minimum perfect target
set is the complement of a maximum induced subgraph that peels empty. With all
dual values equal to d this is the classic maximum d-degenerate induced
subgraph; per-vertex dual values generalize the peeling bound per vertex.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .activation import edges_within, fit_table, fitting, mask_of, members
from .instance import Graph, Instance
from .stats import Stats


def is_d_degenerate(g: Graph, d: int) -> bool:
    """True iff repeatedly deleting any vertex with at most d remaining neighbors empties g."""
    if d < 0:
        raise ValueError("degeneracy bound must be non-negative")
    return not _core(g.neighbor_masks(), (1 << g.n) - 1, [d] * g.n)


def solve_dual_perfect(inst: Instance, stats: Optional[Stats] = None) -> frozenset[int]:
    """Minimum perfect target set, for any thresholds.

    Deterministic branch-and-bound maximizes a vertex set whose induced
    subgraph peels empty under per-vertex bounds deg(v) - thr(v) (peelability
    is hereditary, so unpeelable partial picks prune their whole subtree);
    the answer is the complement. Vertices with thr(v) > deg(v) can never
    peel and are excluded from the search up front. The pick is the part of
    a perfect set's complement found so far, so by the counting bound it can
    grow only by the remaining candidates whose smallest thresholds fit in
    m - thr(pick) - e(out), out being the vertices decided out of it; a node
    whose pick cannot beat the incumbent that way is pruned. Whether v can join
    the pick is settled, cheapest first, by v peeling first (at most its bound
    of neighbours in the pick), by the pick being a subset of one v last joined,
    by the pick holding the last core v was stuck in, and only then by a peel,
    which stops once v goes. The nodes sit on an explicit stack, so no
    recursion limit caps the depth of the search.
    The paper bounds the running time by d = max(deg(v) - thr(v)); the search
    never reads d, so it takes none.
    """
    stats = Stats() if stats is None else stats
    duals = inst.dual_values()
    masks = inst.graph.neighbor_masks()
    thr = inst.thr
    m = inst.graph.m
    candidates = [v for v in range(inst.n) if duals[v] >= 0]
    table = fit_table(thr)
    out = ((1 << inst.n) - 1) ^ mask_of(candidates)
    best = 0
    # joined[v]: the last pick v was peeled into; stuck[v]: the last core of pick | v,
    # minus v (-1, all ones, lies in no pick)
    joined = [0] * inst.n
    stuck = [-1] * inst.n
    # a node: next candidate, pick, thr(pick), vertices decided out, e(out)
    stack = [(0, 0, 0, out, edges_within(masks, out))]
    while stack:
        i, pick, pick_thr, out, e_out = stack.pop()
        stats.dual_nodes += 1
        # the undecided candidates, candidates[i:], are the vertices neither picked nor out
        grow = fitting(table, ~(pick | out), m - pick_thr - e_out)
        if pick.bit_count() + grow <= best.bit_count():
            stats.bound_prunes += 1
            continue
        if i == len(candidates):
            best = pick
            continue
        v = candidates[i]
        # the child leaving v out runs second, so it goes below the one picking v
        stack.append((i + 1, pick, pick_thr, out | 1 << v, e_out + (masks[v] & out).bit_count()))
        if (masks[v] & pick).bit_count() > duals[v] and pick & ~joined[v]:
            if not stuck[v] & ~pick:
                continue
            stats.dual_peels += 1
            core = _core(masks, pick | 1 << v, duals, v)
            if core:
                stuck[v] = core ^ 1 << v
                continue
            joined[v] = pick
        stack.append((i + 1, pick | 1 << v, pick_thr + thr[v], out, e_out))
    return frozenset(range(inst.n)) - members(best)


def _core(masks: Sequence[int], remaining: int, bound: Sequence[int], v: int = -1) -> int:
    """The core of the vertex mask remaining: what is left once vertices with at
    most their bound of remaining neighbours are deleted, so each of its vertices
    has more than its bound of neighbours in it; 0 when the peel empties remaining.
    Deleting an eligible vertex never blocks another, so a sweep deletes each
    eligible vertex it meets; one that deletes none is stuck. Given v, remaining
    minus v must peel empty; the peel then stops once v goes, since what is left
    is a subset of that set, and peeling empty is hereditary.
    """
    pending = [u for u in range(remaining.bit_length()) if (remaining >> u) & 1]
    while pending:
        still: list[int] = []
        for u in pending:
            if (masks[u] & remaining).bit_count() <= bound[u]:
                if u == v:
                    return 0
                remaining ^= 1 << u
            else:
                still.append(u)
        if len(still) == len(pending):
            return remaining
        pending = still
    return 0
