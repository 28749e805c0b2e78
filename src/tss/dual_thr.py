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

from .activation import members
from .instance import Graph, Instance
from .stats import Stats


def is_d_degenerate(g: Graph, d: int) -> bool:
    """True iff repeatedly deleting any vertex with at most d remaining neighbors empties g."""
    if d < 0:
        raise ValueError("degeneracy bound must be non-negative")
    return _peels_empty(g.neighbor_masks(), (1 << g.n) - 1, [d] * g.n)


def solve_dual_perfect(inst: Instance, d: int, stats: Optional[Stats] = None) -> frozenset[int]:
    """Minimum perfect target set when deg(v) - thr(v) <= d for every vertex.

    Deterministic branch-and-bound maximizes a vertex set whose induced
    subgraph peels empty under per-vertex bounds deg(v) - thr(v) (peelability
    is hereditary, so unpeelable partial picks prune their whole subtree);
    the answer is the complement. Vertices with thr(v) > deg(v) can never
    peel and are excluded from the search up front.
    """
    if d < 0:
        raise ValueError("dual bound must be non-negative")
    duals = inst.dual_values()
    bad = [v for v in range(inst.n) if duals[v] > d]
    if bad:
        raise ValueError(f"dual threshold {duals[bad[0]]} of vertex {bad[0]} exceeds {d}")
    masks = inst.graph.neighbor_masks()
    candidates = [v for v in range(inst.n) if duals[v] >= 0]
    best = [0]

    def rec(i: int, current: int) -> None:
        if stats is not None:
            stats.dual_nodes += 1
        if current.bit_count() + (len(candidates) - i) <= best[0].bit_count():
            return
        if i == len(candidates):
            best[0] = current
            return
        pick = current | 1 << candidates[i]
        if _peels_empty(masks, pick, duals):
            rec(i + 1, pick)
        rec(i + 1, current)

    rec(0, 0)
    return frozenset(range(inst.n)) - members(best[0])


def _peels_empty(masks: Sequence[int], remaining: int, bound: Sequence[int]) -> bool:
    """Whether deleting vertices with remaining degree <= their own bound empties
    the vertex mask remaining. Deleting an eligible vertex never blocks another,
    so a sweep deletes each eligible vertex it meets; one that deletes none is stuck.
    """
    pending = [v for v in range(remaining.bit_length()) if (remaining >> v) & 1]
    while pending:
        still: list[int] = []
        for v in pending:
            if (masks[v] & remaining).bit_count() <= bound[v]:
                remaining ^= 1 << v
            else:
                still.append(v)
        if len(still) == len(pending):
            return False
        pending = still
    return True
