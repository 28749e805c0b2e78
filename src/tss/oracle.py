"""Brute-force reference solvers for desk-scale verification.

Everything here enumerates subsets in (size, lexicographic) order so that
minima and tie-breaks are deterministic. No pruning cleverness on purpose:
these functions exist to validate the real solvers, not to be fast.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .activation import closure
from .instance import Graph, Instance

DESK_SCALE_LIMIT = 24


def _check_scale(n: int) -> None:
    if n > DESK_SCALE_LIMIT:
        raise ValueError(f"oracle limited to n <= {DESK_SCALE_LIMIT}, got {n}")


def oracle_tss_decision(inst: Instance, k: int, l: int) -> Optional[frozenset[int]]:
    """Smallest (size, then lexicographic) X with |X| <= k activating >= l vertices, or None.

    k and l may exceed n; a target above n is simply unsatisfiable.
    """
    _check_scale(inst.n)
    if k < 0 or l < 0:
        raise ValueError("budget and target must be non-negative")
    for size in range(min(k, inst.n) + 1):
        for sub in combinations(range(inst.n), size):
            if len(closure(inst, sub)) >= l:
                return frozenset(sub)
    return None


def oracle_min_perfect_tss(inst: Instance) -> frozenset[int]:
    """Minimum-cardinality perfect target set; ties go to the lexicographically smallest.

    This is the decision search at (n, n): the whole vertex set always qualifies.
    """
    return oracle_tss_decision(inst, inst.n, inst.n)


def oracle_enum_mpvc(g: Graph) -> set[frozenset[int]]:
    """All minimal partial vertex covers, by checking every subset directly.

    S is minimal iff no single-vertex removal covers the same edge set;
    removing v preserves coverage exactly when all of v's neighbors stay in S.
    """
    _check_scale(g.n)
    nbr = g.neighbor_sets()
    result: set[frozenset[int]] = set()
    for size in range(g.n + 1):
        for sub in combinations(range(g.n), size):
            s = frozenset(sub)
            if all(not nbr[v] <= s for v in s):
                result.add(s)
    return result


def oracle_max_d_degenerate(g: Graph, d: int) -> frozenset[int]:
    """Maximum-size S such that the subgraph induced by S peels empty at degree <= d.

    Peeling: repeatedly delete any vertex with at most d neighbors remaining.
    Sizes are scanned descending; ties go to the lexicographically smallest S.
    """
    _check_scale(g.n)
    if d < 0:
        raise ValueError("degeneracy bound must be non-negative")
    nbr = g.neighbor_sets()
    for size in range(g.n, -1, -1):
        for sub in combinations(range(g.n), size):
            if _peels_empty(nbr, set(sub), [d] * g.n):
                return frozenset(sub)
    return frozenset()


def oracle_has_clique(g: Graph, k: int) -> bool:
    """True iff some k vertices are pairwise adjacent (k <= 0 is vacuously true)."""
    _check_scale(g.n)
    if k <= 0:
        return True
    if k > g.n:
        return False
    nbr = g.neighbor_sets()
    for sub in combinations(range(g.n), k):
        if all(sub[j] in nbr[sub[i]] for i in range(k) for j in range(i + 1, k)):
            return True
    return False


def _peels_empty(nbr: tuple[frozenset[int], ...], remaining: set[int], bound: list[int]) -> bool:
    """Whether iterated deletion of vertices with remaining degree <= their bound empties the set."""
    deg = {v: len(nbr[v] & remaining) for v in remaining}
    stack = [v for v in remaining if deg[v] <= bound[v]]
    gone: set[int] = set()
    while stack:
        v = stack.pop()
        if v in gone:
            continue
        gone.add(v)
        for u in nbr[v]:
            if u in remaining and u not in gone:
                deg[u] -= 1
                if deg[u] <= bound[u]:
                    stack.append(u)
    return gone == remaining
