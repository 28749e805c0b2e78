"""Branching enumeration of all minimal partial vertex covers of a bounded-degree graph.

A set S is a minimal partial vertex cover when no single vertex can be dropped
from S without changing the set of covered edges. The enumerator maintains a
tri-partition free/inside/outside of the vertices: while some free vertex has
its whole closed neighborhood free, it branches over every proper subset of
that closed neighborhood (a minimal cover can never contain all of it); once
every free vertex has a decided neighbor, it exhausts subsets of the free part
and filters by minimality.
"""

from __future__ import annotations

from math import log2
from typing import Iterator, Optional

from .instance import Graph
from .stats import Stats

# perfbench/spans.py imports this name and builds EnumStats() for its counters.
EnumStats = Stats


def covered_edges(g: Graph, s: frozenset[int] | set[int]) -> frozenset[tuple[int, int]]:
    """Edges (u, v) with u < v having at least one endpoint in s."""
    return frozenset(e for e in g.edges() if e[0] in s or e[1] in s)


def is_minimal_pvc(g: Graph, s: frozenset[int] | set[int]) -> bool:
    """True iff dropping any single vertex of s changes the covered edge set.

    Removing v keeps the same covered edges exactly when every neighbor of v
    is still in s, so minimality means no vertex's neighborhood is inside s.
    """
    nbr = g.neighbor_sets()
    return all(not nbr[v] <= s for v in s)


def enum_minimal_pvcs(
    g: Graph, t: int, stats: Optional[Stats] = None
) -> Iterator[frozenset[int]]:
    """Yield every minimal partial vertex cover exactly once; requires max degree < t.

    Branches partition the assignments, so the stream is duplicate-free by
    construction; a debug-mode hash set double-checks this on small inputs.
    The branches wait on an explicit stack of (free, inside) pairs, so the
    depth of the search is not bounded by the recursion limit.
    """
    if g.max_degree() >= t:
        raise ValueError(f"max degree {g.max_degree()} not below bound {t}")
    seen: Optional[set[frozenset[int]]] = set() if __debug__ and g.n <= 12 else None
    nbr = g.neighbor_sets()
    stack = [(frozenset(range(g.n)), frozenset())]
    while stack:
        free, inside = stack.pop()
        pivot = next((v for v in sorted(free) if nbr[v] <= free), None)
        if pivot is not None:
            if stats is not None:
                stats.branch_nodes += 1
            closed = sorted(nbr[pivot] | {pivot})
            rest = free - frozenset(closed)
            # pushed last-first, the children pop in increasing mask order
            for mask in reversed(range((1 << len(closed)) - 1)):
                taken = frozenset(v for i, v in enumerate(closed) if (mask >> i) & 1)
                stack.append((rest, inside | taken))
            continue
        rest = sorted(free)
        if stats is not None:
            stats.leaf_nodes += 1
            stats.leaf_subsets += 1 << len(rest)
        for mask in range(1 << len(rest)):
            cover = inside | frozenset(rest[i] for i in range(len(rest)) if (mask >> i) & 1)
            if not is_minimal_pvc(g, cover):
                continue
            if seen is not None:
                assert cover not in seen, f"duplicate cover {sorted(cover)}"
                seen.add(cover)
            if stats is not None:
                stats.emitted += 1
            yield cover


def leaf_count_log2_bound(n: int, t: int) -> float:
    """log2 of the soft bound (2^t - 1)^(n/t) * 2^((t-1)n/t) on recursion leaves;
    the bound itself overflows a float for large t."""
    return n / t * log2(2**t - 1) + (t - 1) * n / t
