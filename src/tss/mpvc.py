"""Branching enumeration of all minimal partial vertex covers of a bounded-degree graph.

A set S is a minimal partial vertex cover when no single vertex can be dropped
from S without changing the set of covered edges. The enumerator maintains a
tri-partition free/inside/outside of the vertices: while some free vertex has
its whole closed neighborhood free, it branches over every proper subset of
that closed neighborhood (a minimal cover can never contain all of it); once
every free vertex has a decided neighbor, it exhausts subsets of the free part
and filters by minimality.

The search runs on int vertex masks (bit v for vertex v) from the root to the
leaves, and each cover is yielded as such a mask; `activation.members` or
`bits_of` turn one back into vertices. `covered_edges` and `is_minimal_pvc`
stay set-based, as the plain reference.
"""

from __future__ import annotations

from math import log2
from typing import Iterator, Optional

from .activation import bits_of
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


def enum_minimal_pvcs(g: Graph, t: int, stats: Optional[Stats] = None) -> Iterator[int]:
    """Yield the vertex mask of every minimal partial vertex cover exactly once;
    requires max degree < t.

    Branches partition the assignments, so the stream is duplicate-free by
    construction; a debug-mode hash set double-checks this on small inputs.
    The branches wait on an explicit stack of (free, inside) masks, so the
    depth of the search is not bounded by the recursion limit.
    """
    stats = Stats() if stats is None else stats
    if g.max_degree() >= t:
        raise ValueError(f"max degree {g.max_degree()} not below bound {t}")
    seen: Optional[set[int]] = set() if __debug__ and g.n <= 12 else None
    # a cover is minimal iff it holds no vertex together with its whole neighborhood
    closed_nbhds = [m | 1 << v for v, m in enumerate(g.neighbor_masks())]
    stack = [((1 << g.n) - 1, 0)]
    while stack:
        free, inside = stack.pop()
        scan = free
        while scan:  # the pivot is the lowest free vertex whose closed neighborhood is free
            low = scan & -scan
            closed = closed_nbhds[low.bit_length() - 1]
            if not closed & ~free:
                stats.branch_nodes += 1
                rest = free & ~closed
                # pushed from the largest proper submask down, the children pop
                # in increasing mask order
                sub = closed
                while sub:
                    sub = (sub - 1) & closed
                    stack.append((rest, inside | sub))
                break
            scan ^= low
        else:  # a leaf: sweep the submasks of free in increasing order
            stats.leaf_nodes += 1
            stats.leaf_subsets += 1 << free.bit_count()
            span = inside | free
            risky = [c for c in closed_nbhds if not c & ~span]  # the rest never fit in a cover
            sub = 0
            while True:
                cover = inside | sub
                for c in risky:
                    if not c & ~cover:
                        break
                else:
                    if seen is not None:
                        assert cover not in seen, f"duplicate cover {bits_of(cover)}"
                        seen.add(cover)
                    stats.emitted += 1
                    yield cover
                sub = (sub - free) & free
                if not sub:
                    break


def leaf_count_log2_bound(n: int, t: int) -> float:
    """log2 of the soft bound (2^t - 1)^(n/t) * 2^((t-1)n/t) on branch leaves, which
    overflows a float for large t; past 53 bits a float reads 2^t - 1 as 2^t."""
    return n / t * (log2(2**t - 1) if t <= 53 else float(t)) + (t - 1) * n / t
