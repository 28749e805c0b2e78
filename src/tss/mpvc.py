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

from dataclasses import dataclass
from math import log2
from typing import Iterator, Optional

from .instance import Graph


@dataclass
class EnumStats:
    """Recursion counters for instrumented runs."""

    branch_nodes: int = 0
    leaf_nodes: int = 0
    leaf_subsets: int = 0
    emitted: int = 0


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
    g: Graph, t: int, stats: Optional[EnumStats] = None
) -> Iterator[frozenset[int]]:
    """Yield every minimal partial vertex cover exactly once; requires max degree < t.

    Branches partition the assignments, so the stream is duplicate-free by
    construction; a debug-mode hash set double-checks this on small inputs.
    """
    if g.max_degree() >= t:
        raise ValueError(f"max degree {g.max_degree()} not below bound {t}")
    seen: Optional[set[frozenset[int]]] = set() if __debug__ and g.n <= 12 else None
    for cover in _branch(g, frozenset(range(g.n)), frozenset(), stats):
        if seen is not None:
            assert cover not in seen, f"duplicate cover {sorted(cover)}"
            seen.add(cover)
        if stats is not None:
            stats.emitted += 1
        yield cover


def _branch(
    g: Graph, free: frozenset[int], inside: frozenset[int], stats: Optional[EnumStats]
) -> Iterator[frozenset[int]]:
    nbr = g.neighbor_sets()
    pivot = -1
    for v in sorted(free):
        if nbr[v] <= free:
            pivot = v
            break
    if pivot >= 0:
        if stats is not None:
            stats.branch_nodes += 1
        closed = sorted(nbr[pivot] | {pivot})
        full = (1 << len(closed)) - 1
        for mask in range(full):
            taken = frozenset(closed[i] for i in range(len(closed)) if (mask >> i) & 1)
            yield from _branch(g, free - frozenset(closed), inside | taken, stats)
        return
    if stats is not None:
        stats.leaf_nodes += 1
    rest = sorted(free)
    for mask in range(1 << len(rest)):
        if stats is not None:
            stats.leaf_subsets += 1
        cand = inside | frozenset(rest[i] for i in range(len(rest)) if (mask >> i) & 1)
        if is_minimal_pvc(g, cand):
            yield cand


def leaf_count_log2_bound(n: int, t: int) -> float:
    """log2 of the soft bound (2^t - 1)^(n/t) * 2^((t-1)n/t) on recursion leaves;
    the bound itself overflows a float for large t."""
    return n / t * log2(2**t - 1) + (t - 1) * n / t
