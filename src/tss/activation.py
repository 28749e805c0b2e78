"""Exact round-by-round activation semantics.

A vertex joins the activated set in round i+1 when at least thr(v) of its
neighbors are activated after round i; seed vertices are round 0. The process
is monotone and reaches its fixpoint within n rounds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .instance import Instance


@dataclass(frozen=True)
class ActivationTrace:
    """The sequence of activated sets up to the first fixpoint.

    rounds[i] is the activated set after round i (rounds[0] is the seed);
    round_of[v] is the round in which v activated, or None if it never does.
    """

    rounds: tuple[frozenset[int], ...]
    round_of: tuple[Optional[int], ...]

    @property
    def activated(self) -> frozenset[int]:
        return self.rounds[-1]

    @property
    def num_rounds(self) -> int:
        """Index of the first fixpoint (0 when the seed is already stable)."""
        return len(self.rounds) - 1


def _layers(inst: Instance, seed: Iterable[int]) -> list[list[int]]:
    """The seed, then the vertices activating in each round, up to the fixpoint.

    Queue-driven: per-vertex counters of activated neighbors are updated as
    vertices activate, so a counter reaching the threshold in round i triggers
    activation in round i+1, never sooner.
    """
    n = inst.n
    thr = inst.thr
    adj = inst.graph.adj
    active = [False] * n
    for v in seed:
        if not (0 <= v < n):
            raise ValueError(f"seed vertex {v} out of range")
        active[v] = True
    layers = [[v for v in range(n) if active[v]]]
    count = [0] * n
    for v in layers[0]:
        for u in adj[v]:
            count[u] += 1
    frontier = [v for v in range(n) if not active[v] and count[v] >= thr[v]]
    while frontier:
        layers.append(frontier)
        for v in frontier:
            active[v] = True
        nxt: list[int] = []
        for v in frontier:
            for u in adj[v]:
                if not active[u]:
                    count[u] += 1
                    # a vertex at or past its threshold already sits in a
                    # frontier; the others join once, on reaching it
                    if count[u] == thr[u]:
                        nxt.append(u)
        frontier = nxt
    return layers


def activate(inst: Instance, seed: Iterable[int]) -> ActivationTrace:
    """Run the activation process from the seed set, recording every round."""
    layers = _layers(inst, seed)
    round_of: list[Optional[int]] = [None] * inst.n
    for r, layer in enumerate(layers):
        for v in layer:
            round_of[v] = r
    rounds = tuple(accumulate(map(frozenset, layers), frozenset.union))
    return ActivationTrace(rounds, tuple(round_of))


def closure(inst: Instance, seed: Iterable[int]) -> frozenset[int]:
    """The set of eventually-activated vertices (fixpoint), without trace bookkeeping."""
    return frozenset(chain.from_iterable(_layers(inst, seed)))


def is_perfect_target_set(inst: Instance, seed: Iterable[int]) -> bool:
    """True iff the seed eventually activates every vertex."""
    return len(closure(inst, seed)) == inst.n


def closure_mask(masks: Sequence[int], thr: Sequence[int], seed_mask: int) -> int:
    """Bitmask fixpoint of the activation process; fast path for search inner loops.

    masks[v] is the neighborhood bitmask of v; bit v of the result is set iff
    v eventually activates from the seed. Semantics match closure().
    """
    n = len(masks)
    act = seed_mask
    pending = [v for v in range(n) if not (act >> v) & 1]
    while True:
        add = 0
        still: list[int] = []
        for v in pending:
            if (masks[v] & act).bit_count() >= thr[v]:
                add |= 1 << v
            else:
                still.append(v)
        if not add:
            return act
        act |= add
        pending = still


def edges_within(masks: Sequence[int], mask: int) -> int:
    """e(mask): the number of edges with both ends in the vertex mask."""
    return sum((masks[v] & mask).bit_count() for v in members(mask)) // 2


def threshold_prefix(thresholds: Iterable[int]) -> list[int]:
    """Prefix sums of the sorted thresholds, starting at 0; the table fitting() reads."""
    return list(accumulate(sorted(thresholds), initial=0))


def fitting(prefix: Sequence[int], budget: int) -> int:
    """F: how many of the smallest thresholds fit in budget (-1 when budget < 0).

    prefix is threshold_prefix() of the thresholds outside a seed's known part
    S. This is the counting bound of Ackerman, Ben-Zwi and Wolfovitz
    ("Combinatorial model and bounds for target set selection", TCS 2010):
    orient each edge from the endpoint that activates first; every activated
    vertex v outside the seed X then owns thr(v) incoming edges, and an edge
    inside X serves none, so the thresholds of the activated vertices outside
    X sum to at most m - e(X).
    For S within X, at most F(S) = fitting(prefix of V - S, m - e(S)) vertices
    outside X activate, so a perfect X has at least n - F(S) members and one
    activating l vertices at least l - F(S). F only shrinks as S grows.
    """
    return bisect_right(prefix, budget) - 1


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for every v in vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def members(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in mask; inverse of mask_of."""
    out = []
    while mask:  # one step per set bit: search masks are sparse in wide graphs
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


def seed_masks(
    items: Sequence[int], max_size: int, base: int = 0, min_size: int = 0
) -> Iterator[int]:
    """base | mask_of(sub) for every subset sub of items of min_size to max_size
    members, in (size, lexicographic) order; base must share no bit with items.

    Each seed is one C-level sum of precomputed single-bit masks, so the
    enumeration runs no Python bytecode per subset.
    """
    bits = [1 << v for v in items]
    return chain.from_iterable(
        map(sum, combinations(bits, size), repeat(base))
        for size in range(max(min_size, 0), min(max_size, len(bits)) + 1)
    )
