"""Exact round-by-round activation semantics.

A vertex joins the activated set in round i+1 when at least thr(v) of its
neighbors are activated after round i; seed vertices are round 0. The process
is monotone and reaches its fixpoint within n rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
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


def activate(inst: Instance, seed: Iterable[int]) -> ActivationTrace:
    """Run the activation process from the seed set, recording every round.

    Queue-driven: per-vertex counters of activated neighbors are updated as
    vertices activate, so a counter reaching the threshold in round i triggers
    activation in round i+1, never sooner.
    """
    n = inst.n
    thr = inst.thr
    adj = inst.graph.adj
    active = [False] * n
    round_of: list[Optional[int]] = [None] * n
    for v in seed:
        if not (0 <= v < n):
            raise ValueError(f"seed vertex {v} out of range")
        active[v] = True
        round_of[v] = 0

    count = [0] * n
    for v in range(n):
        if active[v]:
            for u in adj[v]:
                count[u] += 1

    rounds = [frozenset(v for v in range(n) if active[v])]
    queued = [False] * n
    frontier = [v for v in range(n) if not active[v] and count[v] >= thr[v]]
    for v in frontier:
        queued[v] = True
    r = 0
    while frontier:
        r += 1
        for v in frontier:
            active[v] = True
            round_of[v] = r
        rounds.append(rounds[-1] | frozenset(frontier))
        nxt: list[int] = []
        for v in frontier:
            for u in adj[v]:
                if not active[u]:
                    count[u] += 1
                    if not queued[u] and count[u] >= thr[u]:
                        queued[u] = True
                        nxt.append(u)
        frontier = nxt
    return ActivationTrace(tuple(rounds), tuple(round_of))


def closure(inst: Instance, seed: Iterable[int]) -> frozenset[int]:
    """The set of eventually-activated vertices (fixpoint), without trace bookkeeping."""
    n = inst.n
    thr = inst.thr
    adj = inst.graph.adj
    active = [False] * n
    for v in seed:
        active[v] = True
    count = [0] * n
    for v in range(n):
        if active[v]:
            for u in adj[v]:
                count[u] += 1
    queued = [False] * n
    stack = [v for v in range(n) if not active[v] and count[v] >= thr[v]]
    for v in stack:
        queued[v] = True
    while stack:
        v = stack.pop()
        active[v] = True
        for u in adj[v]:
            if not active[u]:
                count[u] += 1
                if not queued[u] and count[u] >= thr[u]:
                    queued[u] = True
                    stack.append(u)
    return frozenset(v for v in range(n) if active[v])


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


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for every v in vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def members(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in mask; inverse of mask_of."""
    return frozenset(v for v in range(mask.bit_length()) if (mask >> v) & 1)


def seed_masks(items: Sequence[int], max_size: int, base: int = 0) -> Iterator[int]:
    """base | mask_of(sub) for every subset sub of items of at most max_size
    members, in (size, lexicographic) order; base must share no bit with items.

    Each seed is one C-level sum of precomputed single-bit masks, so the
    enumeration runs no Python bytecode per subset.
    """
    bits = [1 << v for v in items]
    return chain.from_iterable(
        map(sum, combinations(bits, size), repeat(base))
        for size in range(min(max_size, len(bits)) + 1)
    )
