"""Exact round-by-round activation semantics.

A vertex joins the activated set in round i+1 when at least thr(v) of its
neighbors are activated after round i; seed vertices are round 0. The process
is monotone and reaches its fixpoint within n rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, repeat
from math import comb
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
    return sum((masks[v] & mask).bit_count() for v in bits_of(mask)) // 2


def fit_table(thr: Sequence[int]) -> list[tuple[int, int]]:
    """[(value, mask of the vertices with that threshold)], values ascending:
    the table fitting() reads, built once per solve."""
    groups: dict[int, int] = {}
    for v, x in enumerate(thr):
        groups[x] = groups.get(x, 0) | 1 << v
    return sorted(groups.items())


def fitting(table: Sequence[tuple[int, int]], mask: int, budget: int) -> int:
    """F: how many of the smallest thresholds of the vertices in mask fit in
    budget (-1 when budget < 0), table being fit_table() of all thresholds.

    This is the counting bound of Ackerman, Ben-Zwi and Wolfovitz
    ("Combinatorial model and bounds for target set selection", TCS 2010):
    orient each edge from the endpoint that activates first; every activated
    vertex v outside the seed X then owns thr(v) incoming edges, and an edge
    inside X serves none, so the thresholds of the activated vertices outside
    X sum to at most m - e(X). For S within X, at most F(S) = fitting(table,
    ~S, m - e(S)) vertices outside X activate, and F only shrinks as S grows.
    """
    if budget < 0:
        return -1
    fit = 0
    for value, group in table:
        count = (group & mask).bit_count()
        if count * value > budget:  # whole groups while their sum fits, then part of this one
            return fit + budget // value
        fit += count
        budget -= count * value
    return fit


def counting_bound(masks: Sequence[int], table: Sequence[tuple[int, int]], m: int,
                   known: int, l: int) -> int:
    """l - F(known): the fewest members a seed holding the vertex mask known
    needs to activate l vertices, m being the number of edges (see fitting)."""
    return l - fitting(table, ~known, m - edges_within(masks, known))


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for every v in vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    """The vertices whose bits are set in mask, ascending."""
    out = []
    while mask:  # one step per set bit: search masks are sparse in wide graphs
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def members(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in mask; inverse of mask_of."""
    return frozenset(bits_of(mask))


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


CHUNK = 4096  # seeds per bit-sliced batch: one 512-byte vector per vertex
CACHED_ITEMS = 64  # whole subset levels over at most this many items are cached


def first_reaching(
    masks: Sequence[int], thr: Sequence[int], items: Sequence[int], max_size: int,
    target: int, base: int = 0, min_size: int = 0,
) -> tuple[Optional[int], int]:
    """The first seed of seed_masks(items, max_size, base, min_size) whose
    closure_mask has at least target vertices, or None, with the number of
    seeds tested up to and including it (all of them when none reaches).

    Bit-sliced in the style of Biham ("A fast new DES implementation in
    software", FSE 1997): Python ints serve as vectors with one bit per seed,
    so each big-int operation acts on a chunk of up to CHUNK seeds, consecutive
    in seed order. act[v] has bit j set iff v is active under the chunk's
    j-th seed. Sweeps raise act[v] by a saturating counter ladder over v's
    neighbours, c[i] |= c[i-1] & act[u], whose c[thr(v)] marks the seeds with
    at least thr(v) active neighbours, until a sweep adds nothing; any order of
    updates reaches the same least fixpoint. A second ladder counts active
    vertices, and the lowest set bit of its result is the chunk's first hit.
    """
    n = len(masks)
    nbrs = [bits_of(masks[v]) for v in range(n)]
    # vertices that can activate by their neighbours at all
    movers = [v for v in range(n) if thr[v] <= len(nbrs[v]) and not (base >> v) & 1]
    tested = 0
    for size in range(max(min_size, 0), min(max_size, len(items)) + 1):
        total = comb(len(items), size)
        for lo in range(0, total, CHUNK):
            width = min(CHUNK, total - lo)
            full = (1 << width) - 1
            act = [full if (base >> v) & 1 else 0 for v in range(n)]
            if width == total and len(items) <= CACHED_ITEMS:
                lanes = _level(len(items), size)
            else:
                lanes = _fill(len(items), size, lo, lo + width)
            for v, vec in zip(items, lanes):
                act[v] = vec
            _sliced_fixpoint(nbrs, thr, movers, masks, act, full)
            if 2 * target <= n + 1:  # the shorter ladder: active ones, or inactive ones
                hit = _at_least(act, target, full)
            else:
                hit = full & ~_at_least([full ^ a for a in act], n - target + 1, full)
            if hit:
                j = (hit & -hit).bit_length() - 1
                seed = base | sum(1 << v for v, vec in zip(items, lanes) if (vec >> j) & 1)
                return seed, tested + j + 1
            tested += width
    return None, tested


def _sliced_fixpoint(nbrs: list[list[int]], thr: Sequence[int], movers: list[int],
                     masks: Sequence[int], act: list[int], full: int) -> None:
    """Raise act to the bit-sliced activation fixpoint, in place. The ladder is
    _at_least's, written out: a call per vertex costs the kernel half again."""
    stale = mask_of(movers)
    while stale:
        touched = 0
        for v in movers:
            a = act[v]
            if not (stale >> v) & 1 or a == full:
                continue
            t = thr[v]
            c = [full] + [0] * t
            steps = range(t, 0, -1)
            for u in nbrs[v]:
                x = act[u]
                if x:
                    for i in steps:
                        c[i] |= c[i - 1] & x
            if c[t] & ~a:
                act[v] = a | c[t]
                touched |= masks[v]
        stale = touched


def _at_least(vecs: Iterable[int], j: int, full: int) -> int:
    """The lanes where at least j of the bit vectors are set."""
    if j <= 0:
        return full
    c = [full] + [0] * j
    k = 0
    for x in vecs:
        if x:
            k += 1
            for i in range(min(k, j), 0, -1):
                c[i] |= c[i - 1] & x
    return c[j]


@lru_cache(maxsize=None)
def _level(r: int, s: int) -> tuple[int, ...]:
    """_fill over a whole level; levels recur across chunks and calls. Only
    levels of at most CHUNK lanes over at most CACHED_ITEMS items come here:
    463 of them, 1.2 MB in all."""
    return tuple(_fill(r, s, 0, comb(r, s)))


def _fill(r: int, s: int, lo: int, hi: int) -> list[int]:
    """Indicator vectors of r items over lanes lo..hi-1, lane j being the j-th
    s-subset of range(r) in lexicographic order: bit j - lo of the p-th vector
    is set iff item p is in lane j's subset.

    The s-subsets whose smallest item is p come as one block, p ascending, and
    within it item p is set and the rest of each subset runs over the level
    (r - p - 1, s - 1) of the items after p. The blocks in range are shifted
    and ORed in from an explicit stack, so deep levels need no recursion;
    whole blocks over few items come from _level.
    """
    vecs = [0] * r
    todo = [(0, r, s, lo, hi, 0)]
    while todo:
        first, r, s, lo, hi, shift = todo.pop()
        if s == r:  # one lane, holding every item
            for q in range(first, first + r):
                vecs[q] |= 1 << shift
            continue
        start = 0  # lane where the block of item p starts
        for p in range(r - s + 1) if s else ():
            size = comb(r - p - 1, s - 1)
            if start + size > lo:
                sub_lo, sub_hi = max(lo - start, 0), min(hi - start, size)
                at = shift + max(start - lo, 0)
                vecs[first + p] |= ((1 << (sub_hi - sub_lo)) - 1) << at
                if s > 1 and sub_hi - sub_lo == size and r - p - 1 <= CACHED_ITEMS:
                    for q, vec in enumerate(_level(r - p - 1, s - 1), first + p + 1):
                        vecs[q] |= vec << at
                elif s > 1:
                    todo.append((first + p + 1, r - p - 1, s - 1, sub_lo, sub_hi, at))
            start += size
            if start >= hi:
                break
    return vecs
