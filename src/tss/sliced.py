"""The counting-bounded, bit-sliced ascending search that `--algo auto` runs."""

from __future__ import annotations

from typing import Optional

from .activation import (
    bits_of, closure_mask, counting_bound, first_reaching, fit_table, mask_of, members,
)
from .instance import Instance
from .stats import Stats


def solve_sliced(inst: Instance, k: int, l: int,
                 stats: Optional[Stats] = None) -> Optional[frozenset[int]]:
    """Smallest (size, then lexicographic) X with |X| <= k activating >= l vertices, or None.

    first_reaching runs from the counting bound's level, or from the residual
    bound's: a seed below every item's residual threshold thr(v) - |N(v) & base|
    activates nothing beyond itself. At l = n each vertex with thr(v) > deg(v)
    is forced; a minimum X holds no other vertex of the forced set's closure, so
    the search leaves them out.
    """
    stats = Stats() if stats is None else stats
    if k < 0 or l < 0:
        raise ValueError("budget and target must be non-negative")
    n, thr, masks = inst.n, inst.thr, inst.graph.neighbor_masks()
    forced = mask_of(v for v in range(n) if thr[v] > masks[v].bit_count()) if l == n else 0
    size = forced.bit_count()
    if l > n or size > k:
        return None
    base = closure_mask(masks, thr, forced)
    items = bits_of(~base & ((1 << n) - 1))
    lower = counting_bound(masks, fit_table(thr), inst.graph.m, forced, l)
    if (reached := base.bit_count()) < l:
        # the first item to activate unseeded needs its residual threshold from the seed
        residual = min(thr[v] - (masks[v] & base).bit_count() for v in items)
        lower = max(lower, size + min(residual, l - reached))
    seed, tested = first_reaching(masks, thr, items, k - size, l, base, lower - size)
    stats.leaf_seeds += tested
    return None if seed is None else members(forced | (seed & ~base))
