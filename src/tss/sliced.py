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

    first_reaching runs from the counting bound's level. At l = n each vertex
    with thr(v) > deg(v) is forced; a minimum X holds no other vertex of the
    forced set's closure, so the search leaves them out.
    """
    if k < 0 or l < 0:
        raise ValueError("budget and target must be non-negative")
    n, thr, masks = inst.n, inst.thr, inst.graph.neighbor_masks()
    forced = mask_of(v for v in range(n) if thr[v] > masks[v].bit_count()) if l == n else 0
    size = forced.bit_count()
    if l > n or size > k:
        return None
    base = closure_mask(masks, thr, forced)
    lower = counting_bound(masks, fit_table(thr), inst.graph.m, forced, l)
    seed, tested = first_reaching(masks, thr, bits_of(~base & ((1 << n) - 1)), k - size, l,
                                  base, lower - size)
    if stats is not None:
        stats.leaf_seeds += tested
    return None if seed is None else members(forced | (seed & ~base))
