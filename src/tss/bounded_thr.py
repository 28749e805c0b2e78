"""Three-stage exact solver for target set selection with thresholds bounded by t.

Stage 1 is branch-and-reduce over a tri-partition of the vertices into
selected / excluded / free: vertices that activate from the current selection
anyway are excluded for free; a free vertex with enough free neighbors is
branched over all undominated splits of it and a threshold-sized neighbor
group; once the free part is small enough it is brute-forced.

Stage 2 describes the activation process of a surviving branch without knowing
the hidden part of the selection: it enumerates minimal partial vertex covers
of the free part (the hidden selection covers the same free-free edges as one
of them) and replays activation rounds over a projected set, forking on demand
whenever the round outcome of an excluded vertex depends on undecided facts
about the hidden selection. A branch's facts live in one record, _Ctx: the
cover, the promised quota of hidden selected neighbors per excluded vertex,
and the free vertices known inside (the cover among them) and outside the
hidden selection.

Stage 3, stage3_dp(inst, selected, free, ctx, projected, k, l), closes each
fully-decided branch with a dynamic program over the free vertices the record
leaves undecided, minimizing the selection size subject to the activation
target and the record's quotas.

Every vertex set from the root to stage 3 is an int mask, the format of the
activation kernels, and the MPVC covers arrive as such masks too; the
excluded part of the tri-partition is the complement of selected | free. The
only set is the return value of solve_bounded.
"""

from __future__ import annotations

from math import comb, log2
from typing import Callable, Optional, Sequence

from .activation import (
    bits_of, closure_mask, counting_bound, first_reaching, fit_table, mask_of, members, seed_masks,
)
from .activation import closure  # noqa: F401  perfbench/spans.py wraps this name
from .instance import Instance
from .mpvc import enum_minimal_pvcs
from .stats import Stats


def compute_constants(t: int) -> tuple[float, float]:
    """(omega_t, gamma_t): the cover-enumeration exponent and the brute-force
    cutoff fraction balancing stage 1 against stages 2-3. Both are strictly
    below 1 for every t >= 1. Past 53 bits a float reads 2^t - 1 as 2^t.
    """
    if t < 1:
        raise ValueError("threshold bound must be at least 1")
    omega = (log2(2**t - 1) if t <= 53 else float(t)) / t**2 + (t - 1) / t
    pair_bits = log2(comb(t + 2, 2))
    gamma = ((t - 1) + pair_bits) / ((t - omega) + pair_bits)
    return omega, gamma


Split = Optional[tuple[int, list[int]]]


def br1_split(
    masks: Sequence[int], thr: Sequence[int], free: int, stats: Optional[Stats] = None,
) -> Split:
    """Branching rule BR1 over the free mask: (group, children) as masks, or None
    if it does not apply.

    The pivot is the free vertex with the most free neighbors among those with
    at least thr of them (the smallest id on ties); the group is the pivot plus
    its thr smallest free neighbors. The children, as the group members each
    selects (the rest of the group is excluded), are every split selecting fewer
    than thr members, in (size, lexicographic) order, then the thr neighbors,
    which activate the excluded pivot.
    """
    pivot = -1
    pivot_deg = -1
    for v in bits_of(free):
        deg_free = (masks[v] & free).bit_count()
        if deg_free >= thr[v] and deg_free > pivot_deg:
            pivot, pivot_deg = v, deg_free
    if pivot < 0:
        return None
    group_t = mask_of(bits_of(masks[pivot] & free)[: thr[pivot]])
    group = group_t | 1 << pivot
    children = [*seed_masks(bits_of(group), thr[pivot] - 1), group_t]
    if stats is not None:
        stats.br1_apps += 1
        stats.br1_children.append((thr[pivot], len(children)))
    return group, children


def branch_and_reduce(
    masks: Sequence[int], thr: Sequence[int], rules: Sequence[Callable[[int], Split]],
    prune: Callable[..., object], leaf: Callable[..., object], stats: Optional[Stats],
    forced: Optional[Callable[[int], int]] = None,
) -> object:
    """Branch and reduce over selected / excluded / free, from everything free.

    A node is the masks (selected, free, act): excluded is the rest, and act the
    closure of selected, seeded by the parent's (selections only grow). RR1
    excludes the free vertices in act; forced(free), if nonzero, is selected and
    RR1 reruns. Unless prune(selected, free, act) holds, the first rule giving
    (group, children) branches, each child selecting its part of the group; with
    none, leaf(selected, free, act) runs. Its first result other than None is
    returned. The nodes wait on an explicit stack, children pushed last-first,
    so they are visited depth-first in child order and depth is no limit.
    """
    stack = [(0, (1 << len(masks)) - 1, 0)]
    while stack:
        selected, free, act = stack.pop()
        while True:
            act = closure_mask(masks, thr, act | selected)
            if stats is not None:
                stats.rr1_moves += (free & act).bit_count()
            free &= ~act
            if forced is None or not (low := forced(free)):
                break
            selected |= low
            free &= ~low
        if prune(selected, free, act):
            continue
        for rule in rules:
            if (split := rule(free)) is not None:
                group, children = split
                stack.extend((selected | inside, free & ~group, act)
                             for inside in reversed(children))
                break
        else:
            if (res := leaf(selected, free, act)) is not None:
                return res
    return None


class _Ctx:
    """The decisions of one stage-2 branch about the hidden part B of the selection.

    All vertex sets are masks.
    cover: minimal partial vertex cover of the free part; B holds it and
        covers exactly its free-free edges.
    quota: per excluded vertex, the promised min(|N(v) & B|, thr(v)); only
        vertices whose value was branched on appear.
    inside: the cover plus the free vertices decided into B.
    outside: the free vertices decided out of B.
    """

    __slots__ = ("cover", "quota", "inside", "outside")

    def __init__(self, cover: int, quota: Optional[dict[int, int]] = None,
                 inside: Optional[int] = None, outside: int = 0):
        self.cover = cover
        self.quota = quota if quota is not None else {}
        self.inside = inside if inside is not None else cover
        self.outside = outside

    def feasible_quotas(self, nbr_v: int, thr_v: int, free: int) -> range:
        """Quota values some consistent hidden selection meets: it holds inside and
        lies in free minus outside. Later decisions only narrow this window, so
        stage 3 rejects every value outside it."""
        return range(min(thr_v, (nbr_v & self.inside).bit_count()),
                     min(thr_v, (nbr_v & free & ~self.outside).bit_count()) + 1)


def is_activated_round(
    inst: Instance, free: int, projected: int, v: int, ctx: _Ctx
) -> bool | tuple[str, int]:
    """Whether v (currently outside the projected mask) joins it in the next round.

    Free vertices are decided from the projected neighbor count alone. For an
    excluded vertex the activated neighbors are counted as: exact ones outside
    the free part, plus the promised capped count of hidden selected neighbors,
    plus projected free neighbors individually known to be outside the hidden
    selection. A needed but undecided value is returned instead of a bool, as
    ("quota", v) or ("member", u), u the lowest undecided projected free
    neighbor; decisions, once recorded in ctx, are never branched again.
    """
    assert not (projected >> v) & 1
    in_proj = inst.graph.neighbor_masks()[v] & projected
    thr_v = inst.thr[v]
    if in_proj.bit_count() >= thr_v:
        return True
    if (free >> v) & 1:
        return False
    q = ctx.quota.get(v)
    if q is None:
        return ("quota", v)
    if undecided := in_proj & free & ~(ctx.inside | ctx.outside):
        return ("member", (undecided & -undecided).bit_length() - 1)
    return (in_proj & ~free).bit_count() + q + (in_proj & ctx.outside).bit_count() >= thr_v


def stage3_dp(inst: Instance, selected: int, free: int, ctx: _Ctx, projected: int,
              k: int, l: int, stats: Optional[Stats] = None) -> Optional[int]:
    """Smallest completion of a fully-decided stage-2 branch meeting the activation target.

    selected and free are the stage-1 node's masks, and projected is the
    fixpoint of the branch's projected rounds. Returns the mask of extra picks
    among the free vertices ctx leaves undecided, or None when no completion
    satisfies the target, the promised quotas, and the budget k. The known part
    of the selection is selected | ctx.inside; the caller composes the full
    target set.
    """
    undecided = free & ~(ctx.inside | ctx.outside)
    rest = bits_of(undecided)
    constrained = sorted(ctx.quota)
    caps = tuple(ctx.quota[v] for v in constrained)
    masks = inst.graph.neighbor_masks()
    d_start = tuple(
        min((masks[v] & ctx.inside).bit_count(), inst.thr[v]) for v in constrained
    )
    outside_score = (projected & ~undecided).bit_count()

    def fits(d: tuple[int, ...]) -> bool:
        return all(dj <= cj for dj, cj in zip(d, caps))

    def count(layer) -> None:
        if stats is not None:
            stats.dp_states += len(layer)
            for _, d in layer:
                for v, dj, cj in zip(constrained, d, caps):
                    stats.pair_variants.setdefault(v, set()).add((dj, cj))

    # forward: the reachable (p, d) states of each index within the caps, each
    # layer a dict from state to its position, and per position the positions of
    # its take and skip successors in the next layer (take is -1 where it breaks a quota)
    layer = {(0, d_start): 0} if fits(d_start) else {}
    steps: list[tuple[list[int], list[int]]] = []
    for u in rest:
        count(layer)
        hits = [(masks[v] >> u) & 1 for v in constrained]
        in_proj = (projected >> u) & 1
        nxt: dict = {}
        take_of, skip_of = [], []
        for p, d in layer:
            d_take = tuple(min(inst.thr[v], dj + h) for v, dj, h in zip(constrained, d, hits))
            take_of.append(nxt.setdefault((min(p + 1, l), d_take), len(nxt)) if fits(d_take) else -1)
            skip_of.append(nxt.setdefault((min(p + in_proj, l), d), len(nxt)))
        steps.append((take_of, skip_of))
        layer = nxt
    count(layer)
    # backward: the fewest picks completing each state, skipping a vertex on ties
    best = [0 if d == caps and p + outside_score >= l else None for p, d in layer]
    for u, (take_of, skip_of) in zip(reversed(rest), reversed(steps)):
        prev = []
        for t, s in zip(take_of, skip_of):
            take = None if t < 0 or best[t] is None else best[t] | 1 << u
            skip = best[s]
            if take is None or (skip is not None and skip.bit_count() <= take.bit_count()):
                prev.append(skip)
            else:
                prev.append(take)
        best = prev
    picks = best[0] if best else None
    if picks is None or (selected | ctx.inside).bit_count() + picks.bit_count() > k:
        return None
    return picks


def solve_bounded(
    inst: Instance,
    k: int,
    l: int,
    t: int,
    *,
    gamma: Optional[float] = None,
    stats: Optional[Stats] = None,
) -> Optional[frozenset[int]]:
    """Find X with |X| <= k activating at least l vertices, or None.

    Requires thr(v) <= t everywhere. gamma overrides the brute-force cutoff
    fraction (free part brute-forced once |free| <= gamma*n); the default comes
    from compute_constants. Since the default gamma is close to 1, stages 2-3
    mostly engage on larger instances; pass gamma=0.0 to force them whenever
    the free part is branching-stable. The first feasible set in deterministic
    exploration order is returned.
    """
    if k < 0 or l < 0:
        raise ValueError("budget and target must be non-negative")
    bad = [v for v in range(inst.n) if inst.thr[v] > t]
    if bad:
        raise ValueError(f"threshold {inst.thr[bad[0]]} of vertex {bad[0]} exceeds bound {t}")
    if gamma is None:
        gamma = compute_constants(max(t, 1))[1]
    n, m, thr, masks = inst.n, inst.graph.m, inst.thr, inst.graph.neighbor_masks()
    table = fit_table(thr)

    def prune(selected: int, free: int, act: int) -> bool:
        if selected.bit_count() > k:
            return True
        if l > n or counting_bound(masks, table, m, selected, l) > k:
            if stats is not None:
                stats.bound_prunes += 1
            return True
        return False

    def leaf(selected: int, free: int, act: int) -> Optional[int]:
        size = selected.bit_count()
        if free.bit_count() <= gamma * n:
            if stats is not None:
                stats.br2_leaves += 1
            seed, tested = first_reaching(masks, thr, bits_of(free), k - size, l, act,
                                          counting_bound(masks, table, m, selected, l) - size)
            if stats is not None:
                stats.leaf_seeds += tested
            return None if seed is None else selected | (seed & ~act)
        sub_g, old_ids = inst.graph.induced(bits_of(free))
        # a fresh Stats per enumeration: a wrapper counting the object it is given sees it once
        enum_stats = None if stats is None else Stats()
        try:
            for local_cover in enum_minimal_pvcs(sub_g, max(t, 1), enum_stats):
                cover = mask_of(old_ids[i] for i in bits_of(local_cover))
                if stats is not None:
                    stats.stage2_covers += 1
                res = _explore(selected, free, cover)
                if res is not None:
                    return res
            return None
        finally:
            if enum_stats is not None:
                for key in ("branch_nodes", "leaf_nodes", "leaf_subsets", "emitted"):
                    setattr(stats, key, getattr(stats, key) + getattr(enum_stats, key))

    def _explore(selected: int, free: int, cover: int) -> Optional[int]:
        """Replay the projected rounds of one cover's branches, closing each with
        stage 3. An entry (ctx, projected, outside, i, newly) resumes the current
        round at outside[i], newly holding the round's activations so far. At an
        undecided fact each child resumes there: vertices already evaluated
        needed no fact, and added facts leave their outcome unchanged."""
        projected = selected | cover
        outside = [v for v in range(n) if not (projected >> v) & 1]
        stack = [(_Ctx(cover), projected, outside, 0, 0)]
        while stack:
            ctx, projected, outside, j, newly = stack.pop()
            while j < len(outside) or newly:
                if j == len(outside):  # the round is over: the next starts
                    projected |= newly
                    outside = [v for v in outside if not (newly >> v) & 1]
                    j, newly = 0, 0
                    continue
                got = is_activated_round(inst, free, projected, outside[j], ctx)
                if not isinstance(got, bool):
                    break
                if got:
                    newly |= 1 << outside[j]
                j += 1
            else:  # a fixpoint reached with every needed fact decided
                if stats is not None:
                    stats.stage2_leaves += 1
                picks = stage3_dp(inst, selected, free, ctx, projected, k, l, stats)
                if picks is not None:
                    return selected | ctx.inside | picks
                continue
            kind, u = got
            if kind == "quota":
                if stats is not None:
                    stats.quota_branches.append((thr[u], thr[u] + 1))
                children = [_Ctx(ctx.cover, {**ctx.quota, u: c}, ctx.inside, ctx.outside)
                            for c in ctx.feasible_quotas(masks[u], thr[u], free)]
            else:
                if stats is not None:
                    stats.member_branches += 1
                children = [_Ctx(ctx.cover, ctx.quota, ctx.inside, ctx.outside | 1 << u),
                            _Ctx(ctx.cover, ctx.quota, ctx.inside | 1 << u, ctx.outside)]
            stack.extend((child, projected, outside, j, newly) for child in reversed(children))
        return None

    def br1(free: int) -> Split:
        # BR1 stops where the leaf's brute force takes over
        return None if free.bit_count() <= gamma * n else br1_split(masks, thr, free, stats)

    found = branch_and_reduce(masks, thr, [br1], prune, leaf, stats)
    return None if found is None else members(found)
