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
about the hidden selection.

Stage 3 closes each fully-decided branch with a dynamic program over the
remaining undecided vertices, minimizing the selection size subject to the
activation target and the counts promised during stage 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log2
from typing import Optional, Sequence

from .activation import closure_mask, mask_of, members, seed_masks
from .activation import closure  # noqa: F401  perfbench/spans.py wraps this name
from .instance import Instance, subsets_ascending
from .mpvc import enum_minimal_pvcs
from .stats import Stats


def compute_constants(t: int) -> tuple[float, float]:
    """(omega_t, gamma_t): the cover-enumeration exponent and the brute-force
    cutoff fraction balancing stage 1 against stages 2-3. Both are strictly
    below 1 for every t >= 1.
    """
    if t < 1:
        raise ValueError("threshold bound must be at least 1")
    omega = log2(2**t - 1) / t**2 + (t - 1) / t
    pair_bits = log2(comb(t + 2, 2))
    gamma = ((t - 1) + pair_bits) / ((t - omega) + pair_bits)
    return omega, gamma


@dataclass(frozen=True)
class SearchState:
    """Tri-partition maintained by the branching search."""

    selected: frozenset[int]  # forced into the target set
    excluded: frozenset[int]  # forced out of the target set
    free: frozenset[int]      # undecided

    def __post_init__(self) -> None:
        assert not (self.selected & self.excluded)
        assert not (self.selected & self.free)
        assert not (self.excluded & self.free)


@dataclass
class BranchLeaf:
    """A fully-decided stage-2 branch, ready for the closing dynamic program.

    cover: minimal partial vertex cover of the free part, known inside the
        hidden selection and covering exactly its free-free edges.
    quota: per excluded vertex, the promised value of
        min(number of its hidden selected neighbors, its threshold);
        only vertices whose value was actually branched on appear.
    membership: individual in/out decisions for free vertices.
    projected: fixpoint of the projected activation rounds; it matches the
        true activated set outside the hidden selection for every selection
        consistent with (cover, quota, membership).
    """

    inst: Instance
    state: SearchState
    cover: frozenset[int]
    quota: dict[int, int]
    membership: dict[int, bool]
    projected: frozenset[int]


def br1_split(
    nbr: Sequence[frozenset[int]], thr: Sequence[int], free: frozenset[int]
) -> Optional[tuple[frozenset[int], list[tuple[frozenset[int], frozenset[int]]]]]:
    """Branching rule BR1 over the free part: (group, children), or None if it does not apply.

    The pivot is the free vertex with the most free neighbors among those with
    at least thr of them (the smallest id on ties); the group is the pivot plus
    its thr smallest free neighbors. The children, as (to select, to exclude)
    pairs over the group, are every split selecting fewer than thr members, in
    (size, lexicographic) order, then the split selecting the thr neighbors,
    which activate the pivot, and excluding the pivot.
    """
    pivot = -1
    pivot_deg = -1
    for v in sorted(free):
        deg_free = len(nbr[v] & free)
        if deg_free >= thr[v] and deg_free > pivot_deg:
            pivot, pivot_deg = v, deg_free
    if pivot < 0:
        return None
    group_t = sorted(nbr[pivot] & free)[: thr[pivot]]
    group = frozenset(group_t + [pivot])
    children = [
        (frozenset(inside), group - frozenset(inside))
        for inside in subsets_ascending(sorted(group), thr[pivot] - 1)
    ]
    children.append((frozenset(group_t), frozenset({pivot})))
    return group, children


class _Ctx:
    """Accumulated stage-2 decisions; cover members count as selected."""

    __slots__ = ("cover", "quota", "member")

    def __init__(self, cover: frozenset[int], quota: Optional[dict[int, int]] = None,
                 member: Optional[dict[int, bool]] = None):
        self.cover = cover
        self.quota = quota if quota is not None else {}
        self.member = member if member is not None else {}

    def membership_of(self, u: int) -> Optional[bool]:
        if u in self.cover:
            return True
        return self.member.get(u)

    def feasible_quotas(self, nbr_v: frozenset[int], thr_v: int, free: frozenset[int]) -> range:
        """Quota values some consistent hidden selection meets: it holds the cover and
        the members set true, and lies in free minus the members set false. Later
        decisions only narrow this window, so stage 3 rejects every value outside it."""
        known_in = self.cover.union(u for u, b in self.member.items() if b)
        known_out = frozenset(u for u, b in self.member.items() if not b)
        return range(min(thr_v, len(nbr_v & known_in)),
                     min(thr_v, len(nbr_v & (free - known_out))) + 1)


def is_activated_round(
    inst: Instance, state: SearchState, projected: frozenset[int], v: int, ctx: _Ctx
) -> bool | tuple[str, int]:
    """Whether v (currently outside the projected set) joins it in the next round.

    Free vertices are decided from the projected neighbor count alone. For an
    excluded vertex the activated neighbors are counted as: exact ones outside
    the free part, plus the promised capped count of hidden selected neighbors,
    plus projected free neighbors individually known to be outside the hidden
    selection. A needed but undecided value is returned instead of a bool, as
    ("quota", v) or ("member", u); decisions, once recorded in ctx, are never
    branched again.
    """
    assert v not in projected
    nbr = inst.graph.neighbor_sets()[v]
    thr_v = inst.thr[v]
    in_proj = nbr & projected
    if len(in_proj) >= thr_v:
        return True
    if v in state.free:
        return False
    assert v in state.excluded
    m = len(in_proj - state.free)
    q = ctx.quota.get(v)
    if q is None:
        return ("quota", v)
    m += q
    for u in sorted(in_proj & state.free):
        member = ctx.membership_of(u)
        if member is None:
            return ("member", u)
        if not member:
            m += 1
    return m >= thr_v


def stage3_dp(leaf: BranchLeaf, k: int, l: int,
              stats: Optional[Stats] = None) -> Optional[frozenset[int]]:
    """Smallest completion of the leaf's known selection meeting the activation target.

    Returns the extra picks among the still-undecided vertices, or None when no
    completion satisfies the target, the promised counts, and the budget k.
    The known part of the selection is leaf.state.selected plus the cover plus
    the membership-true vertices; the caller composes the full target set.
    """
    inst = leaf.inst
    state = leaf.state
    known_in = state.selected | leaf.cover | frozenset(
        u for u, b in leaf.membership.items() if b
    )
    known_out = state.excluded | frozenset(u for u, b in leaf.membership.items() if not b)
    rest = sorted(set(range(inst.n)) - known_in - known_out)
    hidden_known = known_in - state.selected
    constrained = sorted(leaf.quota)
    caps = tuple(leaf.quota[v] for v in constrained)
    nbr = inst.graph.neighbor_sets()
    d_start = tuple(
        min(len(nbr[v] & hidden_known), inst.thr[v]) for v in constrained
    )
    proj = leaf.projected
    outside_score = len(proj - set(rest))
    in_proj = [u in proj for u in rest]
    memo: dict[tuple, Optional[frozenset[int]]] = {}

    def rec(i: int, p: int, d: tuple[int, ...]) -> Optional[frozenset[int]]:
        if any(dj > cj for dj, cj in zip(d, caps)):
            return None
        key = (i, p, d)
        if key in memo:
            return memo[key]
        if stats is not None:
            stats.dp_states += 1
            for v, dj, cj in zip(constrained, d, caps):
                stats.pair_variants.setdefault(v, set()).add((dj, cj))
        if i == len(rest):
            result = frozenset() if d == caps and p + outside_score >= l else None
        else:
            u = rest[i]
            d_take = tuple(
                min(inst.thr[v], dj + (1 if u in nbr[v] else 0))
                for v, dj in zip(constrained, d)
            )
            sub = rec(i + 1, min(p + 1, l), d_take)
            take = None if sub is None else sub | {u}
            skip = rec(i + 1, min(p + (1 if in_proj[i] else 0), l), d)
            if take is None:
                result = skip
            elif skip is None:
                result = take
            else:
                result = skip if len(skip) <= len(take) else take
        memo[key] = result
        return result

    picks = rec(0, 0, d_start)
    if picks is None or len(known_in) + len(picks) > k:
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
    leaf_sink: Optional[list[BranchLeaf]] = None,
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
    n = inst.n
    thr = inst.thr
    nbr = inst.graph.neighbor_sets()
    masks = inst.graph.neighbor_masks()

    def stage1(selected: frozenset[int], excluded: frozenset[int],
               free: frozenset[int], act: int) -> Optional[frozenset[int]]:
        # act is the parent's closure: exact as a seed, since the selection only grows
        act = closure_mask(masks, thr, act | mask_of(selected))
        move = frozenset(v for v in free if (act >> v) & 1)
        if stats is not None:
            stats.rr1_moves += len(move)
        excluded |= move
        free -= move
        if len(selected) > k:
            return None
        if len(free) <= gamma * n:
            if stats is not None:
                stats.br2_leaves += 1
            for seed in seed_masks(sorted(free), k - len(selected), act):
                if closure_mask(masks, thr, seed).bit_count() >= l:
                    return selected | members(seed & ~act)
            return None
        split = br1_split(nbr, thr, free)
        if split is not None:
            group, children = split
            if stats is not None:
                stats.br1_apps += 1
                stats.br1_children.append((len(group) - 1, len(children)))
            for to_sel, to_exc in children:
                res = stage1(selected | to_sel, excluded | to_exc, free - group, act)
                if res is not None:
                    return res
            return None
        state = SearchState(selected, excluded, free)
        sub_g, old_ids = inst.graph.induced(free)
        # a fresh Stats per enumeration: a wrapper counting the object it is given sees it once
        enum_stats = None if stats is None else Stats()
        try:
            for local_cover in enum_minimal_pvcs(sub_g, max(t, 1), enum_stats):
                cover = frozenset(old_ids[i] for i in local_cover)
                if stats is not None:
                    stats.stage2_covers += 1
                projected = selected | cover
                res = _explore(state, _Ctx(cover), projected,
                               sorted(set(range(n)) - projected), 0, [])
                if res is not None:
                    return res
            return None
        finally:
            if enum_stats is not None:
                for key in ("branch_nodes", "leaf_nodes", "leaf_subsets", "emitted"):
                    setattr(stats, key, getattr(stats, key) + getattr(enum_stats, key))

    def _explore(state: SearchState, ctx: _Ctx, projected: frozenset[int],
                 outside: list[int], i: int, newly: list[int]) -> Optional[frozenset[int]]:
        """Replay the projected rounds from outside[i] of the current round, where
        newly holds the round's activations so far. At an undecided fact each child
        resumes here: vertices already evaluated needed no fact, and added facts
        leave their outcome unchanged."""
        while True:
            for j in range(i, len(outside)):
                got = is_activated_round(inst, state, projected, outside[j], ctx)
                if isinstance(got, bool):
                    if got:
                        newly.append(outside[j])
                    continue
                kind, u = got
                if kind == "quota":
                    if stats is not None:
                        stats.quota_branches.append((thr[u], thr[u] + 1))
                    children = (_Ctx(ctx.cover, {**ctx.quota, u: c}, ctx.member)
                                for c in ctx.feasible_quotas(nbr[u], thr[u], state.free))
                else:
                    if stats is not None:
                        stats.member_branches += 1
                    children = (_Ctx(ctx.cover, ctx.quota, {**ctx.member, u: c})
                                for c in (False, True))
                for child in children:
                    res = _explore(state, child, projected, outside, j, newly[:])
                    if res is not None:
                        return res
                return None
            if not newly:
                break
            projected = projected | frozenset(newly)
            outside = [v for v in outside if v not in projected]
            i, newly = 0, []
        leaf = BranchLeaf(inst, state, ctx.cover, ctx.quota, ctx.member, projected)
        if leaf_sink is not None:
            leaf_sink.append(leaf)
        if stats is not None:
            stats.stage2_leaves += 1
        picks = stage3_dp(leaf, k, l, stats)
        if picks is None:
            return None
        return state.selected | leaf.cover | frozenset(
            u for u, b in leaf.membership.items() if b
        ) | picks

    return stage1(frozenset(), frozenset(), frozenset(range(n)), 0)
