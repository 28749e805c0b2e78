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

from dataclasses import dataclass, field
from math import comb, log2
from typing import Optional, Sequence

from .activation import closure, closure_mask, mask_of, members, seed_masks
from .instance import Instance, subsets_ascending
from .mpvc import enum_minimal_pvcs


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


@dataclass
class SolveStats:
    """Instrumentation counters for one solve_bounded run."""

    rr1_moves: int = 0
    br1_apps: int = 0
    br1_children: list[tuple[int, int]] = field(default_factory=list)  # (threshold, children)
    br2_leaves: int = 0
    stage2_covers: int = 0
    quota_branches: list[tuple[int, int]] = field(default_factory=list)
    member_branches: int = 0
    stage2_leaves: int = 0
    dp_states: int = 0
    pair_variants: dict[int, set[tuple[int, int]]] = field(default_factory=dict)

    def scalar_items(self) -> list[tuple[str, int]]:
        return [
            ("rr1_moves", self.rr1_moves),
            ("br1_apps", self.br1_apps),
            ("br1_children", sum(c for _, c in self.br1_children)),
            ("br2_leaves", self.br2_leaves),
            ("stage2_covers", self.stage2_covers),
            ("quota_branches", sum(c for _, c in self.quota_branches)),
            ("member_branches", self.member_branches),
            ("stage2_leaves", self.stage2_leaves),
            ("dp_states", self.dp_states),
        ]


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


class DecisionNeeded(Exception):
    """Raised while projecting rounds when an undecided hidden-selection fact is required."""

    def __init__(self, kind: str, vertex: int, choices: tuple):
        super().__init__(f"{kind} decision needed for vertex {vertex}")
        self.kind = kind
        self.vertex = vertex
        self.choices = choices


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

    def with_decision(self, kind: str, vertex: int, choice) -> "_Ctx":
        if kind == "quota":
            quota = dict(self.quota)
            quota[vertex] = choice
            return _Ctx(self.cover, quota, self.member)
        member = dict(self.member)
        member[vertex] = choice
        return _Ctx(self.cover, self.quota, member)


def is_activated_round(
    inst: Instance, state: SearchState, projected: frozenset[int], v: int, ctx: _Ctx
) -> bool:
    """Whether v (currently outside the projected set) joins it in the next round.

    Free vertices are decided from the projected neighbor count alone. For an
    excluded vertex the activated neighbors are counted as: exact ones outside
    the free part, plus the promised capped count of hidden selected neighbors,
    plus projected free neighbors individually known to be outside the hidden
    selection. A needed but undecided value raises DecisionNeeded; decisions,
    once recorded in ctx, are never branched again.
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
        raise DecisionNeeded("quota", v, tuple(range(thr_v + 1)))
    m += q
    for u in sorted(in_proj & state.free):
        member = ctx.membership_of(u)
        if member is None:
            raise DecisionNeeded("member", u, (False, True))
        if not member:
            m += 1
    return m >= thr_v


def _project(inst: Instance, state: SearchState, ctx: _Ctx) -> frozenset[int]:
    """Fixpoint of the projected activation rounds; DecisionNeeded propagates to the caller."""
    projected = state.selected | ctx.cover
    outside = sorted(set(range(inst.n)) - projected)
    while True:
        newly = [v for v in outside if is_activated_round(inst, state, projected, v, ctx)]
        if not newly:
            return projected
        projected = projected | frozenset(newly)
        outside = [v for v in outside if v not in projected]


def stage3_dp(leaf: BranchLeaf, k: int, l: int,
              stats: Optional[SolveStats] = None) -> Optional[frozenset[int]]:
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
    apply_rr1: bool = True,
    stats: Optional[SolveStats] = None,
    leaf_sink: Optional[list[BranchLeaf]] = None,
) -> Optional[frozenset[int]]:
    """Find X with |X| <= k activating at least l vertices, or None.

    Requires thr(v) <= t everywhere. gamma overrides the brute-force cutoff
    fraction (free part brute-forced once |free| <= gamma*n); the default comes
    from compute_constants. Since the default gamma is close to 1, stages 2-3
    mostly engage on larger instances; pass gamma=0.0 to force them whenever
    the free part is branching-stable. apply_rr1=False disables the free
    exclusion of already-activated vertices (for metamorphic testing only).
    The first feasible set in deterministic exploration order is returned.
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
               free: frozenset[int]) -> Optional[frozenset[int]]:
        if apply_rr1:
            move = closure(inst, selected) & free
            if move:
                if stats is not None:
                    stats.rr1_moves += len(move)
                excluded |= move
                free -= move
        if len(selected) > k:
            return None
        if len(free) <= gamma * n:
            if stats is not None:
                stats.br2_leaves += 1
            for seed in seed_masks(sorted(free), k - len(selected), mask_of(selected)):
                if closure_mask(masks, thr, seed).bit_count() >= l:
                    return members(seed)
            return None
        split = br1_split(nbr, thr, free)
        if split is not None:
            group, children = split
            if stats is not None:
                stats.br1_apps += 1
                stats.br1_children.append((len(group) - 1, len(children)))
            for to_sel, to_exc in children:
                res = stage1(selected | to_sel, excluded | to_exc, free - group)
                if res is not None:
                    return res
            return None
        state = SearchState(selected, excluded, free)
        sub_g, old_ids = inst.graph.induced(free)
        for local_cover in enum_minimal_pvcs(sub_g, max(t, 1)):
            cover = frozenset(old_ids[i] for i in local_cover)
            if stats is not None:
                stats.stage2_covers += 1
            res = _explore(state, _Ctx(cover))
            if res is not None:
                return res
        return None

    def _explore(state: SearchState, ctx: _Ctx) -> Optional[frozenset[int]]:
        try:
            projected = _project(inst, state, ctx)
        except DecisionNeeded as need:
            if stats is not None:
                if need.kind == "quota":
                    stats.quota_branches.append((thr[need.vertex], len(need.choices)))
                else:
                    stats.member_branches += 1
            for choice in need.choices:
                res = _explore(state, ctx.with_decision(need.kind, need.vertex, choice))
                if res is not None:
                    return res
            return None
        leaf = BranchLeaf(inst, state, ctx.cover, dict(ctx.quota),
                          dict(ctx.member), projected)
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

    return stage1(frozenset(), frozenset(), frozenset(range(n)))
