"""Search counters shared by every solver and reported by the CLI's --stats."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Stats:
    """Instrumentation counters for one solver run; a solver fills the ones it has.

    Every solver always counts: one given None makes its own. Every field is an
    int; a rule's children (or quota choices) are summed over its applications.
    """

    # branch-and-reduce, shared by bounded (stage 1) and thr2/thr3 (part 2)
    rr1_moves: int = 0
    bound_prunes: int = 0  # nodes cut by the counting bound, in dual too
    br1_apps: int = 0
    br1_children: int = 0
    # bounded: stage-1 brute-force leaves, stage 2, stage-3 DP
    br2_leaves: int = 0
    leaf_seeds: int = 0  # seeds the stage-1 leaves test, up to and including a hit
    stage2_covers: int = 0
    quota_branches: int = 0  # thr(v) + 1 per quota branch on v
    member_branches: int = 0
    stage2_leaves: int = 0
    dp_states: int = 0
    # thr2/thr3
    rr3_moves: int = 0
    r4_apps: int = 0
    r4_children: int = 0
    r5_apps: int = 0
    r5_children: int = 0
    part1_max_size: int = 0
    part1_found: int = 0  # 1 when part 1 found the answer
    leaf_bruteforces: int = 0
    dual_nodes: int = 0  # dual: nodes of the branch-and-bound
    dual_peels: int = 0  # dual: full peels run to test whether a vertex joins the pick
    # minimal partial vertex cover enumeration
    branch_nodes: int = 0
    leaf_nodes: int = 0
    leaf_subsets: int = 0
    emitted: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter, in field order: the one --stats schema."""
        return asdict(self)
