"""Search counters shared by every solver and reported by the CLI's --stats."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class Stats:
    """Instrumentation counters for one solver run; a solver fills the ones it has.

    Solvers take an optional Stats and count nothing when given None. List
    fields keep one entry per rule application, so tests can check each one.
    """

    # branch-and-reduce, shared by bounded (stage 1) and thr2/thr3 (part 2)
    rr1_moves: int = 0
    bound_prunes: int = 0  # nodes cut by the counting bound, in dual too
    br1_apps: int = 0
    br1_children: list[tuple[int, int]] = field(default_factory=list)  # (threshold, children)
    # bounded: stage-1 brute-force leaves, stage 2, stage-3 DP
    br2_leaves: int = 0
    leaf_seeds: int = 0  # seeds the stage-1 leaves test, up to and including a hit
    stage2_covers: int = 0
    quota_branches: list[tuple[int, int]] = field(default_factory=list)  # (threshold, choices)
    member_branches: int = 0
    stage2_leaves: int = 0
    dp_states: int = 0
    pair_variants: dict[int, set[tuple[int, int]]] = field(default_factory=dict)
    # thr2/thr3
    rr3_moves: int = 0
    r4_apps: int = 0
    r4_children: list[int] = field(default_factory=list)
    r5_apps: int = 0
    r5_children: list[int] = field(default_factory=list)
    part1_max_size: int = 0
    part1_found: bool = False
    leaf_bruteforces: int = 0
    dual_nodes: int = 0  # dual: nodes of the branch-and-bound
    dual_peels: int = 0  # dual: full peels run to test whether a vertex joins the pick
    # minimal partial vertex cover enumeration
    branch_nodes: int = 0
    leaf_nodes: int = 0
    leaf_subsets: int = 0
    emitted: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter as an int, in field order: the one --stats schema.

        A list of rule applications reports its children (or choices) summed.
        pair_variants, a set of pairs per vertex, is not a counter and is left out.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                continue
            if isinstance(value, list):
                value = sum(c if isinstance(c, int) else c[1] for c in value)
            out[f.name] = int(value)
        return out
