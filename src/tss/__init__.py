"""Exact solvers for threshold-activation target set selection on small graphs."""

from .activation import ActivationTrace, activate, closure, is_perfect_target_set
from .bounded_thr import compute_constants, solve_bounded, stage3_dp
from .degree_ratio import construct_small_pts, pts_from_permutation, solve_ratio_tss
from .dual_thr import is_d_degenerate, solve_dual_perfect
from .instance import (
    Graph,
    Instance,
    InstanceFormatError,
    gen_random,
    parse_instance,
    write_instance,
)
from .mpvc import covered_edges, enum_minimal_pvcs, is_minimal_pvc
from .oracle import (
    oracle_enum_mpvc,
    oracle_has_clique,
    oracle_max_d_degenerate,
    oracle_min_perfect_tss,
    oracle_tss_decision,
)
from .perfect_small_thr import (
    gadget_bounded_to_equal,
    solve_perfect_thr2,
    solve_perfect_thr3,
)
from .reductions import ReductionOutput, reduce_clique_to_tss
from .sliced import solve_sliced

__all__ = [
    "ActivationTrace",
    "Graph",
    "Instance",
    "InstanceFormatError",
    "ReductionOutput",
    "activate",
    "closure",
    "compute_constants",
    "construct_small_pts",
    "covered_edges",
    "enum_minimal_pvcs",
    "gadget_bounded_to_equal",
    "gen_random",
    "is_d_degenerate",
    "is_minimal_pvc",
    "is_perfect_target_set",
    "oracle_enum_mpvc",
    "oracle_has_clique",
    "oracle_max_d_degenerate",
    "oracle_min_perfect_tss",
    "oracle_tss_decision",
    "parse_instance",
    "pts_from_permutation",
    "reduce_clique_to_tss",
    "solve_bounded",
    "solve_dual_perfect",
    "solve_perfect_thr2",
    "solve_perfect_thr3",
    "solve_ratio_tss",
    "solve_sliced",
    "stage3_dp",
    "write_instance",
]
