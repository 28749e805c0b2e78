"""Pinned search order of the exact solvers on seeded generated instances.

Every solver returns the first answer its deterministic exploration reaches,
so the witness, the solver's own counters and the number of closure
evaluations together fix the order in which it explores. A change to the
search code that keeps all three has not changed what any solver explores.
"""

from __future__ import annotations

import sys

import pytest

import tss.activation as activation
from tss import Instance
from tss.bounded_thr import solve_bounded
from tss.degree_ratio import solve_ratio_tss
from tss.dual_thr import solve_dual_perfect
from tss.instance import gen_random
from tss.mpvc import enum_minimal_pvcs
from tss.perfect_small_thr import solve_perfect_thr2, solve_perfect_thr3
from tss.sliced import solve_sliced
from tss.stats import Stats

# The pinned counters of each solver, in the order of the EXPECTED tuples.
BOUNDED_COUNTERS = ("rr1_moves", "br1_apps", "br1_children", "br2_leaves", "leaf_seeds",
                    "stage2_covers", "quota_branches", "member_branches", "stage2_leaves",
                    "dp_states")
PERFECT_COUNTERS = ("rr1_moves", "rr3_moves", "br1_apps", "br1_children", "r4_apps",
                    "r4_children", "r5_apps", "r5_children", "part1_max_size",
                    "part1_found", "leaf_bruteforces")


def _third_instance(seed: int, p: float = 0.3) -> Instance:
    """A gnp draw with every threshold at the degree/3 cap, ceil(deg/3)."""
    g = gen_random("gnp", 14, "const", seed, p=p, thr_param=0).graph
    return Instance(g, tuple(-(-g.degree(v) // 3) for v in range(g.n)))


def _counting(monkeypatch) -> dict[str, int]:
    """Count closure_mask and closure calls through the globals of every loaded
    tss module that imports them, so a call keeps its count when it moves from
    one module to another."""
    calls = {"mask": 0, "closure": 0}
    for module in [m for mod_name, m in sys.modules.items() if mod_name.startswith("tss.")]:
        for name, key in (("closure_mask", "mask"), ("closure", "closure")):
            original = getattr(activation, name)
            if module is activation or vars(module).get(name) is not original:
                continue

            def counted(*args, _original=original, _key=key):
                calls[_key] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


def _run(case: tuple, monkeypatch):
    """Witness, plus for bounded/thr2/thr3 the solver's counters (children
    summed over branchings) and its closure_mask and closure call counts,
    for dual its branch-and-bound node count, and for sliced the seeds it tests."""
    kind = case[0]
    if kind in ("bounded", "gamma0", "gamma0-reg"):
        if kind == "gamma0-reg":
            _, n, degree, t, seed, k, l = case
            inst = gen_random("regular", n, "const", seed, degree=degree, thr_param=t)
        else:
            _, model, n, p, seed, k, l = case
            inst, t = gen_random(model, n, "const", seed, p=p, thr_param=2), 2
        calls = _counting(monkeypatch)
        stats = Stats()
        gamma = None if kind == "bounded" else 0.0
        witness = solve_bounded(inst, k, l, t, gamma=gamma, stats=stats)
        counters = tuple(stats.as_dict()[key] for key in BOUNDED_COUNTERS)
        return _sorted(witness), counters + (calls["mask"], calls["closure"])
    if kind in ("thr2", "thr3"):
        _, model, n, thr_model, param, seed = case
        t = 2 if kind == "thr2" else 3
        flags = {"degree": param} if model == "regular" else {"p": param}
        inst = gen_random(model, n, thr_model, seed, thr_param=t, **flags)
        calls = _counting(monkeypatch)
        stats = Stats()
        solver = solve_perfect_thr2 if t == 2 else solve_perfect_thr3
        witness = solver(inst, stats)
        counters = tuple(stats.as_dict()[key] for key in PERFECT_COUNTERS)
        return _sorted(witness), counters + (calls["mask"], calls["closure"])
    if kind == "dual":
        _, n, d, seed = case
        inst = gen_random("gnp", n, "dual", seed, p=0.4, thr_param=d)
        stats = Stats()
        witness = solve_dual_perfect(inst, stats)
        return _sorted(witness), stats.dual_nodes
    if kind == "sliced":
        _, model, n, p, seed, t, k, l = case
        stats = Stats()
        witness = solve_sliced(gen_random(model, n, "const", seed, p=p, thr_param=t), k, l, stats)
        return _sorted(witness), stats.leaf_seeds
    _, seed, k, l, *p = case
    return _sorted(solve_ratio_tss(_third_instance(seed, *p), k, l))


def _sorted(witness):
    return None if witness is None else sorted(witness)


# The last field of each bounded/thr2/thr3 entry, set-based closure calls,
# is 0 throughout: the solvers' inner loops run on closure_mask alone, apart
# from bounded's stage-1 leaves, whose bit-sliced seeds leaf_seeds counts.
EXPECTED: dict[tuple, object] = {
    ("bounded", "gnp", 12, 0.35, 0, 4, 12): ([1, 2, 8, 10], (0, 1, 5, 1, 17, 0, 0, 0, 0, 0, 2, 0)),
    ("bounded", "gnp", 12, 0.35, 0, 3, 12): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("bounded", "gnp", 12, 0.35, 0, 2, 8): (None, (1, 1, 5, 5, 77, 0, 0, 0, 0, 0, 6, 0)),
    ("bounded", "gnp", 12, 0.35, 1, 2, 12): ([5, 6], (0, 1, 5, 1, 25, 0, 0, 0, 0, 0, 2, 0)),
    ("bounded", "gnp", 12, 0.35, 1, 1, 12): (None, (7, 1, 5, 4, 12, 0, 0, 0, 0, 0, 6, 0)),
    ("bounded", "gnp", 12, 0.35, 1, 2, 8): ([2, 3], (0, 1, 5, 1, 11, 0, 0, 0, 0, 0, 2, 0)),
    ("bounded", "gnp", 12, 0.35, 2, 4, 12): ([0, 6, 7, 9], (0, 1, 5, 1, 122, 0, 0, 0, 0, 0, 2, 0)),
    ("bounded", "gnp", 12, 0.35, 2, 3, 12): (None, (4, 1, 5, 5, 197, 0, 0, 0, 0, 0, 6, 0)),
    ("bounded", "gnp", 12, 0.35, 2, 2, 8): (None, (4, 1, 5, 5, 77, 0, 0, 0, 0, 0, 6, 0)),
    ("bounded", "gnp", 12, 0.35, 3, 4, 12): ([2, 4, 5, 8], (0, 1, 5, 1, 23, 0, 0, 0, 0, 0, 2, 0)),
    ("bounded", "gnp", 12, 0.35, 3, 3, 12): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("bounded", "gnp", 12, 0.35, 3, 2, 8): (None, (0, 1, 5, 5, 77, 0, 0, 0, 0, 0, 6, 0)),
    ("gamma0", "gnp", 7, 0.45, 0, 4, 7): ([0, 1, 2, 5], (0, 1, 5, 0, 0, 5, 72, 0, 28, 137, 3, 0)),
    ("gamma0", "gnp", 7, 0.45, 0, 3, 7): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("gamma0", "gnp", 7, 0.45, 1, 2, 7): ([4, 6], (1, 2, 10, 1, 1, 4, 111, 0, 16, 15, 7, 0)),
    ("gamma0", "gnp", 7, 0.45, 1, 1, 7): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("gamma0", "gnp", 7, 0.45, 2, 3, 7): ([1, 3, 5], (0, 1, 5, 0, 0, 1, 27, 0, 17, 186, 2, 0)),
    ("gamma0", "gnp", 7, 0.45, 2, 2, 7): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    # Shaped like the decision benchmark's gamma0 families: (kind, n, degree,
    # threshold, seed, k, l) on regular draws, with k = opt and opt - 1.
    ("gamma0-reg", 7, 4, 2, 0, 2, 7): ([2, 6], (0, 2, 10, 0, 0, 2, 108, 0, 32, 9, 4, 0)),
    ("gamma0-reg", 7, 4, 2, 0, 1, 7): (None, (17, 5, 25, 0, 0, 7, 285, 0, 80, 39, 26, 0)),
    ("gamma0-reg", 7, 4, 2, 1, 2, 7): ([3, 6], (0, 2, 10, 0, 0, 2, 84, 0, 24, 9, 4, 0)),
    ("gamma0-reg", 7, 4, 2, 1, 1, 7): (None, (17, 5, 25, 0, 0, 7, 270, 0, 80, 39, 26, 0)),
    ("gamma0-reg", 7, 4, 3, 0, 3, 7): ([0, 2, 6], (0, 1, 12, 0, 0, 6, 412, 2, 177, 168, 3, 0)),
    ("gamma0-reg", 7, 4, 3, 0, 2, 7): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("gamma0-reg", 7, 4, 3, 1, 3, 7): ([0, 4, 6], (0, 1, 12, 0, 0, 9, 352, 0, 112, 163, 3, 0)),
    ("gamma0-reg", 7, 4, 3, 1, 2, 7): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("gamma0-reg", 7, 2, 2, 0, 4, 7):
        ([0, 3, 4, 6], (0, 3, 15, 0, 0, 10, 183, 0, 32, 54, 13, 0)),
    ("gamma0-reg", 7, 2, 2, 0, 3, 7): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("gamma0-reg", 7, 2, 2, 1, 4, 7):
        ([0, 2, 3, 4], (0, 3, 15, 0, 0, 10, 207, 0, 32, 54, 13, 0)),
    ("gamma0-reg", 7, 2, 2, 1, 3, 7): (None, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    # Stage 2's member branches: a YES and a NO query on one gnp draw, and a
    # t = 3 NO query where the counting bound is slack and stage 2 runs dry.
    ("gamma0", "gnp", 9, 0.35, 7, 2, 9): ([5, 8], (0, 2, 10, 0, 0, 1, 117, 24, 92, 116, 3, 0)),
    ("gamma0", "gnp", 9, 0.35, 7, 1, 9):
        (None, (42, 5, 25, 0, 0, 21, 1566, 146, 958, 363, 26, 0)),
    ("gamma0-reg", 7, 4, 3, 0, 2, 6): (None, (3, 1, 12, 0, 0, 55, 1236, 20, 575, 919, 13, 0)),
    ("thr2", "gnp", 14, "const", 0.6, 0): ([0, 1], (0, 0, 0, 0, 0, 0, 0, 0, 6, 1, 0, 17, 0)),
    ("thr2", "gnp", 14, "const", 0.6, 1): ([0, 1], (0, 0, 0, 0, 0, 0, 0, 0, 6, 1, 0, 17, 0)),
    ("thr2", "regular", 10, "const", 2, 0):
        ([0, 5, 6, 7, 8], (2, 4, 2, 10, 4, 12, 0, 0, 5, 0, 2, 45, 0)),
    ("thr2", "regular", 10, "const", 2, 1):
        ([0, 1, 5, 7, 9], (4, 4, 3, 15, 0, 0, 0, 0, 5, 0, 1, 33, 0)),
    ("thr2", "gnp", 10, "const", 0.4, 0):
        ([2, 3, 4, 5, 9], (12, 6, 6, 30, 0, 0, 0, 0, 5, 0, 2, 60, 0)),
    ("thr2", "gnp", 10, "const", 0.4, 1): ([6, 8], (23, 5, 3, 15, 0, 0, 0, 0, 5, 0, 1, 36, 0)),
    ("thr2", "gnp", 10, "const", 0.4, 2): ([3, 5], (14, 4, 5, 25, 0, 0, 0, 0, 5, 0, 3, 50, 0)),
    ("thr3", "gnp", 10, "const", 0.3, 1):
        ([2, 6, 7, 8, 9], (68, 10, 11, 132, 0, 0, 2, 14, 9, 0, 12, 239, 0)),
    ("thr3", "gnp", 10, "const", 0.3, 39):
        ([2, 4, 6, 7, 8, 9], (3, 12, 1, 12, 0, 0, 10, 70, 9, 0, 1, 115, 0)),
    ("thr3", "gnp", 10, "uniform", 0.3, 34):
        ([0, 1, 3, 5, 8], (4, 11, 1, 12, 0, 0, 5, 35, 9, 0, 1, 64, 0)),
    ("thr3", "regular", 10, "const", 3, 0):
        ([0, 1, 3, 5, 6, 7], (3, 9, 2, 24, 1, 3, 0, 0, 9, 0, 1, 53, 0)),
    ("thr3", "gnp", 12, "uniform", 0.5, 2): ([7], (0, 0, 0, 0, 0, 0, 0, 0, 10, 1, 0, 3, 0)),
    ("thr3", "gnp", 9, "const", 0.4, 1):
        ([0, 1, 4, 8], (3, 10, 2, 24, 0, 0, 0, 0, 9, 0, 1, 39, 0)),
    ("dual", 10, 1, 0): ([8], 20),
    ("dual", 10, 1, 1): ([4, 6, 9], 25),
    ("dual", 10, 1, 2): ([4, 6, 8], 52),
    ("dual", 12, 2, 0): ([], 25),
    ("dual", 12, 2, 1): ([4], 55),
    ("third", 0, 1, 14): [4],
    ("third", 0, 0, 14): None,
    ("third", 0, 2, 10): [4],
    ("third", 1, 1, 14): [2],
    ("third", 1, 0, 14): None,
    ("third", 1, 2, 10): [2],
    ("third", 2, 1, 14): [0],
    ("third", 2, 0, 14): None,
    ("third", 2, 2, 10): [0],
    # thr3 draws where R5 fires on a trio whose middle vertex is not the
    # median id, so the witness or the counters depend on R5's child order.
    ("thr3", "gnp", 10, "const", 0.3, 3):
        ([0, 2, 3, 4, 6, 8, 9], (4, 15, 0, 0, 0, 0, 1, 7, 9, 0, 1, 13, 0)),
    ("thr3", "gnp", 10, "uniform", 0.3, 22):
        ([0, 1, 4, 8, 9], (6, 13, 0, 0, 0, 0, 1, 7, 9, 0, 1, 13, 0)),
    ("thr3", "gnp", 11, "const", 0.3, 35):
        ([0, 1, 4, 5, 7, 8, 9], (10, 15, 0, 0, 0, 0, 1, 7, 10, 0, 2, 16, 0)),
    ("thr3", "gnp", 9, "const", 0.4, 25):
        ([0, 2, 3, 5, 6], (3, 11, 1, 12, 0, 0, 1, 7, 9, 0, 1, 30, 0)),
    # Sparse third draws (p = 0.12) with two-vertex and isolated components,
    # where the witness takes a vertex of a two-vertex component.
    ("third", 28, 4, 14, 0.12): [0, 2, 4, 7],
    ("third", 28, 3, 14, 0.12): None,
    ("third", 28, 3, 12, 0.12): [0, 2, 4],
    ("third", 28, 3, 10, 0.12): [0, 2, 7],
    ("third", 13, 3, 14, 0.12): [1, 2, 6],
    ("third", 13, 2, 14, 0.12): None,
    ("third", 13, 2, 10, 0.12): [2, 6],
    ("third", 29, 3, 14, 0.12): [3, 5, 8],
    ("third", 29, 2, 14, 0.12): None,
    ("third", 29, 2, 10, 0.12): [5, 8],
    # The bit-sliced ascending search: (kind, model, n, p, seed, t, k, l) with
    # const thresholds t. The perfect query forces three thr > deg vertices,
    # whose closure drops two more from the search; the decision queries are
    # a YES at k = opt and a NO at k = opt - 1.
    ("sliced", "gnp", 14, 0.25, 6, 2, 14, 14): ([0, 1, 2, 3, 9, 11], 42),
    ("sliced", "gnp", 14, 0.3, 0, 2, 3, 10): ([0, 2, 8], 123),
    ("sliced", "gnp", 14, 0.3, 0, 2, 2, 10): (None, 105),
}


@pytest.mark.parametrize("case", list(EXPECTED), ids=lambda c: "-".join(map(str, c)))
def test_search_order_pinned(case, monkeypatch):
    assert _run(case, monkeypatch) == EXPECTED[case]


# Nodes cut by the counting bound. The bounded cases are NO queries that the
# bound answers at the root, before any branching; the second asks for more
# vertices than the graph has.
BOUND_PRUNES = {
    ("dual", 10, 1, 1): 8,
    ("dual", 10, 1, 2): 21,
    ("bounded", "gnp", 12, 0.35, 0, 3, 12): 1,
    ("bounded", "gnp", 12, 0.35, 0, 12, 13): 1,
}


@pytest.mark.parametrize("case", list(BOUND_PRUNES), ids=lambda c: "-".join(map(str, c)))
def test_bound_prunes_pinned(case):
    stats = Stats()
    if case[0] == "dual":
        _, n, d, seed = case
        solve_dual_perfect(gen_random("gnp", n, "dual", seed, p=0.4, thr_param=d), stats)
    else:
        _, model, n, p, seed, k, l = case
        solve_bounded(gen_random(model, n, "const", seed, p=p, thr_param=2), k, l, 2, stats=stats)
    assert stats.bound_prunes == BOUND_PRUNES[case]


# Full peels dual runs to test whether a vertex joins the pick, for the dual
# cases of EXPECTED: the nodes whose vertex neither peels first nor is settled
# by its joined or stuck memo.
DUAL_PEELS = {
    ("dual", 10, 1, 0): 3,
    ("dual", 10, 1, 1): 7,
    ("dual", 10, 1, 2): 11,
    ("dual", 12, 2, 0): 4,
    ("dual", 12, 2, 1): 10,
}


@pytest.mark.parametrize("case", list(DUAL_PEELS), ids=lambda c: "-".join(map(str, c)))
def test_dual_peels_pinned(case):
    _, n, d, seed = case
    stats = Stats()
    solve_dual_perfect(gen_random("gnp", n, "dual", seed, p=0.4, thr_param=d), stats)
    assert stats.dual_peels == DUAL_PEELS[case]


# The MPVC enumerator's emission order on two draws at t = max degree + 1:
# (model, n, seed, flag, value) -> (covers, sum of i * cover mask over the
# emission index i mod 10^9 + 7, branch_nodes, leaf_nodes, leaf_subsets).
MPVC_ORDER = {
    ("regular", 12, 0, "degree", 3): (2401, 539985226, 16, 225, 3600),
    ("gnp", 10, 1, "p", 0.3): (627, 108732871, 16, 45, 720),
}


@pytest.mark.parametrize("case", list(MPVC_ORDER), ids=lambda c: "-".join(map(str, c)))
def test_mpvc_order_pinned(case):
    model, n, seed, flag, value = case
    g = gen_random(model, n, "const", seed, **{flag: value}).graph
    stats = Stats()
    count = checksum = 0
    for i, cover in enumerate(enum_minimal_pvcs(g, g.max_degree() + 1, stats)):
        count += 1
        checksum = (checksum + i * cover) % (10**9 + 7)
    assert (count, checksum, stats.branch_nodes, stats.leaf_nodes,
            stats.leaf_subsets) == MPVC_ORDER[case]
