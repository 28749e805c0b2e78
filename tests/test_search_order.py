"""Pinned search order of the exact solvers on seeded generated instances.

Every solver returns the first answer its deterministic exploration reaches,
so the witness, the solver's own counters and the number of closure
evaluations together fix the order in which it explores. A change to the
search code that keeps all three has not changed what any solver explores.
"""

from __future__ import annotations

import pytest

import tss.bounded_thr as bounded_thr
import tss.perfect_small_thr as perfect_small_thr
from tss import Instance
from tss.bounded_thr import solve_bounded
from tss.degree_ratio import solve_ratio_tss
from tss.dual_thr import solve_dual_perfect
from tss.instance import gen_random
from tss.perfect_small_thr import solve_perfect_thr2, solve_perfect_thr3
from tss.stats import Stats

# The pinned counters of each solver, in the order of the EXPECTED tuples.
BOUNDED_COUNTERS = ("rr1_moves", "br1_apps", "br1_children", "br2_leaves", "stage2_covers",
                    "quota_branches", "member_branches", "stage2_leaves", "dp_states")
PERFECT_COUNTERS = ("rr1_moves", "rr3_moves", "br1_apps", "br1_children", "r4_apps",
                    "r4_children", "r5_apps", "r5_children", "part1_max_size",
                    "part1_found", "leaf_bruteforces")


def _third_instance(seed: int) -> Instance:
    """A gnp draw with every threshold at the degree/3 cap, ceil(deg/3)."""
    g = gen_random("gnp", 14, "const", seed, p=0.3, thr_param=0).graph
    return Instance(g, tuple(-(-g.degree(v) // 3) for v in range(g.n)))


def _counting(monkeypatch, module) -> dict[str, int]:
    """Count the module's closure_mask and closure calls through its globals."""
    calls = {"mask": 0, "closure": 0}
    for name, key in (("closure_mask", "mask"), ("closure", "closure")):
        original = getattr(module, name)

        def counted(*args, _original=original, _key=key):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _run(case: tuple, monkeypatch):
    """Witness, plus for bounded/thr2/thr3 the solver's counters (children
    summed over branchings) and its closure_mask and closure call counts,
    and for dual its branch-and-bound node count."""
    kind = case[0]
    if kind in ("bounded", "gamma0", "gamma0-reg"):
        if kind == "gamma0-reg":
            _, n, degree, t, seed, k, l = case
            inst = gen_random("regular", n, "const", seed, degree=degree, thr_param=t)
        else:
            _, model, n, p, seed, k, l = case
            inst, t = gen_random(model, n, "const", seed, p=p, thr_param=2), 2
        calls = _counting(monkeypatch, bounded_thr)
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
        calls = _counting(monkeypatch, perfect_small_thr)
        stats = Stats()
        solver = solve_perfect_thr2 if t == 2 else solve_perfect_thr3
        witness = solver(inst, stats)
        counters = tuple(stats.as_dict()[key] for key in PERFECT_COUNTERS)
        return _sorted(witness), counters + (calls["mask"], calls["closure"])
    if kind == "dual":
        _, n, d, seed = case
        inst = gen_random("gnp", n, "dual", seed, p=0.4, thr_param=d)
        stats = Stats()
        witness = solve_dual_perfect(inst, d, stats)
        return _sorted(witness), stats.dual_nodes
    _, seed, k, l = case
    return _sorted(solve_ratio_tss(_third_instance(seed), k, l))


def _sorted(witness):
    return None if witness is None else sorted(witness)


# The last field of each bounded/thr2/thr3 entry, set-based closure calls,
# is 0 throughout: the solvers' inner loops run on closure_mask alone.
EXPECTED: dict[tuple, object] = {
    ("bounded", "gnp", 12, 0.35, 0, 4, 12): ([1, 2, 8, 10], (0, 1, 5, 1, 0, 0, 0, 0, 0, 149, 0)),
    ("bounded", "gnp", 12, 0.35, 0, 3, 12): (None, (1, 1, 5, 5, 0, 0, 0, 0, 0, 283, 0)),
    ("bounded", "gnp", 12, 0.35, 0, 2, 8): (None, (1, 1, 5, 5, 0, 0, 0, 0, 0, 83, 0)),
    ("bounded", "gnp", 12, 0.35, 1, 2, 12): ([5, 6], (0, 1, 5, 1, 0, 0, 0, 0, 0, 28, 0)),
    ("bounded", "gnp", 12, 0.35, 1, 1, 12): (None, (7, 1, 5, 4, 0, 0, 0, 0, 0, 19, 0)),
    ("bounded", "gnp", 12, 0.35, 1, 2, 8): ([2, 3], (0, 1, 5, 1, 0, 0, 0, 0, 0, 13, 0)),
    ("bounded", "gnp", 12, 0.35, 2, 4, 12): ([0, 6, 7, 9], (0, 1, 5, 1, 0, 0, 0, 0, 0, 170, 0)),
    ("bounded", "gnp", 12, 0.35, 2, 3, 12): (None, (4, 1, 5, 5, 0, 0, 0, 0, 0, 280, 0)),
    ("bounded", "gnp", 12, 0.35, 2, 2, 8): (None, (4, 1, 5, 5, 0, 0, 0, 0, 0, 83, 0)),
    ("bounded", "gnp", 12, 0.35, 3, 4, 12): ([2, 4, 5, 8], (0, 1, 5, 1, 0, 0, 0, 0, 0, 155, 0)),
    ("bounded", "gnp", 12, 0.35, 3, 3, 12): (None, (0, 1, 5, 5, 0, 0, 0, 0, 0, 284, 0)),
    ("bounded", "gnp", 12, 0.35, 3, 2, 8): (None, (0, 1, 5, 5, 0, 0, 0, 0, 0, 83, 0)),
    ("gamma0", "gnp", 7, 0.45, 0, 4, 7): ([0, 1, 2, 5], (0, 1, 5, 0, 5, 72, 0, 28, 322, 3, 0)),
    ("gamma0", "gnp", 7, 0.45, 0, 3, 7): (None, (0, 1, 5, 0, 15, 123, 0, 55, 652, 6, 0)),
    ("gamma0", "gnp", 7, 0.45, 1, 2, 7): ([4, 6], (1, 2, 10, 1, 4, 111, 0, 16, 36, 8, 0)),
    ("gamma0", "gnp", 7, 0.45, 1, 1, 7): (None, (17, 5, 25, 0, 7, 180, 0, 24, 55, 26, 0)),
    ("gamma0", "gnp", 7, 0.45, 2, 3, 7): ([1, 3, 5], (0, 1, 5, 0, 1, 27, 0, 17, 249, 2, 0)),
    ("gamma0", "gnp", 7, 0.45, 2, 2, 7): (None, (3, 1, 5, 0, 37, 318, 6, 188, 1652, 6, 0)),
    # Shaped like the decision benchmark's gamma0 families: (kind, n, degree,
    # threshold, seed, k, l) on regular draws, with k = opt and opt - 1.
    ("gamma0-reg", 7, 4, 2, 0, 2, 7): ([2, 6], (0, 2, 10, 0, 2, 108, 0, 32, 66, 4, 0)),
    ("gamma0-reg", 7, 4, 2, 0, 1, 7): (None, (17, 5, 25, 0, 7, 285, 0, 80, 167, 26, 0)),
    ("gamma0-reg", 7, 4, 2, 1, 2, 7): ([3, 6], (0, 2, 10, 0, 2, 84, 0, 24, 50, 4, 0)),
    ("gamma0-reg", 7, 4, 2, 1, 1, 7): (None, (17, 5, 25, 0, 7, 270, 0, 80, 167, 26, 0)),
    ("gamma0-reg", 7, 4, 3, 0, 3, 7): ([0, 2, 6], (0, 1, 12, 0, 6, 412, 2, 177, 904, 3, 0)),
    ("gamma0-reg", 7, 4, 3, 0, 2, 7): (None, (3, 1, 12, 0, 55, 1236, 20, 575, 2938, 13, 0)),
    ("gamma0-reg", 7, 4, 3, 1, 3, 7): ([0, 4, 6], (0, 1, 12, 0, 9, 352, 0, 112, 595, 3, 0)),
    ("gamma0-reg", 7, 4, 3, 1, 2, 7): (None, (0, 1, 12, 0, 77, 1152, 8, 412, 2043, 13, 0)),
    ("gamma0-reg", 7, 2, 2, 0, 4, 7):
        ([0, 3, 4, 6], (0, 3, 15, 0, 10, 183, 0, 32, 74, 13, 0)),
    ("gamma0-reg", 7, 2, 2, 0, 3, 7): (None, (4, 6, 30, 3, 21, 324, 0, 60, 141, 34, 0)),
    ("gamma0-reg", 7, 2, 2, 1, 4, 7):
        ([0, 2, 3, 4], (0, 3, 15, 0, 10, 207, 0, 32, 74, 13, 0)),
    ("gamma0-reg", 7, 2, 2, 1, 3, 7): (None, (4, 6, 30, 3, 21, 348, 0, 60, 141, 34, 0)),
    ("thr2", "gnp", 14, "const", 0.6, 0): ([0, 1], (0, 0, 0, 0, 0, 0, 0, 0, 6, 1, 0, 17, 0)),
    ("thr2", "gnp", 14, "const", 0.6, 1): ([0, 1], (0, 0, 0, 0, 0, 0, 0, 0, 6, 1, 0, 17, 0)),
    ("thr2", "regular", 10, "const", 2, 0):
        ([0, 5, 6, 7, 8], (2, 4, 3, 15, 7, 21, 0, 0, 5, 0, 2, 82, 0)),
    ("thr2", "regular", 10, "const", 2, 1):
        ([0, 1, 5, 7, 9], (6, 4, 6, 30, 0, 0, 0, 0, 5, 0, 2, 74, 0)),
    ("thr2", "gnp", 10, "const", 0.4, 0):
        ([2, 3, 4, 5, 9], (12, 6, 6, 30, 0, 0, 0, 0, 5, 0, 2, 73, 0)),
    ("thr2", "gnp", 10, "const", 0.4, 1): ([6, 8], (23, 5, 3, 15, 0, 0, 0, 0, 5, 0, 1, 36, 0)),
    ("thr2", "gnp", 10, "const", 0.4, 2): ([3, 5], (31, 4, 12, 60, 0, 0, 0, 0, 5, 0, 3, 108, 0)),
    ("thr3", "gnp", 10, "const", 0.3, 1):
        ([2, 6, 7, 8, 9], (68, 10, 11, 132, 0, 0, 2, 14, 9, 0, 13, 261, 0)),
    ("thr3", "gnp", 10, "const", 0.3, 39):
        ([2, 4, 6, 7, 8, 9], (3, 12, 1, 12, 0, 0, 11, 77, 9, 0, 1, 125, 0)),
    ("thr3", "gnp", 10, "uniform", 0.3, 34):
        ([0, 1, 3, 5, 8], (4, 11, 1, 12, 0, 0, 5, 35, 9, 0, 1, 65, 0)),
    ("thr3", "regular", 10, "const", 3, 0):
        ([0, 1, 3, 5, 6, 7], (3, 9, 4, 48, 6, 18, 0, 0, 9, 0, 1, 122, 0)),
    ("thr3", "gnp", 12, "uniform", 0.5, 2): ([7], (0, 0, 0, 0, 0, 0, 0, 0, 10, 1, 0, 3, 0)),
    ("thr3", "gnp", 9, "const", 0.4, 1):
        ([0, 1, 4, 8], (3, 10, 11, 132, 0, 0, 0, 0, 9, 0, 1, 178, 0)),
    ("dual", 10, 1, 0): ([8], 20),
    ("dual", 10, 1, 1): ([4, 6, 9], 115),
    ("dual", 10, 1, 2): ([4, 6, 8], 105),
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
}


@pytest.mark.parametrize("case", list(EXPECTED), ids=lambda c: "-".join(map(str, c)))
def test_search_order_pinned(case, monkeypatch):
    assert _run(case, monkeypatch) == EXPECTED[case]
