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
from tss.bounded_thr import SolveStats, solve_bounded
from tss.degree_ratio import solve_ratio_tss
from tss.dual_thr import solve_dual_perfect
from tss.instance import gen_random
from tss.perfect_small_thr import PerfectStats, solve_perfect_thr2, solve_perfect_thr3


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
    summed over branchings) and its closure_mask and closure call counts."""
    kind = case[0]
    if kind in ("bounded", "gamma0"):
        _, model, n, p, seed, k, l = case
        inst = gen_random(model, n, "const", seed, p=p, thr_param=2)
        calls = _counting(monkeypatch, bounded_thr)
        stats = SolveStats()
        gamma = 0.0 if kind == "gamma0" else None
        witness = solve_bounded(inst, k, l, 2, gamma=gamma, stats=stats)
        counters = tuple(value for _, value in stats.scalar_items())
        return _sorted(witness), counters + (calls["mask"], calls["closure"])
    if kind in ("thr2", "thr3"):
        _, model, n, thr_model, param, seed = case
        t = 2 if kind == "thr2" else 3
        flags = {"degree": param} if model == "regular" else {"p": param}
        inst = gen_random(model, n, thr_model, seed, thr_param=t, **flags)
        calls = _counting(monkeypatch, perfect_small_thr)
        stats = PerfectStats()
        solver = solve_perfect_thr2 if t == 2 else solve_perfect_thr3
        witness = solver(inst, stats)
        counters = (
            stats.rr1_moves, stats.rr3_moves, stats.br1_apps,
            sum(c for _, c in stats.br1_children), stats.r4_apps, sum(stats.r4_children),
            stats.r5_apps, sum(stats.r5_children), stats.part1_max_size,
            int(stats.part1_found), stats.leaf_bruteforces,
        )
        return _sorted(witness), counters + (calls["mask"], calls["closure"])
    if kind == "dual":
        _, n, d, seed = case
        inst = gen_random("gnp", n, "dual", seed, p=0.4, thr_param=d)
        return _sorted(solve_dual_perfect(inst, d))
    _, seed, k, l = case
    return _sorted(solve_ratio_tss(_third_instance(seed), k, l))


def _sorted(witness):
    return None if witness is None else sorted(witness)


EXPECTED: dict[tuple, object] = {
    ("bounded", "gnp", 12, 0.35, 0, 4, 12): ([1, 2, 8, 10], (0, 1, 5, 1, 0, 0, 0, 0, 0, 147, 2)),
    ("bounded", "gnp", 12, 0.35, 0, 3, 12): (None, (1, 1, 5, 5, 0, 0, 0, 0, 0, 277, 6)),
    ("bounded", "gnp", 12, 0.35, 0, 2, 8): (None, (1, 1, 5, 5, 0, 0, 0, 0, 0, 77, 6)),
    ("bounded", "gnp", 12, 0.35, 1, 2, 12): ([5, 6], (0, 1, 5, 1, 0, 0, 0, 0, 0, 26, 2)),
    ("bounded", "gnp", 12, 0.35, 1, 1, 12): (None, (7, 1, 5, 4, 0, 0, 0, 0, 0, 13, 6)),
    ("bounded", "gnp", 12, 0.35, 1, 2, 8): ([2, 3], (0, 1, 5, 1, 0, 0, 0, 0, 0, 11, 2)),
    ("bounded", "gnp", 12, 0.35, 2, 4, 12): ([0, 6, 7, 9], (0, 1, 5, 1, 0, 0, 0, 0, 0, 168, 2)),
    ("bounded", "gnp", 12, 0.35, 2, 3, 12): (None, (4, 1, 5, 5, 0, 0, 0, 0, 0, 274, 6)),
    ("bounded", "gnp", 12, 0.35, 2, 2, 8): (None, (4, 1, 5, 5, 0, 0, 0, 0, 0, 77, 6)),
    ("bounded", "gnp", 12, 0.35, 3, 4, 12): ([2, 4, 5, 8], (0, 1, 5, 1, 0, 0, 0, 0, 0, 153, 2)),
    ("bounded", "gnp", 12, 0.35, 3, 3, 12): (None, (0, 1, 5, 5, 0, 0, 0, 0, 0, 278, 6)),
    ("bounded", "gnp", 12, 0.35, 3, 2, 8): (None, (0, 1, 5, 5, 0, 0, 0, 0, 0, 77, 6)),
    ("gamma0", "gnp", 7, 0.45, 0, 4, 7): ([0, 1, 2, 5], (0, 1, 5, 0, 5, 138, 0, 95, 1225, 0, 3)),
    ("gamma0", "gnp", 7, 0.45, 0, 3, 7): (None, (0, 1, 5, 0, 15, 207, 0, 153, 2027, 0, 6)),
    ("gamma0", "gnp", 7, 0.45, 1, 2, 7): ([4, 6], (1, 2, 10, 1, 4, 2181, 0, 1458, 3564, 1, 7)),
    ("gamma0", "gnp", 7, 0.45, 1, 1, 7): (None, (17, 5, 25, 0, 7, 3270, 0, 2187, 5454, 0, 26)),
    ("gamma0", "gnp", 7, 0.45, 2, 3, 7): ([1, 3, 5], (0, 1, 5, 0, 1, 27, 0, 17, 249, 0, 2)),
    ("gamma0", "gnp", 7, 0.45, 2, 2, 7): (None, (3, 1, 5, 0, 37, 495, 8, 375, 2480, 0, 6)),
    ("thr2", "gnp", 14, "const", 0.6, 0): ([0, 1], (0, 0, 0, 0, 0, 0, 0, 0, 6, 1, 0, 18, 0)),
    ("thr2", "gnp", 14, "const", 0.6, 1): ([0, 1], (0, 0, 0, 0, 0, 0, 0, 0, 6, 1, 0, 18, 0)),
    ("thr2", "regular", 10, "const", 2, 0):
        ([0, 5, 6, 7, 8], (2, 4, 3, 15, 7, 21, 0, 0, 5, 0, 2, 43, 39)),
    ("thr2", "regular", 10, "const", 2, 1):
        ([0, 1, 5, 7, 9], (6, 4, 6, 30, 0, 0, 0, 0, 5, 0, 2, 41, 37)),
    ("thr2", "gnp", 10, "const", 0.4, 0):
        ([2, 3, 4, 5, 9], (12, 6, 6, 30, 0, 0, 0, 0, 5, 0, 2, 40, 38)),
    ("thr2", "gnp", 10, "const", 0.4, 1): ([6, 8], (23, 5, 3, 15, 0, 0, 0, 0, 5, 0, 1, 19, 22)),
    ("thr2", "gnp", 10, "const", 0.4, 2): ([3, 5], (31, 4, 12, 60, 0, 0, 0, 0, 5, 0, 3, 44, 77)),
    ("thr3", "gnp", 10, "const", 0.3, 1):
        ([2, 6, 7, 8, 9], (68, 10, 11, 132, 0, 0, 2, 14, 9, 0, 13, 112, 212)),
    ("thr3", "gnp", 10, "const", 0.3, 39):
        ([2, 4, 6, 7, 8, 9], (3, 12, 1, 12, 0, 0, 11, 77, 9, 0, 1, 33, 92)),
    ("thr3", "gnp", 10, "uniform", 0.3, 34):
        ([0, 1, 3, 5, 8], (4, 11, 1, 12, 0, 0, 5, 35, 9, 0, 1, 15, 50)),
    ("thr3", "regular", 10, "const", 3, 0):
        ([0, 1, 3, 5, 6, 7], (3, 9, 4, 48, 6, 18, 0, 0, 9, 0, 1, 53, 69)),
    ("thr3", "gnp", 12, "uniform", 0.5, 2): ([7], (0, 0, 0, 0, 0, 0, 0, 0, 10, 1, 0, 9, 0)),
    ("thr3", "gnp", 9, "const", 0.4, 1):
        ([0, 1, 4, 8], (3, 10, 11, 132, 0, 0, 0, 0, 9, 0, 1, 43, 135)),
    ("dual", 10, 1, 0): [8],
    ("dual", 10, 1, 1): [4, 6, 9],
    ("dual", 10, 1, 2): [4, 6, 8],
    ("dual", 12, 2, 0): [],
    ("dual", 12, 2, 1): [4],
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
