"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Scales and tolerances are
fixed here; where a tolerance applies it is stated inline, everything else is
exact. All randomness is seeded, so the suite is reproducible bit for bit.
"""

import inspect
import random
from itertools import combinations
from math import comb, floor

import tss.perfect_small_thr as perfect_mod
from tss import (
    Graph,
    Instance,
    activate,
    closure,
    compute_constants,
    construct_small_pts,
    covered_edges,
    enum_minimal_pvcs,
    gadget_bounded_to_equal,
    is_perfect_target_set,
    oracle_enum_mpvc,
    oracle_has_clique,
    oracle_max_d_degenerate,
    oracle_min_perfect_tss,
    oracle_tss_decision,
    pts_from_permutation,
    reduce_clique_to_tss,
    solve_bounded,
    solve_dual_perfect,
    solve_perfect_thr2,
    solve_perfect_thr3,
)
from tss.activation import members
from tss.stats import Stats

from helpers import (
    rand_bounded_degree_graph,
    rand_connected_instance,
    rand_connected_ratio_instance,
    rand_dual_instance,
    rand_gnp_instance,
)


def _report(num: int, desc: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({desc}): {verdict}")
    assert not failures, failures[:5]


def test_criterion_01_general_solver_oracle_equivalence():
    failures = []
    rng = random.Random(101)
    corpus = [rand_connected_instance(rng, rng.randint(3, 7), 3) for _ in range(1000)]
    corpus += [
        rand_gnp_instance(rng, rng.randint(1, 12), 3, p=rng.choice([0.25, 0.4, 0.6]))
        for _ in range(200)
    ]
    for idx, inst in enumerate(corpus):
        n = inst.n
        t = max(1, inst.max_threshold())
        grid = {(rng.randint(0, n), rng.randint(0, n)) for _ in range(3)}
        grid.add((n, n))
        for k, l in sorted(grid):
            expected = oracle_tss_decision(inst, k, l) is not None
            modes = (None, 0.0) if idx < 200 else (None,)
            for gamma in modes:
                got = solve_bounded(inst, k, l, t, gamma=gamma)
                if (got is not None) != expected:
                    failures.append((idx, k, l, gamma))
                elif got is not None and (
                    len(got) > k or len(closure(inst, got)) < l
                ):
                    failures.append(("witness", idx, k, l, gamma))
    _report(1, "bounded solver agrees with the oracle on 1200 instances", failures)


def test_criterion_02_perfect_solvers_match_oracle_minimum():
    failures = []
    rng = random.Random(202)
    for solver, thr_max, tag in (
        (solve_perfect_thr2, 2, "thr2"),
        (solve_perfect_thr3, 3, "thr3"),
    ):
        for idx in range(500):
            n = rng.randint(1, 12)
            inst = rand_gnp_instance(rng, n, thr_max, p=rng.choice([0.2, 0.35, 0.5, 0.7]))
            got = solver(inst)
            if not is_perfect_target_set(inst, got):
                failures.append((tag, idx, "not perfect"))
                continue
            expect = len(oracle_min_perfect_tss(inst))
            if len(got) != expect:
                failures.append((tag, idx, len(got), expect))
    _report(2, "thr2/thr3 sizes equal the oracle minimum on 500 instances each", failures)


def test_criterion_03_mpvc_enumeration_and_covering_witness():
    failures = []
    rng = random.Random(303)
    graphs = []
    for idx in range(500):
        t = rng.choice([2, 3, 4])
        g = rand_bounded_degree_graph(rng, rng.randint(0, 8), t - 1)
        graphs.append((g, t))
        got = [members(c) for c in enum_minimal_pvcs(g, t)]
        if len(got) != len(set(got)) or set(got) != oracle_enum_mpvc(g):
            failures.append(("enum", idx))
    pair_checks = 0
    emitted_cache = [(g, t, {members(c) for c in enum_minimal_pvcs(g, t)})
                     for g, t in graphs[:100] if g.n]
    while pair_checks < 10_000:
        g, t, emitted = emitted_cache[pair_checks % len(emitted_cache)]
        b = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        target = covered_edges(g, b)
        shrunk = set(b)
        for v in sorted(b):  # peel removable vertices; what remains must be emitted
            if covered_edges(g, shrunk - {v}) == target:
                shrunk.discard(v)
        witness = frozenset(shrunk)
        if not (
            witness in emitted
            and witness <= b
            and covered_edges(g, witness) == target
        ):
            failures.append(("witness", pair_checks))
        pair_checks += 1
    _report(3, "cover enumeration exact on 500 graphs; covering witness on 10^4 pairs", failures)


def test_criterion_04_constants():
    failures = []
    for t in range(1, 9):
        omega, gamma = compute_constants(t)
        if not (omega < 1 and gamma < 1):
            failures.append((t, omega, gamma))
    if perfect_mod.PART1_GAMMA_THR2 != 0.655984:
        failures.append("thr2 gamma literal")
    if perfect_mod.PART1_GAMMA_THR3 != 0.839533:
        failures.append("thr3 gamma literal")
    source = inspect.getsource(perfect_mod)
    if "0.655984" not in source or "0.839533" not in source:
        failures.append("literals missing from source")
    _report(4, "omega/gamma below one for t in 1..8; solver cutoffs wired literally", failures)


def test_criterion_05_small_perfect_set_construction():
    failures = []
    rng = random.Random(505)
    for idx in range(300):
        n = 3 + idx % 14  # 3..16
        inst = rand_connected_ratio_instance(rng, n)
        bound = floor(0.45 * n)
        got = construct_small_pts(inst, seed=idx)
        if not is_perfect_target_set(inst, got) or len(got) > bound:
            failures.append(("construct", idx, len(got), bound))
        if len(oracle_min_perfect_tss(inst)) > bound:
            failures.append(("minimum above bound", idx))
    _report(5, "constructed perfect sets within floor(0.45n) on 300 instances", failures)


def _min_perfect_given_mandatory(inst: Instance, forced: frozenset) -> int:
    """Exhaustive minimum perfect set size, restricted by runtime-verified mandatory vertices."""
    for v in forced:
        assert v not in closure(inst, frozenset(range(inst.n)) - {v})
    others = sorted(set(range(inst.n)) - forced)
    for extra in range(len(others) + 1):
        for sub in combinations(others, extra):
            if is_perfect_target_set(inst, forced | frozenset(sub)):
                return len(forced) + extra
    return inst.n


def test_criterion_06_gadget_shifts_minimum_by_t_squared():
    failures = []
    rng = random.Random(606)
    for idx in range(200):
        t = 2 if idx % 2 == 0 else 3
        n = rng.randint(1, 8)
        inst = rand_gnp_instance(rng, n, t, p=rng.choice([0.3, 0.5, 0.7]))
        eq = gadget_bounded_to_equal(inst, t)
        leaves = frozenset(
            v for v in range(n, eq.n) if (v - n) % (t + 1) != 0
        )
        before = len(oracle_min_perfect_tss(inst))
        after = _min_perfect_given_mandatory(eq, leaves)
        if after != before + t * t:
            failures.append((idx, t, before, after))
    _report(6, "equalization shifts the oracle minimum by exactly t^2 on 200 instances", failures)


def test_criterion_07_dual_solver_matches_oracle_and_degeneracy():
    failures = []
    rng = random.Random(707)
    equal_checked = 0
    for idx in range(300):
        n = rng.randint(1, 12)
        d = rng.choice([0, 1, 2])
        inst = rand_dual_instance(rng, n, d, p=rng.choice([0.3, 0.5, 0.7]))
        answer = solve_dual_perfect(inst)
        if len(answer) != len(oracle_min_perfect_tss(inst)):
            failures.append(("min", idx))
        duals = inst.dual_values()
        if n and all(x == d for x in duals):
            equal_checked += 1
            if n - len(answer) != len(oracle_max_d_degenerate(inst.graph, d)):
                failures.append(("complement", idx))
    if equal_checked < 30:
        failures.append(("too few equal-dual cases", equal_checked))
    _report(7, "dual solver equals oracle minimum on 300 instances; complements match", failures)


def test_criterion_08_clique_reduction_feasibility():
    failures = []

    def check(g: Graph, k: int, tag) -> None:
        out = reduce_clique_to_tss(g, k)
        feasible = (
            out.l <= out.instance.n
            and oracle_tss_decision(out.instance, out.k, out.l) is not None
        )
        if feasible != oracle_has_clique(g, k):
            failures.append((tag, k))

    for n in range(1, 6):  # every labeled graph on up to 5 vertices
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
            for k in range(1, 5):
                check(g, k, (n, mask))
    rng = random.Random(808)
    count = 0
    while count < 300:
        n = rng.randint(1, 9)
        g = rand_gnp_instance(rng, n, 0, p=rng.choice([0.3, 0.45, 0.6])).graph
        if n + g.m > 24:
            continue  # keep the reduced instance within oracle scale
        check(g, rng.randint(1, 4), ("rand", count))
        count += 1
    _report(8, "reduction feasibility matches the clique oracle (exhaustive n<=5 plus 300 random)", failures)


def test_criterion_09_activation_semantics_and_membership_frequency():
    failures = []
    rng = random.Random(909)
    for idx in range(200):
        inst = rand_gnp_instance(rng, rng.randint(1, 10), 4, p=rng.random())
        small = frozenset(v for v in range(inst.n) if rng.random() < 0.3)
        big = small | frozenset(v for v in range(inst.n) if rng.random() < 0.3)
        if not closure(inst, small) <= closure(inst, big):
            failures.append(("monotone", idx))
        fix = closure(inst, small)
        if closure(inst, fix) != fix:
            failures.append(("idempotent", idx))
        if activate(inst, small).num_rounds > inst.n:
            failures.append(("rounds", idx))
    fixed = [
        rand_connected_ratio_instance(random.Random(1000 + i), 4 + i % 6)
        for i in range(10)
    ]
    sampler = random.Random(4321)
    for idx, inst in enumerate(fixed):
        samples = 10_000
        hits = [0] * inst.n
        order = list(range(inst.n))
        for _ in range(samples):
            sampler.shuffle(order)
            for v in pts_from_permutation(inst, order):
                hits[v] += 1
        for v in range(inst.n):
            expect = inst.thr[v] / (inst.graph.degree(v) + 1)
            if abs(hits[v] / samples - expect) > 0.05:  # tolerance +-0.05
                failures.append(("frequency", idx, v, hits[v] / samples, expect))
    _report(9, "activation laws hold; ordering membership frequency within 0.05", failures)


def test_criterion_10_instrumented_branching_counts():
    failures = []
    rng = random.Random(111)
    br1_apps = quota_apps = 0
    for _ in range(60):
        t = rng.randint(1, 3)
        inst = rand_gnp_instance(rng, rng.randint(4, 8), t, p=0.45)
        stats = Stats()
        solve_bounded(inst, inst.n // 2, inst.n, t, gamma=0.0, stats=stats)
        br1_apps += stats.br1_apps
        quota_apps += len(stats.quota_branches)
        for thr_v, children in stats.br1_children:
            if children != 2 ** (thr_v + 1) - thr_v - 1:
                failures.append(("br1", thr_v, children))
        for thr_v, children in stats.quota_branches:
            if children != thr_v + 1:
                failures.append(("quota", thr_v, children))
        for v, pairs in stats.pair_variants.items():
            if len(pairs) > comb(t + 2, 2):
                failures.append(("pairs", v))
    r4_apps = r5_apps = 0
    seeds = [
        Instance(Graph(6, [(0, 5), (1, 3), (1, 4), (2, 3)]), (1, 2, 1, 1, 3, 1)),
    ]
    corpus = seeds + [
        rand_gnp_instance(rng, rng.randint(4, 9), 3, p=rng.choice([0.3, 0.5]))
        for _ in range(80)
    ]
    for inst in corpus:
        stats = Stats()
        solve_perfect_thr3(inst, stats)
        r4_apps += stats.r4_apps
        r5_apps += stats.r5_apps
        if any(c != 3 for c in stats.r4_children):
            failures.append(("r4", stats.r4_children))
        if any(c != 7 for c in stats.r5_children):
            failures.append(("r5", stats.r5_children))
    if br1_apps == 0 or quota_apps == 0 or r4_apps == 0 or r5_apps == 0:
        failures.append(("rules not engaged", br1_apps, quota_apps, r4_apps, r5_apps))
    _report(10, "branch child counts exact: split rule, pair rule (3), trio rule (7)", failures)
