import gc
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tss.bounded_thr as bounded_thr
from tss import (
    Graph,
    Instance,
    closure,
    compute_constants,
    covered_edges,
    gen_random,
    oracle_tss_decision,
    solve_bounded,
    stage3_dp,
)
from tss.activation import mask_of, members
from tss.bounded_thr import _Ctx, is_activated_round
from tss.stats import Stats

from helpers import (
    complete_instance, rand_gnp_instance, record_br1_splits, record_quota_windows,
    record_stage3_pairs,
)


def test_constants_t2():
    omega, gamma = compute_constants(2)
    assert omega == pytest.approx(math.log2(3) / 4 + 0.5, abs=1e-12)
    assert omega == pytest.approx(0.89624, abs=1e-5)
    # gamma solves 2^gamma = 2^(omega*gamma) * C(4,2)^(1-gamma) * 2^(1-gamma)
    assert gamma == pytest.approx(0.9718712, abs=1e-6)
    lhs = gamma
    rhs = omega * gamma + (1 - gamma) * (math.log2(6) + 1)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_constants_below_one():
    for t in range(1, 9):
        omega, gamma = compute_constants(t)
        assert 0 <= omega < 1
        assert 0 < gamma < 1
    with pytest.raises(ValueError):
        compute_constants(0)


def test_constants_match_the_exact_expression():
    # past 53 bits compute_constants reads log2(2^t - 1) as t; the values stay bit-identical
    for t in range(1, 2001):
        omega = math.log2(2**t - 1) / t**2 + (t - 1) / t
        pair_bits = math.log2(math.comb(t + 2, 2))
        assert compute_constants(t) == (omega, ((t - 1) + pair_bits) / ((t - omega) + pair_bits))


def test_triangle_decisions():
    inst = complete_instance(3, 2)
    for gamma in (None, 0.0):
        got = solve_bounded(inst, 2, 3, 2, gamma=gamma)
        assert got is not None and len(got) <= 2
        assert len(closure(inst, got)) == 3
        assert solve_bounded(inst, 1, 3, 2, gamma=gamma) is None


def test_empty_budget_when_target_already_met():
    rng = random.Random(3)
    for _ in range(20):
        inst = rand_gnp_instance(rng, rng.randint(1, 7), 3)
        base = len(closure(inst, ()))
        t = max(1, inst.max_threshold())
        assert solve_bounded(inst, 0, base, t) == frozenset()


def test_target_beyond_n_is_pruned_at_the_root():
    inst = gen_random("gnp", 40, "const", 0, p=0.3, thr_param=2)
    stats = Stats()
    start = time.perf_counter()
    assert solve_bounded(inst, 40, 41, 2, stats=stats) is None
    assert time.perf_counter() - start < 0.1
    assert stats.bound_prunes == 1 and stats.br1_apps == 0


def test_threshold_precondition():
    inst = complete_instance(3, 2)
    with pytest.raises(ValueError):
        solve_bounded(inst, 1, 1, 1)
    with pytest.raises(ValueError):
        solve_bounded(inst, -1, 1, 2)


def test_stage3_dp_walks_a_free_part_deeper_than_the_recursion_limit():
    # 1,000 isolated threshold-1 vertices: MPVC yields the empty cover and stage 3
    # chooses among all 1,000 undecided vertices, skipping on ties
    inst = Instance(Graph(1000, []), (1,) * 1000)
    assert solve_bounded(inst, 5, 5, 1) == frozenset(range(995, 1000))


def test_branching_deeper_than_the_recursion_limit_answers():
    # a 1,100-edge matching with thresholds 1 at gamma 0: BR1 splits every edge
    # in turn, so the first child chain nests 1,100 nodes deep before stage 2
    inst = Instance(Graph(2200, [(2 * i, 2 * i + 1) for i in range(1100)]), (1,) * 2200)
    got = solve_bounded(inst, 1, 2, 1, gamma=0.0)
    assert got is not None and len(got) == 1 and len(closure(inst, got)) == 2


def test_oracle_agreement_small_corpus():
    rng = random.Random(1001)
    for _ in range(150):
        n = rng.randint(1, 8)
        inst = rand_gnp_instance(rng, n, rng.randint(0, 3), p=rng.choice([0.25, 0.45, 0.65]))
        k, l = rng.randint(0, n), rng.randint(0, n)
        t = max(1, inst.max_threshold())
        expected = oracle_tss_decision(inst, k, l) is not None
        for gamma in (None, 0.0):
            got = solve_bounded(inst, k, l, t, gamma=gamma)
            assert (got is not None) == expected, (inst.thr, inst.graph.edges(), k, l, gamma)
            if got is not None:
                assert len(got) <= k
                assert len(closure(inst, got)) >= l


@st.composite
def _decision_queries(draw):
    """An instance with n <= 7 and thresholds <= 3, plus a query (k, l)."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    thr = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    inst = Instance(Graph(n, [e for e, kept in zip(pairs, keep) if kept]), tuple(thr))
    return inst, draw(st.integers(0, n)), draw(st.integers(0, n))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_decision_queries())
def test_stages_two_three_agree_with_oracle(query):
    # gamma=0 routes every branching-stable free part through stages 2 and 3;
    # the default gamma brute-forces most free parts at stage 1's leaves
    inst, k, l = query
    expected = oracle_tss_decision(inst, k, l) is not None
    for gamma in (0.0, None):
        got = solve_bounded(inst, k, l, max(1, inst.max_threshold()), gamma=gamma)
        assert (got is not None) == expected
        if got is not None:
            assert len(got) <= k
            assert len(closure(inst, got)) >= l


def test_reduction_rule_metamorphic():
    # the free-exclusion reduction keeps every answer and witness sound
    rng = random.Random(555)
    for _ in range(60):
        n = rng.randint(1, 7)
        inst = rand_gnp_instance(rng, n, rng.randint(0, 3))
        k, l = rng.randint(0, n), rng.randint(0, n)
        t = max(1, inst.max_threshold())
        got = solve_bounded(inst, k, l, t, gamma=0.0)
        assert (got is None) == (oracle_tss_decision(inst, k, l) is None)
        if got is not None:
            assert len(got) <= k
            assert len(closure(inst, got)) >= l


def test_branch_rule_child_counts(monkeypatch):
    rng = random.Random(17)
    splits = record_br1_splits(monkeypatch, bounded_thr)
    for _ in range(40):
        inst = rand_gnp_instance(rng, rng.randint(4, 8), rng.randint(1, 3), p=0.5)
        stats = Stats()
        before = len(splits)
        solve_bounded(inst, inst.n // 2, inst.n, max(1, inst.max_threshold()),
                      gamma=0.0, stats=stats)
        assert stats.br1_apps == len(splits) - before
        assert stats.br1_children == sum(children for _, children in splits[before:])
    assert splits
    for thr_v, children in splits:
        assert children == 2 ** (thr_v + 1) - thr_v - 1


def test_br1_split_children_in_size_then_lexicographic_order():
    # ids past a small set's hash table size, so iterating the group as a
    # frozenset would not give the sorted order the children must follow
    g = Graph(41, [(3, 9), (3, 20), (3, 40), (3, 30)])
    thr = [1] * 41
    thr[3] = 3
    group, children = bounded_thr.br1_split(g.neighbor_masks(), thr,
                                            mask_of({3, 9, 20, 30, 40}))
    assert members(group) == {3, 9, 20, 30}
    assert [(sorted(members(sel)), sorted(members(group & ~sel))) for sel in children] == [
        ([], [3, 9, 20, 30]),
        ([3], [9, 20, 30]), ([9], [3, 20, 30]), ([20], [3, 9, 30]), ([30], [3, 9, 20]),
        ([3, 9], [20, 30]), ([3, 20], [9, 30]), ([3, 30], [9, 20]),
        ([9, 20], [3, 30]), ([9, 30], [3, 20]), ([20, 30], [3, 9]),
        ([9, 20, 30], [3]),
    ]


def test_quota_branch_child_counts_and_pair_bound(monkeypatch):
    rng = random.Random(18)
    windows = record_quota_windows(monkeypatch)
    pair_variants = record_stage3_pairs(monkeypatch)
    for _ in range(30):
        t = rng.randint(1, 3)
        inst = rand_gnp_instance(rng, rng.randint(5, 8), t, p=0.4)
        stats = Stats()
        before = len(windows)
        pair_variants.clear()
        solve_bounded(inst, inst.n // 2, inst.n, t, gamma=0.0, stats=stats)
        # quota_branches adds thr(v) + 1 per branch, the most choices a quota can have
        assert stats.quota_branches == sum(thr_v + 1 for _, thr_v in windows[before:])
        for v, pairs in pair_variants.items():
            assert all(d <= cap <= t for d, cap in pairs)
            assert len(pairs) <= math.comb(t + 2, 2)
    assert windows
    for window, thr_v in windows:
        assert 0 <= window.start < window.stop <= thr_v + 1


def _four_vertex_leaf_parts():
    # 0 excluded (thr 2), 1 selected, 2 and 3 free; only 0-1 and 0-2 edges
    inst = Instance(Graph(4, [(0, 1), (0, 2)]), (2, 0, 1, 1))
    return inst, mask_of({2, 3})


def test_round_procedure_free_vertices_never_branch():
    inst, free = _four_vertex_leaf_parts()
    ctx = _Ctx(0)
    projected = mask_of({0, 1})
    # free vertex with threshold met: activated without any branching
    assert is_activated_round(inst, free, projected, 2, ctx) is True
    # free vertex short of its threshold: not activated, again no branching
    inst2 = Instance(inst.graph, (2, 0, 2, 1))
    assert is_activated_round(inst2, free, projected, 2, ctx) is False


def test_round_procedure_excluded_vertex_branches_on_quota():
    inst, free = _four_vertex_leaf_parts()
    projected = mask_of({1})
    assert is_activated_round(inst, free, projected, 0, _Ctx(0)) == ("quota", 0)
    # promised one hidden selected neighbor: 1 exact + 1 promised meets thr 2
    assert is_activated_round(inst, free, projected, 0, _Ctx(0, {0: 1})) is True
    # promised none: stays below threshold, no undecided neighbors to consult
    assert is_activated_round(inst, free, projected, 0, _Ctx(0, {0: 0})) is False
    # each subbranch matches the true process for a selection realizing the promise
    assert 0 in closure(inst, {1, 2})   # |N(0) ∩ B| = 1 realizes promise 1
    assert 0 not in closure(inst, {1})  # promise 0


def test_round_procedure_membership_branch():
    # excluded vertex 0 needs 3 activated neighbors: one exact (selected 1),
    # one promised, and the projected free neighbor 2 only if it is not hidden
    inst = Instance(Graph(5, [(0, 1), (0, 2), (0, 4)]), (3, 0, 1, 1, 1))
    free = mask_of({2, 3, 4})
    projected = mask_of({1, 2})
    ctx = _Ctx(0, {0: 1})
    assert is_activated_round(inst, free, projected, 0, ctx) == ("member", 2)
    assert is_activated_round(
        inst, free, projected, 0, _Ctx(0, {0: 1}, outside=mask_of({2}))
    ) is True
    assert is_activated_round(
        inst, free, projected, 0, _Ctx(0, {0: 1}, inside=mask_of({2}))
    ) is False
    # two undecided projected free neighbors, with ids past a small set's hash
    # table size: the branch names the lowest, 9, then 40 once 9 is decided
    inst = Instance(Graph(41, [(0, 1), (0, 9), (0, 40)]), (4,) + (1,) * 40)
    free = mask_of({9, 40})
    projected = mask_of({1, 9, 40})
    assert is_activated_round(inst, free, projected, 0, _Ctx(0, {0: 1})) == ("member", 9)
    assert is_activated_round(
        inst, free, projected, 0, _Ctx(0, {0: 1}, outside=mask_of({9}))
    ) == ("member", 40)


def test_round_replay_resumes_at_each_decision(monkeypatch):
    # counted through the module global that perfbench's bounded.round span wraps,
    # so a local alias hiding the calls from that span would read 0 here
    calls = 0
    original = bounded_thr.is_activated_round

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(bounded_thr, "is_activated_round", counted)
    inst = gen_random("regular", 7, "const", 0, degree=4, thr_param=2)
    stats = Stats()
    assert solve_bounded(inst, 1, 7, 2, gamma=0.0, stats=stats) is None
    assert stats.stage2_leaves == 80
    assert calls == 667


def test_dp_base_row_immediately_feasible():
    inst = Instance(Graph(2, [(0, 1)]), (0, 5))
    # selected {0}, free {1}
    assert stage3_dp(inst, 0b01, 0b10, _Ctx(0), 0b01, 2, 1) == 0


def test_dp_forced_pick_meets_promise():
    # excluded vertex 0 promised one hidden neighbor; vertex 1 is its only candidate
    inst = Instance(Graph(3, [(0, 1)]), (1, 5, 0))
    # selected {2}, excluded {0}, free {1}
    assert stage3_dp(inst, 0b100, 0b010, _Ctx(0, {0: 1}), 0b101, 3, 2) == 0b010


def test_dp_infeasible_promise():
    inst = Instance(Graph(3, [(0, 1)]), (2, 5, 0))
    # selected {2}, excluded {0}, free {1}
    assert stage3_dp(inst, 0b100, 0b010, _Ctx(0, {0: 2}), 0b100, 3, 0) is None


def _stage3_reference(inst, selected, free, ctx, projected, k, l):
    # the first subset of the undecided vertices, fewest first and then skipping the
    # lowest vertex where two differ, that meets every quota exactly, fits the
    # budget and reaches l: the projected vertices and the picks count as activated
    rest = sorted(members(free & ~ctx.inside & ~ctx.outside))
    inside, nbr = members(ctx.inside), inst.graph.neighbor_sets()
    subsets = [{u for i, u in enumerate(rest) if bits >> i & 1} for bits in range(1 << len(rest))]
    for picks in sorted(subsets, key=lambda s: (len(s), [u in s for u in rest])):
        if (all(min(len(nbr[v] & (inside | picks)), inst.thr[v]) == q for v, q in ctx.quota.items())
                and len(members(projected) | picks) >= l
                and (selected | ctx.inside).bit_count() + len(picks) <= k):
            return mask_of(picks)
    return None


def test_stage3_dp_matches_a_brute_force_over_the_undecided_vertices(monkeypatch):
    # every leaf of gamma-0 solves, walked in full by answering None, is answered
    # through the solve's shared tables and through a fresh dict, and both must be
    # the brute force's picks
    original = bounded_thr.stage3_dp
    checked = found = 0

    def compare(inst, selected, free, ctx, projected, k, l, stats, tables):
        nonlocal checked, found
        assert isinstance(tables, dict)
        want = _stage3_reference(inst, selected, free, ctx, projected, k, l)
        assert original(inst, selected, free, ctx, projected, k, l, stats, tables) == want
        assert original(inst, selected, free, ctx, projected, k, l, None, {}) == want
        checked += 1
        found += want is not None

    monkeypatch.setattr(bounded_thr, "stage3_dp", compare)
    rng = random.Random(2718)
    for _ in range(60):
        n, t = rng.randint(5, 7), rng.randint(1, 3)
        inst = gen_random("gnp", n, "const", rng.randrange(1000), p=rng.choice([0.35, 0.5]),
                          thr_param=t)
        solve_bounded(inst, rng.randint(1, n), rng.randint(n - 2, n), t, gamma=0.0, stats=Stats())
    assert checked > 800 and found > 100
    # two leaves that differ only in the vertices decided outside get a table each
    inst, tables = Instance(Graph(2, []), (1, 1)), {}
    assert original(inst, 0, 0b11, _Ctx(0), 0, 2, 1, None, tables) == 0b10
    assert original(inst, 0, 0b11, _Ctx(0, outside=0b10), 0, 2, 1, None, tables) == 0b01


def test_projected_set_describes_activation_outside_hidden_selection(monkeypatch):
    # for every explored leaf and every selection consistent with its record,
    # the projected set and the true activated set agree off the selection;
    # stage 3 runs once per leaf, so wrapping it collects every leaf, and
    # answering None there makes the search walk all of them
    leaves: list[tuple[int, int, _Ctx, int]] = []
    original = bounded_thr.stage3_dp

    def recording(inst, selected, free, ctx, projected, *args):
        leaves.append((selected, free, ctx, projected))
        original(inst, selected, free, ctx, projected, *args)

    monkeypatch.setattr(bounded_thr, "stage3_dp", recording)
    rng = random.Random(909)
    checked = 0
    for _ in range(40):
        n = rng.randint(4, 7)
        inst = rand_gnp_instance(rng, n, rng.randint(1, 3), p=0.45)
        t = max(1, inst.max_threshold())
        leaves.clear()
        solve_bounded(inst, n, n, t, gamma=0.0)
        nbr = inst.graph.neighbor_sets()
        for selected, free, ctx, projected in leaves[:40]:
            rest = sorted(members(free & ~ctx.inside & ~ctx.outside))
            sub_g, ids = inst.graph.induced(members(free))
            to_local = {old: new for new, old in enumerate(ids)}
            cover_local = frozenset(to_local[v] for v in members(ctx.cover))
            cover_edges = covered_edges(sub_g, cover_local)
            for _ in range(12):
                b = set(members(ctx.inside)) | {u for u in rest if rng.random() < 0.5}
                if covered_edges(sub_g, frozenset(to_local[v] for v in b)) != cover_edges:
                    continue
                if any(
                    min(len(nbr[v] & b), inst.thr[v]) != q
                    for v, q in ctx.quota.items()
                ):
                    continue
                checked += 1
                full = closure(inst, members(selected) | b)
                assert members(projected) - b == full - b, (
                    inst.graph.edges(), inst.thr, sorted(b), ctx.quota, bin(ctx.outside))
    assert checked > 100


def test_solve_bounded_leaves_no_reference_cycles():
    # no nested function of the search refers to itself, so once the call
    # returns reference counting alone frees the instance, its graph and
    # every nested function
    def call():
        inst = gen_random("gnp", 7, "const", 1, p=0.45, thr_param=2)
        return solve_bounded(inst, 2, 7, 2, gamma=0.0, stats=Stats())

    gc.collect()
    gc.disable()
    try:
        assert call() == frozenset({4, 6})
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not [o for o in garbage if isinstance(o, (Graph, Instance))]
    assert not [o for o in garbage
                if callable(o) and getattr(o, "__module__", None) == bounded_thr.__name__]
