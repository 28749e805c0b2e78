import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tss import (
    Graph,
    Instance,
    closure,
    gadget_bounded_to_equal,
    is_perfect_target_set,
    oracle_min_perfect_tss,
    solve_bounded,
    solve_perfect_thr2,
    solve_perfect_thr3,
)
from tss.perfect_small_thr import PART1_GAMMA_THR2, PART1_GAMMA_THR3
from tss.stats import Stats

from helpers import complete_instance, graphs, path_instance, rand_gnp_instance, star_graph


def gadget_leaf_ids(n: int, t: int) -> frozenset[int]:
    return frozenset(v for v in range(n, n + t * (t + 1)) if (v - n) % (t + 1) != 0)


def test_gadget_single_vertex():
    inst = Instance(Graph(1, []), (1,))
    eq = gadget_bounded_to_equal(inst, 2)
    assert eq.n == 7
    assert eq.thr == (2,) * 7
    assert len(oracle_min_perfect_tss(inst)) == 1
    assert len(oracle_min_perfect_tss(eq)) == 5


def test_gadget_already_equal_adds_no_original_edges():
    inst = complete_instance(3, 2)
    eq = gadget_bounded_to_equal(inst, 2)
    assert eq.n == 3 + 2 * 3
    for v in range(3):
        assert eq.graph.neighbor_sets()[v] == inst.graph.neighbor_sets()[v]


def test_gadget_vertex_count():
    rng = random.Random(11)
    for t in (2, 3):
        for _ in range(10):
            inst = rand_gnp_instance(rng, rng.randint(1, 6), t)
            eq = gadget_bounded_to_equal(inst, t)
            assert eq.n == inst.n + t * (t + 1)
            assert set(eq.thr) == {t}


def test_gadget_preconditions():
    with pytest.raises(ValueError):
        gadget_bounded_to_equal(Instance(Graph(1, []), (1,)), 1)
    with pytest.raises(ValueError):
        gadget_bounded_to_equal(Instance(Graph(1, []), (3,)), 2)


def test_gadget_size_shift_by_t_squared():
    rng = random.Random(22)
    for t in (2, 3):
        for _ in range(12):
            inst = rand_gnp_instance(rng, rng.randint(1, 5), t, p=0.5)
            eq = gadget_bounded_to_equal(inst, t)
            before = len(oracle_min_perfect_tss(inst))
            after = len(_min_perfect_with_forced(eq, gadget_leaf_ids(inst.n, t)))
            assert after == before + t * t


def test_gadget_leaves_forced_into_every_perfect_set():
    inst = rand_gnp_instance(random.Random(33), 3, 2, p=0.6)
    eq = gadget_bounded_to_equal(inst, 2)
    leaves = gadget_leaf_ids(inst.n, 2)
    for size in range(eq.n + 1):
        for sub in combinations(range(eq.n), size):
            if is_perfect_target_set(eq, sub):
                assert leaves <= frozenset(sub)


def _min_perfect_with_forced(inst: Instance, forced: frozenset[int]) -> frozenset[int]:
    """Exhaustive minimum perfect target set, given vertices proven mandatory.

    Mandatory means v never activates without being selected, witnessed by
    v not in closure(V - v); then every perfect target set contains v.
    """
    for v in forced:
        assert v not in closure(inst, frozenset(range(inst.n)) - {v})
    others = sorted(set(range(inst.n)) - forced)
    for extra in range(len(others) + 1):
        for sub in combinations(others, extra):
            cand = forced | frozenset(sub)
            if is_perfect_target_set(inst, cand):
                return cand
    return frozenset(range(inst.n))


def test_thr2_examples():
    assert len(solve_perfect_thr2(complete_instance(3, 2))) == 2
    assert solve_perfect_thr2(path_instance((1, 2, 1))) == frozenset({1})
    star = Instance(star_graph(4), (2, 2, 2, 2, 2))
    assert len(solve_perfect_thr2(star)) == len(oracle_min_perfect_tss(star))


def test_thr3_examples():
    assert len(solve_perfect_thr3(complete_instance(4, 3))) == 3
    zero = Instance(Graph(4, [(0, 1), (2, 3)]), (0, 0, 0, 0))
    assert solve_perfect_thr3(zero) == frozenset()


def test_thr2_matches_oracle_on_corpus():
    rng = random.Random(404)
    for _ in range(120):
        inst = rand_gnp_instance(rng, rng.randint(1, 10), 2, p=rng.choice([0.25, 0.45, 0.65]))
        got = solve_perfect_thr2(inst)
        assert is_perfect_target_set(inst, got)
        assert len(got) == len(oracle_min_perfect_tss(inst)), (inst.thr, inst.graph.edges())


def test_thr3_matches_oracle_on_corpus():
    rng = random.Random(505)
    for _ in range(80):
        inst = rand_gnp_instance(rng, rng.randint(1, 10), 3, p=rng.choice([0.3, 0.5, 0.7]))
        got = solve_perfect_thr3(inst)
        assert is_perfect_target_set(inst, got)
        assert len(got) == len(oracle_min_perfect_tss(inst)), (inst.thr, inst.graph.edges())


def test_preconditions():
    with pytest.raises(ValueError):
        solve_perfect_thr2(complete_instance(4, 3))
    with pytest.raises(ValueError):
        solve_perfect_thr3(Instance(Graph(1, []), (4,)))


def test_part1_gamma_literals():
    assert PART1_GAMMA_THR2 == 0.655984
    assert PART1_GAMMA_THR3 == 0.839533


def test_part2_entry_condition():
    # when part 1 comes up empty, the true minimum exceeds the part-1 cutoff
    rng = random.Random(88)
    misses = 0
    for _ in range(60):
        t = rng.choice([2, 3])
        inst = rand_gnp_instance(rng, rng.randint(2, 8), t, p=0.4)
        if is_perfect_target_set(inst, ()):
            continue
        stats = Stats()
        solver = solve_perfect_thr2 if t == 2 else solve_perfect_thr3
        got = solver(inst, stats)
        if not stats.part1_found:
            misses += 1
            assert len(got) + t * t > stats.part1_max_size
    assert misses > 0


def test_rule4_omitted_branch_has_no_perfect_set():
    # adjacent threshold-2 vertices of degree two cannot both stay unselected
    inst = Instance(
        Graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]),
        (2, 2, 2, 2, 2, 2),
    )
    u, v = 0, 1
    assert inst.graph.degree(u) == 2 and inst.graph.degree(v) == 2
    others = sorted(set(range(inst.n)) - {u, v})
    for size in range(len(others) + 1):
        for sub in combinations(others, size):
            assert not is_perfect_target_set(inst, sub)
    assert len(solve_perfect_thr2(inst)) == len(oracle_min_perfect_tss(inst))


def test_rule5_omitted_branch_has_no_perfect_set():
    # a degree-4 vertex flanked by two degree-3 neighbors, all threshold 3:
    # leaving all three unselected dooms the cascade
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 3), (1, 5),
        (2, 4), (2, 5),
        (3, 4), (3, 5), (3, 6),
        (4, 5), (4, 6),
        (5, 6),
    ]
    inst = Instance(Graph(7, edges), (3,) * 7)
    assert inst.graph.degree(0) == 4
    assert inst.graph.degree(1) == 3 and inst.graph.degree(2) == 3
    others = sorted(set(range(7)) - {0, 1, 2})
    for size in range(len(others) + 1):
        for sub in combinations(others, size):
            assert not is_perfect_target_set(inst, sub)
    assert len(solve_perfect_thr3(inst)) == len(oracle_min_perfect_tss(inst))


def test_rule_counters_on_frozen_instance():
    # frozen instance known to drive both special branching rules
    inst = Instance(
        Graph(6, [(0, 5), (1, 3), (1, 4), (2, 3)]),
        (1, 2, 1, 1, 3, 1),
    )
    stats = Stats()
    got = solve_perfect_thr3(inst, stats)
    assert stats.r5_apps >= 1
    assert all(c == 7 for c in stats.r5_children)
    assert stats.r4_apps >= 1
    assert all(c == 3 for c in stats.r4_children)
    assert len(got) == len(oracle_min_perfect_tss(inst))


def test_rule_counters_on_corpus():
    rng = random.Random(606)
    r4_seen = r5_seen = False
    for _ in range(60):
        t = rng.choice([2, 3])
        inst = rand_gnp_instance(rng, rng.randint(4, 9), t, p=rng.choice([0.3, 0.5]))
        stats = Stats()
        (solve_perfect_thr2 if t == 2 else solve_perfect_thr3)(inst, stats)
        assert all(c == 2 ** (tv + 1) - tv - 1 for tv, c in stats.br1_children)
        assert all(c == 3 for c in stats.r4_children)
        assert all(c == 7 for c in stats.r5_children)
        r4_seen = r4_seen or stats.r4_apps > 0
        r5_seen = r5_seen or stats.r5_apps > 0
    assert r4_seen


@st.composite
def _bounded_instances(draw):
    """A threshold bound t in {2, 3} and an instance with n <= 8 and thresholds <= t."""
    t = draw(st.sampled_from([2, 3]))
    g = draw(graphs(8))
    thr = draw(st.lists(st.integers(0, t), min_size=g.n, max_size=g.n))
    return t, Instance(g, tuple(thr))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_bounded_instances())
def test_thr2_thr3_agree_with_oracle(case):
    t, inst = case
    got = (solve_perfect_thr2 if t == 2 else solve_perfect_thr3)(inst)
    assert len(got) == len(oracle_min_perfect_tss(inst))
    assert is_perfect_target_set(inst, got)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.data())
def test_relabelling_changes_no_answer(data):
    # renaming the vertices may change which answer each search finds first,
    # never the perfect minimum or whether a decision query has an answer
    t, inst = data.draw(_bounded_instances())
    perm = data.draw(st.permutations(range(inst.n)))
    thr = [0] * inst.n
    for v in range(inst.n):
        thr[perm[v]] = inst.thr[v]
    renamed = Instance(Graph(inst.n, [(perm[u], perm[v]) for u, v in inst.graph.edges()]),
                       tuple(thr))
    solve = solve_perfect_thr2 if t == 2 else solve_perfect_thr3
    assert len(solve(renamed)) == len(solve(inst))
    k, l = data.draw(st.integers(0, inst.n)), data.draw(st.integers(0, inst.n))
    for gamma in (0.0, None):
        assert ((solve_bounded(renamed, k, l, t, gamma=gamma) is None)
                == (solve_bounded(inst, k, l, t, gamma=gamma) is None))
