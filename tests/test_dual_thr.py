import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tss import (
    Graph,
    Instance,
    is_d_degenerate,
    is_perfect_target_set,
    oracle_max_d_degenerate,
    oracle_min_perfect_tss,
    solve_dual_perfect,
)
from tss.activation import closure, mask_of
from tss.dual_thr import _peels_empty
from tss.oracle import _peels_empty as oracle_peels_empty

from helpers import complete_instance, graphs, rand_dual_instance, star_graph


def test_is_d_degenerate_basics():
    forest = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert is_d_degenerate(forest, 1)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not is_d_degenerate(c4, 1)
    assert is_d_degenerate(c4, 2)
    assert is_d_degenerate(Graph(0, []), 0)
    assert is_d_degenerate(Graph(3, []), 0)
    with pytest.raises(ValueError):
        is_d_degenerate(c4, -1)


def test_star_with_greedy_center():
    inst = Instance(star_graph(3), (3, 1, 1, 1))
    assert solve_dual_perfect(inst, 0) == frozenset({0})


def test_triangle_all_duals_zero():
    inst = complete_instance(3, 2)
    assert len(solve_dual_perfect(inst, 0)) == 2


def test_equals_complement_of_max_independent_set_when_thr_is_deg():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        inst = Instance(g, tuple(g.degree(v) for v in range(n)))
        answer = solve_dual_perfect(inst, 0)
        assert n - len(answer) == len(oracle_max_d_degenerate(g, 0))


def test_perfect_iff_complement_degenerate():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 8)
        d = rng.randint(0, 2)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        g = Graph(n, edges)
        inst = Instance(g, tuple(g.degree(v) - d if g.degree(v) >= d else 0 for v in range(n)))
        if any(g.degree(v) < d for v in range(n)):
            continue  # keep every dual exactly d
        for _ in range(15):
            x = frozenset(v for v in range(n) if rng.random() < 0.5)
            sub, _ = g.induced(set(range(n)) - x)
            assert is_perfect_target_set(inst, x) == is_d_degenerate(sub, d)


def test_matches_oracle_minimum():
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randint(1, 10)
        d = rng.randint(0, 2)
        inst = rand_dual_instance(rng, n, d)
        answer = solve_dual_perfect(inst, d)
        assert is_perfect_target_set(inst, answer)
        assert len(answer) == len(oracle_min_perfect_tss(inst)), (inst.thr, inst.graph.edges(), d)


def test_complement_matches_max_degenerate_for_equal_duals():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 9)
        d = rng.randint(0, 2)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        thr = tuple(max(0, g.degree(v) - d) for v in range(n))
        if any(g.degree(v) < d for v in range(n)):
            continue
        inst = Instance(g, thr)
        answer = solve_dual_perfect(inst, d)
        assert n - len(answer) == len(oracle_max_d_degenerate(g, d))


def test_oversubscribed_vertices_forced_into_answer():
    # thr above degree means the vertex can only ever activate by selection
    inst = Instance(Graph(3, [(0, 1)]), (5, 1, 2))
    answer = solve_dual_perfect(inst, 5)
    assert 0 in answer and 2 in answer
    assert len(answer) == len(oracle_min_perfect_tss(inst))


def test_precondition():
    inst = Instance(Graph(3, [(0, 1), (1, 2), (0, 2)]), (0, 0, 0))
    with pytest.raises(ValueError):
        solve_dual_perfect(inst, 1)  # duals are 2
    with pytest.raises(ValueError):
        solve_dual_perfect(inst, -1)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(graphs(12), st.data())
def test_mask_peel_matches_oracle_peel(g, data):
    bound = data.draw(st.lists(st.integers(-1, 4), min_size=g.n, max_size=g.n))
    keep = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    remaining = {v for v in range(g.n) if keep[v]}
    assert _peels_empty(g.neighbor_masks(), mask_of(remaining), bound) == oracle_peels_empty(
        g.neighbor_sets(), remaining, bound
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(graphs(12), st.data())
def test_dual_solver_is_minimum_and_perfect(g, data):
    # thr(v) = deg(v) + 1 gives a negative dual value: v activates only when selected
    thr = tuple(data.draw(st.integers(0, g.degree(v) + 1)) for v in range(g.n))
    inst = Instance(g, thr)
    d = max(0, max(inst.dual_values(), default=0))
    answer = solve_dual_perfect(inst, d)
    assert len(answer) == len(oracle_min_perfect_tss(inst))
    assert closure(inst, answer) == frozenset(range(g.n))
