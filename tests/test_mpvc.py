import math
import random

import pytest
from hypothesis import given, settings

from tss import Graph, covered_edges, enum_minimal_pvcs, is_minimal_pvc, oracle_enum_mpvc
from tss.activation import members
from tss.mpvc import leaf_count_log2_bound
from tss.stats import Stats

from helpers import graphs, rand_bounded_degree_graph


def test_covered_edges_basics():
    g = Graph(3, [(0, 1), (1, 2)])
    assert covered_edges(g, {1}) == {(0, 1), (1, 2)}
    assert covered_edges(g, set()) == frozenset()
    assert covered_edges(g, {0, 1, 2}) == frozenset(g.edges())


def test_is_minimal_pvc_examples():
    g = Graph(3, [(0, 1), (1, 2)])
    assert is_minimal_pvc(g, frozenset({0, 2}))
    assert not is_minimal_pvc(g, frozenset({0, 1}))
    assert is_minimal_pvc(g, frozenset())


def test_is_minimal_matches_definition():
    rng = random.Random(60)
    for _ in range(120):
        g = rand_bounded_degree_graph(rng, rng.randint(1, 7), 4)
        s = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        by_definition = all(
            covered_edges(g, s - {v}) != covered_edges(g, s) for v in s
        )
        assert is_minimal_pvc(g, s) == by_definition


def test_enum_single_edge():
    got = {members(c) for c in enum_minimal_pvcs(Graph(2, [(0, 1)]), 2)}
    assert got == {frozenset(), frozenset({0}), frozenset({1})}


def test_enum_path():
    got = [members(c) for c in enum_minimal_pvcs(Graph(3, [(0, 1), (1, 2)]), 3)]
    assert len(got) == 5
    assert set(got) == oracle_enum_mpvc(Graph(3, [(0, 1), (1, 2)]))


def test_enum_edgeless():
    assert [members(c) for c in enum_minimal_pvcs(Graph(4, []), 1)] == [frozenset()]


def test_enum_branches_deeper_than_the_recursion_limit():
    # every isolated vertex is a branch node, one level each: 1,000 levels
    assert [members(c) for c in enum_minimal_pvcs(Graph(1000, []), 1)] == [frozenset()]


def test_enum_rejects_degree_violation():
    with pytest.raises(ValueError):
        list(enum_minimal_pvcs(Graph(3, [(0, 1), (1, 2)]), 2))


def test_enum_matches_oracle_and_is_duplicate_free():
    rng = random.Random(2025)
    for _ in range(120):
        t = rng.choice([2, 3, 4])
        g = rand_bounded_degree_graph(rng, rng.randint(0, 8), t - 1)
        got = [members(c) for c in enum_minimal_pvcs(g, t)]
        assert len(got) == len(set(got))
        assert set(got) == oracle_enum_mpvc(g)


def test_covering_witness_property():
    # for any vertex set, some emitted cover is a subset covering the same edges
    rng = random.Random(99)
    for _ in range(60):
        t = rng.choice([3, 4])
        g = rand_bounded_degree_graph(rng, rng.randint(1, 8), t - 1)
        emitted = {members(c) for c in enum_minimal_pvcs(g, t)}
        for _ in range(20):
            b = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            target = covered_edges(g, b)
            assert any(
                c <= b and covered_edges(g, c) == target for c in emitted
            ), (g.edges(), sorted(b))


def test_stats_counters():
    rng = random.Random(5)
    for _ in range(25):
        t = rng.choice([2, 3, 4])
        g = rand_bounded_degree_graph(rng, rng.randint(1, 8), t - 1)
        stats = Stats()
        emitted = sum(1 for _ in enum_minimal_pvcs(g, t, stats))
        assert stats.emitted == emitted
        assert stats.leaf_nodes >= 1
        assert stats.leaf_subsets >= max(emitted, stats.leaf_nodes)
    # the branch-leaf budget itself is checked softly in bench mode only
    assert leaf_count_log2_bound(8, 3) > 0


def test_leaf_count_bound_matches_the_exact_expression():
    # past 53 bits the bound reads log2(2^t - 1) as t; the values stay bit-identical
    for t in range(1, 2001):
        assert leaf_count_log2_bound(12, t) == 12 / t * math.log2(2**t - 1) + (t - 1) * 12 / t


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs(9))
def test_enum_matches_oracle_on_random_graphs(g):
    # every minimal partial vertex cover, each exactly once, at the smallest
    # bound the enumerator accepts
    got = [members(c) for c in enum_minimal_pvcs(g, g.max_degree() + 1)]
    assert len(got) == len(set(got))
    assert set(got) == oracle_enum_mpvc(g)
