import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tss import (
    Graph, Instance, activate, closure, gen_random, is_perfect_target_set,
    oracle_min_perfect_tss, oracle_tss_decision,
)
import tss.activation as activation
from tss.activation import (
    closure_mask, counting_bound, edges_within, first_reaching, fit_table, fitting, mask_of,
    seed_masks,
)

from helpers import complete_instance, graphs, naive_rounds, path_instance, rand_gnp_instance


def test_triangle_two_seeds():
    inst = complete_instance(3, 2)
    trace = activate(inst, {0, 1})
    assert trace.rounds == (frozenset({0, 1}), frozenset({0, 1, 2}))
    assert trace.round_of == (0, 0, 1)
    assert trace.num_rounds == 1
    assert is_perfect_target_set(inst, {0, 1})
    assert not is_perfect_target_set(inst, {0})
    assert closure(inst, {0}) == frozenset({0})


def test_zero_thresholds_fire_in_round_one():
    inst = Instance(Graph(4, [(0, 1), (2, 3)]), (0, 0, 0, 0))
    trace = activate(inst, ())
    assert trace.rounds[0] == frozenset()
    assert trace.rounds[1] == frozenset(range(4))
    assert trace.round_of == (1, 1, 1, 1)


def test_isolated_vertex_never_activates():
    inst = Instance(Graph(1, []), (1,))
    trace = activate(inst, ())
    assert trace.activated == frozenset()
    assert trace.round_of == (None,)
    assert trace.num_rounds == 0


def test_whole_vertex_set_is_perfect():
    rng = random.Random(5)
    for _ in range(20):
        inst = rand_gnp_instance(rng, rng.randint(1, 8), 3)
        assert is_perfect_target_set(inst, range(inst.n))


def test_matches_naive_recurrence():
    rng = random.Random(77)
    for _ in range(150):
        inst = rand_gnp_instance(rng, rng.randint(0, 9), 4, p=rng.random())
        seed = frozenset(v for v in range(inst.n) if rng.random() < 0.3)
        trace = activate(inst, seed)
        assert list(trace.rounds) == naive_rounds(inst, seed)
        assert closure(inst, seed) == trace.activated
        for v in range(inst.n):
            if trace.round_of[v] is None:
                assert v not in trace.activated
            else:
                r = trace.round_of[v]
                assert v in trace.rounds[r]
                assert r == 0 or v not in trace.rounds[r - 1]


def test_monotone_in_seed():
    rng = random.Random(31)
    for _ in range(80):
        inst = rand_gnp_instance(rng, rng.randint(1, 9), 3)
        small = frozenset(v for v in range(inst.n) if rng.random() < 0.25)
        big = small | frozenset(v for v in range(inst.n) if rng.random() < 0.25)
        assert closure(inst, small) <= closure(inst, big)
        assert small <= closure(inst, small)


def test_fixpoint_idempotent_and_bounded():
    rng = random.Random(13)
    for _ in range(60):
        inst = rand_gnp_instance(rng, rng.randint(1, 9), 3)
        seed = frozenset(v for v in range(inst.n) if rng.random() < 0.3)
        final = closure(inst, seed)
        assert closure(inst, final) == final
        assert activate(inst, seed).num_rounds <= inst.n


def test_seed_out_of_range_rejected():
    # -1 must not wrap around to the last vertex through negative indexing
    inst = path_instance((1, 1, 1))
    for seed in ({-1}, {3}):
        with pytest.raises(ValueError):
            closure(inst, seed)
        with pytest.raises(ValueError):
            activate(inst, seed)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(graphs(12), st.data())
def test_closure_activate_and_naive_rounds_agree(g, data):
    thr = data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n))
    picked = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    inst = Instance(g, tuple(thr))
    seed = frozenset(v for v, b in enumerate(picked) if b)
    assert closure(inst, seed) == activate(inst, seed).activated == naive_rounds(inst, seed)[-1]


def test_long_cascade_round_structure():
    inst = path_instance((1,) * 8)
    trace = activate(inst, {0})
    assert trace.num_rounds == 7
    assert trace.round_of == (0, 1, 2, 3, 4, 5, 6, 7)


def test_mask_closure_matches_set_closure():
    rng = random.Random(321)
    for _ in range(150):
        inst = rand_gnp_instance(rng, rng.randint(0, 10), 4, p=rng.random())
        seed = frozenset(v for v in range(inst.n) if rng.random() < 0.35)
        seed_mask = 0
        for v in seed:
            seed_mask |= 1 << v
        got = closure_mask(inst.graph.neighbor_masks(), inst.thr, seed_mask)
        expect = closure(inst, seed)
        assert got == sum(1 << v for v in expect)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(graphs(12), st.data())
def test_closure_mask_seeded_from_closure(g, data):
    # closure(closure(A) | B) == closure(A | B): a search node may seed its
    # closure with its parent's, since a child's selection contains the parent's
    thr = data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n))
    a = data.draw(st.integers(0, (1 << g.n) - 1))
    b = data.draw(st.integers(0, (1 << g.n) - 1))
    masks = g.neighbor_masks()
    assert closure_mask(masks, thr, closure_mask(masks, thr, a) | b) == closure_mask(
        masks, thr, a | b
    )


def _sorted_fit(thresholds, budget: int) -> int:
    """F by sorting and counting: how many of the smallest thresholds fit in budget."""
    if budget < 0:
        return -1
    fit = 0
    for x in sorted(thresholds):
        if x > budget:
            break
        budget -= x
        fit += 1
    return fit


def _fit(inst: Instance, selected: frozenset[int]) -> int:
    """F(selected): how many vertices outside a seed holding selected can activate."""
    e = sum(1 for u, v in inst.graph.edges() if u in selected and v in selected)
    rest = [inst.thr[v] for v in range(inst.n) if v not in selected]
    return _sorted_fit(rest, inst.graph.m - e)


def test_edges_within_and_fitting():
    inst = path_instance((1, 2, 2, 1))
    masks = inst.graph.neighbor_masks()
    assert [edges_within(masks, mask) for mask in (0, 0b0011, 0b0101, 0b1111)] == [0, 1, 0, 3]
    table = fit_table((2, 1, 2, 0))
    assert table == [(0, 0b1000), (1, 0b0010), (2, 0b0101)]
    assert [fitting(table, 0b0111, budget) for budget in (-1, 0, 1, 2, 4, 5, 9)] == [
        -1, 0, 1, 1, 2, 3, 3]
    # the threshold-0 vertex fits in any budget that is not negative
    assert [fitting(table, ~0, budget) for budget in (-1, 0, 1, 9)] == [-1, 1, 2, 4]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.lists(st.integers(0, 5), max_size=12), st.data())
def test_fitting_matches_sort_and_count(thr, data):
    mask = data.draw(st.integers(-(1 << 13), (1 << 13) - 1))
    budget = data.draw(st.integers(-3, 5 * len(thr) + 3))
    inside = [thr[v] for v in range(len(thr)) if (mask >> v) & 1]
    assert fitting(fit_table(thr), mask, budget) == _sorted_fit(inside, budget)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs(10), st.data())
def test_counting_bound_never_exceeds_the_perfect_minimum(g, data):
    thr = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    inst = Instance(g, tuple(thr))
    best = oracle_min_perfect_tss(inst)
    assert g.n - _fit(inst, frozenset()) <= len(best)
    # a known part of the minimum only tightens the bound, never past it
    part = frozenset(v for v in best if data.draw(st.booleans()))
    assert g.n - _fit(inst, frozenset()) <= g.n - _fit(inst, part) <= len(best)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs(10), st.data())
def test_counting_bound_never_exceeds_a_decision_witness(g, data):
    thr = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    inst = Instance(g, tuple(thr))
    l = data.draw(st.integers(0, g.n))
    witness = oracle_tss_decision(inst, g.n, l)
    assert witness is not None  # the whole vertex set activates every vertex
    assert l - _fit(inst, frozenset()) <= len(witness)
    # counting_bound is the same l - F, and a known part of the witness keeps it below
    masks = g.neighbor_masks()
    part = mask_of(v for v in witness if data.draw(st.booleans()))
    table = fit_table(thr)
    assert counting_bound(masks, table, g.m, 0, l) == l - _fit(inst, frozenset())
    assert counting_bound(masks, table, g.m, part, l) <= len(witness)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(st.integers(0, 9), max_size=7, unique=True), st.integers(-1, 8),
       st.integers(-1, 8), st.data())
def test_seed_masks_from_a_minimum_size(items, hi, lo, data):
    outside = [v for v in range(10, 13) if data.draw(st.booleans())]
    base = mask_of(outside)
    everything = list(seed_masks(items, hi, base))
    assert list(seed_masks(items, hi, base, lo)) == [
        seed for seed in everything if (seed ^ base).bit_count() >= lo
    ]


def _first_reaching_scalar(masks, thr, items, max_size, target, base, min_size):
    """The loop first_reaching replaces: one closure_mask per seed, in seed order."""
    tested = 0
    for seed in seed_masks(items, max_size, base, min_size):
        tested += 1
        if closure_mask(masks, thr, seed).bit_count() >= target:
            return seed, tested
    return None, tested


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(graphs(16), st.data())
def test_first_reaching_matches_the_scalar_loop(g, data):
    thr = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    # each vertex is an item, in the base, or neither; at most 10 items keep
    # the scalar side's 2^10 closures cheap
    role = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    items = [v for v in range(g.n) if role[v] == 0][:10]
    base = mask_of(v for v in range(g.n) if role[v] == 1)
    hi = data.draw(st.integers(-1, len(items) + 1))
    lo = data.draw(st.integers(-1, len(items) + 1))
    target = data.draw(st.integers(0, g.n + 1))
    args = (g.neighbor_masks(), thr, items, hi, target, base, lo)
    # narrow chunks put chunk boundaries inside the levels of few items
    width = data.draw(st.sampled_from((1, 5, 32, activation.CHUNK)))
    with patch.object(activation, "CHUNK", width):
        assert first_reaching(*args) == _first_reaching_scalar(*args)


def test_first_reaching_past_the_first_chunk():
    # 16 items at size 5 make 4,368 seeds. Five of items 6-15 wake a hub of
    # threshold 5, which wakes the rest of them and ten pendant vertices; items
    # 0-5 are isolated. The first seed without items 0-5 comes 4,117th.
    hub, pendants = 16, range(17, 27)
    g = Graph(27, [(hub, v) for v in range(6, 16)] + [(hub, v) for v in pendants])
    thr = [1] * 27
    thr[hub] = 5
    masks = g.neighbor_masks()
    hit = (mask_of(range(6, 11)), 4117)
    assert first_reaching(masks, thr, range(16), 5, 21, 0, 5) == hit
    assert _first_reaching_scalar(masks, thr, range(16), 5, 21, 0, 5) == hit
    assert first_reaching(masks, thr, range(16), 5, 22, 0, 5) == (None, 4368)


def test_first_reaching_over_many_items():
    # Over 64 items the indicator vectors are built without the level cache,
    # at a shallow and at a deep level. 1,500 items at full size nest deeper
    # than the recursion limit.
    inst = gen_random("gnp", 75, "const", 0, p=0.06, thr_param=2)
    masks = inst.graph.neighbor_masks()
    # at size 2 the first hits come 37th, 105th and 170th of 2,415 seeds, or never
    for lo, hi, target in ((2, 2, 5), (2, 2, 6), (2, 2, 9), (2, 2, 71), (68, 69, 73),
                           (68, 69, 75)):
        args = (masks, inst.thr, range(70), hi, target, 0, lo)
        assert first_reaching(*args) == _first_reaching_scalar(*args)
    masks, thr = [0] * 1500, [1] * 1500
    assert first_reaching(masks, thr, range(1500), 1500, 1500, 0, 1500) == ((1 << 1500) - 1, 1)
