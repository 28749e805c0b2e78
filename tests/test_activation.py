import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tss import Graph, Instance, activate, closure, is_perfect_target_set
from tss.activation import closure_mask

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
