import random
import time
from itertools import permutations
from math import floor

import pytest

import tss.degree_ratio as degree_ratio
from tss import (
    Graph,
    Instance,
    closure,
    construct_small_pts,
    gen_random,
    is_perfect_target_set,
    oracle_min_perfect_tss,
    oracle_tss_decision,
    pts_from_permutation,
    solve_ratio_tss,
)

from helpers import (
    complete_instance,
    cycle_instance,
    path_instance,
    rand_connected_ratio_instance,
    rand_gnp_instance,
    rand_ratio_instance,
)


def test_pts_from_permutation_path():
    inst = path_instance((1, 1, 1))
    assert pts_from_permutation(inst, [0, 1, 2]) == frozenset({0})
    assert pts_from_permutation(inst, [2, 1, 0]) == frozenset({2})


def test_pts_from_permutation_zero_thresholds():
    inst = Instance(Graph(4, [(0, 1), (1, 2)]), (0, 0, 0, 0))
    for order in permutations(range(4)):
        assert pts_from_permutation(inst, order) == frozenset()


def test_pts_from_permutation_triangle_forward_and_reversed():
    inst = complete_instance(3, 2)
    fwd = pts_from_permutation(inst, [0, 1, 2])
    rev = pts_from_permutation(inst, [2, 1, 0])
    assert len(fwd) == len(rev) == 2
    assert is_perfect_target_set(inst, fwd)
    assert is_perfect_target_set(inst, rev)


def test_pts_from_permutation_rejects_non_permutations():
    inst = path_instance((1, 1, 1))
    with pytest.raises(ValueError):
        pts_from_permutation(inst, [0, 1])
    with pytest.raises(ValueError):
        pts_from_permutation(inst, [0, 1, 1])
    with pytest.raises(ValueError):
        pts_from_permutation(inst, [0, 1, 3])


def test_every_permutation_yields_perfect_set():
    rng = random.Random(700)
    for _ in range(40):
        inst = rand_gnp_instance(rng, rng.randint(1, 7), 4, p=rng.random())
        order = list(range(inst.n))
        rng.shuffle(order)
        assert is_perfect_target_set(inst, pts_from_permutation(inst, order))
    # exhaustively on one small instance
    inst = rand_gnp_instance(rng, 5, 2, p=0.5)
    for order in permutations(range(5)):
        assert is_perfect_target_set(inst, pts_from_permutation(inst, order))


def test_construct_triangle_and_path():
    assert len(construct_small_pts(cycle_instance((1, 1, 1)))) == 1
    got = construct_small_pts(path_instance((1, 1, 1, 1)))
    assert len(got) == 1
    assert is_perfect_target_set(path_instance((1, 1, 1, 1)), got)


def test_construct_preconditions():
    with pytest.raises(ValueError):
        construct_small_pts(Instance(Graph(4, [(0, 1), (2, 3)]), (1, 1, 1, 1)))
    with pytest.raises(ValueError):
        construct_small_pts(path_instance((1, 1)))
    with pytest.raises(ValueError):
        construct_small_pts(cycle_instance((2, 1, 1)))


def test_construct_meets_bound_on_corpus():
    rng = random.Random(808)
    for trial in range(120):
        n = rng.randint(3, 14)
        inst = rand_connected_ratio_instance(rng, n)
        got = construct_small_pts(inst, seed=trial)
        assert is_perfect_target_set(inst, got)
        assert len(got) <= floor(0.45 * n), (n, len(got), inst.graph.edges(), inst.thr)


def test_exhaustive_fallback_returns_oracle_minimum(monkeypatch):
    # with every ordering sample taking all vertices, sampling never meets the
    # bound and the fallback answers alone: the first perfect set in (size,
    # lexicographic) order within floor(0.45n), which is the oracle's
    monkeypatch.setattr(degree_ratio, "pts_from_permutation", lambda inst, order: frozenset(order))
    rng = random.Random(4242)
    checked = 0
    for _ in range(40):
        inst = rand_connected_ratio_instance(rng, rng.randint(4, 12))
        if 2 * sum(1 for v in range(inst.n) if inst.graph.degree(v) == 1) > inst.n:
            continue  # the degree-one peeling rule answers these before sampling
        assert construct_small_pts(inst) == oracle_min_perfect_tss(inst)
        checked += 1
    assert checked > 20


def _caterpillar(spine: int) -> Instance:
    """A path of spine vertices, each with two leaves; thresholds 1."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + 2 * i + j) for i in range(spine) for j in range(2)]
    return Instance(Graph(3 * spine, edges), (1,) * (3 * spine))


def _spider() -> Instance:
    """Hub 0 with 20 leaves and legs of 4, 6 and 5 vertices; thresholds 1.
    Peeling the hub leaves the three legs, each sampled in turn."""
    edges = [(0, i) for i in range(1, 21)]
    nxt = 21
    for length in (4, 6, 5):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Instance(Graph(nxt, edges), (1,) * nxt)


def _nested_spider() -> Instance:
    """Hub 0 with 14 leaves, a leg 15-18 to a sub-hub 19 with 8 leaves, and a
    leg 28-32; thresholds 1. The first part peels again before the second leg
    is sampled."""
    edges = [(0, i) for i in range(1, 15)] + [(0, 15), (15, 16), (16, 17), (17, 18), (18, 19)]
    edges += [(19, i) for i in range(20, 28)] + [(0, 28), (28, 29), (29, 30), (30, 31), (31, 32)]
    return Instance(Graph(33, edges), (1,) * 33)


# construct_small_pts at seeds 0 and 1 on peeling inputs. The spiders' legs are
# sampled, so the sets also pin the order in which parts consume the generator.
CONSTRUCT_PINS = [
    (_caterpillar(10), [list(range(10))] * 2),
    (_spider(), [[0, 23, 28, 30, 32, 35], [0, 24, 26, 29, 33, 35]]),
    (_nested_spider(), [[0, 17, 19, 32], [0, 19, 29, 31]]),
]


@pytest.mark.parametrize("inst, expected", CONSTRUCT_PINS, ids=["caterpillar", "spider", "nested"])
def test_construct_pinned_on_peeling_inputs(inst, expected):
    assert [sorted(construct_small_pts(inst, seed)) for seed in (0, 1)] == expected


def test_construct_deterministic_for_seed():
    inst = rand_connected_ratio_instance(random.Random(4), 10)
    assert construct_small_pts(inst, seed=9) == construct_small_pts(inst, seed=9)


def test_membership_frequency_matches_ratio():
    # over random orderings, v lands in the set with frequency thr(v)/(deg(v)+1)
    rng = random.Random(123)
    inst = rand_connected_ratio_instance(rng, 8)
    samples = 3000
    hits = [0] * inst.n
    order = list(range(inst.n))
    for _ in range(samples):
        rng.shuffle(order)
        for v in pts_from_permutation(inst, order):
            hits[v] += 1
    for v in range(inst.n):
        expect = inst.thr[v] / (inst.graph.degree(v) + 1)
        assert abs(hits[v] / samples - expect) < 0.05


def test_solve_ratio_greedy_over_small_components():
    # an edge pair plus an isolated zero-threshold vertex: one pick activates all three
    inst = Instance(Graph(3, [(0, 1)]), (1, 1, 0))
    got = solve_ratio_tss(inst, 1, 3)
    assert got is not None and len(got) == 1
    assert len(closure(inst, got)) == 3


def test_solve_ratio_trivial_target():
    inst = rand_ratio_instance(random.Random(6), 6)
    assert solve_ratio_tss(inst, 0, 0) == frozenset()


def test_solve_ratio_target_beyond_n_is_a_trivial_no():
    inst = gen_random("regular", 40, "const", 0, degree=3, thr_param=1)
    start = time.perf_counter()
    assert solve_ratio_tss(inst, 40, 41) is None
    assert time.perf_counter() - start < 0.1


def test_solve_ratio_matches_oracle():
    rng = random.Random(2026)
    for _ in range(120):
        n = rng.randint(1, 10)
        inst = rand_ratio_instance(rng, n, p=rng.choice([0.2, 0.35, 0.5]))
        k, l = rng.randint(0, n), rng.randint(0, n)
        expected = oracle_tss_decision(inst, k, l) is not None
        got = solve_ratio_tss(inst, k, l)
        assert (got is not None) == expected, (inst.thr, inst.graph.edges(), k, l)
        if got is not None:
            assert len(got) <= k and len(closure(inst, got)) >= l


def test_solve_ratio_precondition():
    with pytest.raises(ValueError):
        solve_ratio_tss(complete_instance(3, 2), 1, 1)


def test_greedy_exchange_increments():
    # picking in an inactive two-vertex component activates exactly two more
    # vertices; in an inactive singleton exactly one more
    rng = random.Random(15)
    for _ in range(60):
        inst = rand_ratio_instance(rng, rng.randint(2, 10), p=0.15)
        comps = inst.graph.components()
        base = closure(inst, ())
        for comp in comps:
            if len(comp) == 2 and comp[0] not in base:
                assert len(closure(inst, {comp[0]})) == len(base) + 2
            if len(comp) == 1 and comp[0] not in base:
                assert len(closure(inst, {comp[0]})) == len(base) + 1


def test_small_minimum_exists_under_ratio_cap():
    # the guarantee behind the construction: the true minimum fits the bound
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(3, 12)
        inst = rand_connected_ratio_instance(rng, n)
        assert len(oracle_min_perfect_tss(inst)) <= floor(0.45 * n)
