from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from tss import Graph, Instance, closure, oracle_tss_decision, solve_sliced
from tss.stats import Stats

from helpers import graphs, path_instance


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(graphs(9), st.data())
def test_sliced_matches_oracle(g, data):
    # thresholds up to 4 on at most 9 vertices, so thr > deg is common: such
    # vertices are forced at (n, n) and may stay inactive below it. The residual
    # bound's edge cases ride along: a target the unseeded closure already
    # reaches, and thresholds cut to 1, which leave every residual threshold 1
    thr = data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n))
    inst = Instance(g, tuple(thr))
    ones = Instance(g, tuple(min(x, 1) for x in thr))
    k = data.draw(st.integers(0, g.n))
    l = data.draw(st.integers(0, g.n + 1))
    reached = len(closure(inst, ()))
    for case, query in ((inst, (g.n, g.n)), (inst, (k, l)), (inst, (k, reached)),
                        (ones, (g.n, g.n)), (ones, (k, l))):
        assert solve_sliced(case, *query) == oracle_tss_decision(case, *query), query


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graphs(8), st.data())
def test_isolated_zero_threshold_vertex_changes_no_witness(g, data):
    # the new vertex n activates for free, so (k, l + 1) with it asks what (k, l)
    # asked without it; a seed holding it is never the first answer
    thr = tuple(data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n)))
    k = data.draw(st.integers(0, g.n))
    l = data.draw(st.integers(0, g.n + 1))
    inst = Instance(g, thr)
    wider = Instance(Graph(g.n + 1, g.edges()), (*thr, 0))
    for solver in (solve_sliced, oracle_tss_decision):
        assert solver(wider, k, l + 1) == solver(inst, k, l), solver.__name__


def test_sliced_trivial_answers():
    inst = path_instance((3, 1, 3))  # both ends are forced for a perfect query
    stats = Stats()
    assert solve_sliced(inst, 3, 4, stats) is None  # l > n
    assert solve_sliced(inst, 1, 3, stats) is None  # two forced vertices, budget one
    assert stats.leaf_seeds == 0
    assert solve_sliced(inst, 2, 3, stats) == frozenset({0, 2})
    with pytest.raises(ValueError):
        solve_sliced(inst, -1, 0)
