import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tss import Graph, Instance, InstanceFormatError, gen_random, parse_instance, write_instance

from helpers import rand_gnp_instance


def test_parse_smallest_instance():
    inst = parse_instance("p tss 1 0\nt 1 0\n")
    assert inst.n == 1
    assert inst.thr == (0,)
    assert inst.query is None


def test_parse_path_with_query():
    text = "p tss 3 2\nt 1 1\nt 2 2\nt 3 1\ne 1 2\ne 2 3\nq 1 3\n"
    inst = parse_instance(text)
    assert inst.n == 3
    assert inst.thr == (1, 2, 1)
    assert inst.graph.edges() == ((0, 1), (1, 2))
    assert inst.query == (1, 3)


def test_parse_comments_and_reordering():
    text = "# a comment\np tss 2 1  # trailing\nt 2 1\ne 1 2\nt 1 0\n"
    inst = parse_instance(text)
    assert inst.thr == (0, 1)
    assert inst.graph.edges() == ((0, 1),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p tss 2 2\nt 1 0\nt 2 0\ne 1 2\ne 1 2\n", "duplicate edge at line 5"),
        ("p tss 2 1\nt 1 0\nt 2 0\ne 1 1\n", "self-loop at line 4"),
        ("p tss 2 0\nt 1 0\nt 3 0\n", "unknown vertex 3 at line 3"),
        ("p tss 2 0\nt 1 0\nt 2 -1\n", "negative threshold at line 3"),
        ("p tss 2 0\nt 1 0\nt 1 1\n", "duplicate threshold for vertex 1 at line 3"),
        ("p tss 2 0\nt 1 0\n", "missing threshold for vertex 2"),
        ("p tss 2 1\nt 1 0\nt 2 0\n", "declares 1 edges, found 0"),
        ("t 1 0\n", "header at line 1"),
        ("p tss 2 0\nt 1 0\nt 2 0\nq 3 1\n", "query out of range at line 4"),
        ("p tss 2 0\nt 1 0\nt 2 0\nq 1 5\n", "query out of range at line 4"),
        ("p tss 2 0\nt 1 0\nt 2 0\nq -1 1\n", "negative query value at line 4"),
        ("p tss 2 0\nt 1 0\nt 2 0\nx 1 2\n", "unknown line type"),
        ("", "missing 'p tss"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_missing_threshold_found_without_listing_every_vertex():
    # a short header claiming millions of vertices must not cost memory per vertex
    tracemalloc.start()
    try:
        with pytest.raises(InstanceFormatError, match="missing threshold for vertex 1$"):
            parse_instance("p tss 3000000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_force_clamps_oversized_query():
    text = "p tss 2 0\nt 1 0\nt 2 0\nq 5 9\n"
    inst = parse_instance(text, force=True)
    assert inst.query == (2, 2)
    with pytest.raises(InstanceFormatError):
        parse_instance("p tss 2 0\nt 1 0\nt 2 0\nq -1 0\n", force=True)


def test_write_round_trip_fixed():
    inst = Instance(Graph(1, []), (0,))
    assert write_instance(inst) == "p tss 1 0\nt 1 0\n"
    text = "p tss 3 2\nt 1 1\nt 2 2\nt 3 1\ne 1 2\ne 2 3\nq 1 3\n"
    assert write_instance(parse_instance(text)) == text


def test_write_round_trip_random():
    rng = random.Random(2024)
    for _ in range(80):
        inst = rand_gnp_instance(rng, rng.randint(0, 12), 4, p=rng.random())
        if inst.n and rng.random() < 0.5:
            inst = inst.with_query(rng.randint(0, inst.n), rng.randint(0, inst.n))
        again = parse_instance(write_instance(inst))
        assert again == inst


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Instance(Graph(2, []), (0,))
    with pytest.raises(ValueError):
        Instance(Graph(2, []), (0, -1))
    with pytest.raises(ValueError):
        Instance(Graph(2, []), (0, 0), (0, 3))


def test_gen_gnp_extremes():
    inst = gen_random("gnp", 4, "const", 7, p=0.0, thr_param=1)
    assert inst.graph.m == 0
    assert inst.thr == (1, 1, 1, 1)
    inst = gen_random("gnp", 3, "dual", 1, p=1.0, thr_param=0)
    assert inst.graph.m == 3
    assert inst.thr == (2, 2, 2)


def test_gen_determinism():
    a = gen_random("gnp", 10, "ratio_third", 42, p=0.5)
    b = gen_random("gnp", 10, "ratio_third", 42, p=0.5)
    assert a == b
    c = gen_random("gnp", 10, "ratio_third", 43, p=0.5)
    assert a != c or a.graph == c.graph  # different seed generally differs


def test_gen_ratio_third_cap():
    for seed in range(30):
        inst = gen_random("gnp", 11, "ratio_third", seed, p=0.45)
        for v in range(inst.n):
            assert inst.thr[v] <= -(-inst.graph.degree(v) // 3)


def test_gen_const_never_exceeds_bound():
    inst = gen_random("gnp", 9, "const", 5, p=0.3, thr_param=2)
    for v in range(inst.n):
        assert inst.thr[v] == min(2, inst.graph.degree(v) + 1)


def test_gen_regular():
    inst = gen_random("regular", 8, "uniform", 3, degree=3, thr_param=2)
    assert all(inst.graph.degree(v) == 3 for v in range(8))
    assert all(0 <= t <= 2 for t in inst.thr)
    assert gen_random("regular", 8, "uniform", 3, degree=3, thr_param=2) == inst
    # stub pairing keeps failing this dense; the complement of a 1-regular draw is used
    dense = gen_random("regular", 12, "const", 1, degree=10)
    assert all(dense.graph.degree(v) == 10 for v in range(12))
    # mid-density draws where every full pairing clashes and 2d <= n - 1:
    # stubs are then paired one suitable pair at a time (Graph rejects loops and
    # parallel edges, so the degrees show a simple d-regular graph)
    for n, d in ((16, 7), (20, 9)):
        g = gen_random("regular", n, "const", 1, degree=d).graph
        assert all(g.degree(v) == d for v in range(n))
    with pytest.raises(ValueError):
        gen_random("regular", 5, "const", 0, degree=3)
    with pytest.raises(ValueError):
        gen_random("regular", 4, "const", 0, degree=4)


def test_gen_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_random("gnp", 4, "const", 0, p=1.5)
    with pytest.raises(ValueError):
        gen_random("blob", 4, "const", 0)
    with pytest.raises(ValueError):
        gen_random("gnp", 4, "nope", 0)
    with pytest.raises(ValueError):
        gen_random("gnp", 4, "uniform", 0, thr_param=-1)


def test_induced_subgraph_mapping():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub, ids = g.induced({1, 2, 4})
    assert ids == [1, 2, 4]
    assert sub.edges() == ((0, 1),)


def test_components():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    assert g.components() == [[0, 1], [2, 3, 4], [5]]
    assert not g.is_connected()
    assert Graph(1, []).is_connected()



_NUM = st.integers(-1, 4).map(str)
# lines shaped like the format's four kinds, with small and bad values, and token soup
_LINE = st.one_of(
    st.tuples(st.just("p"), st.sampled_from(["tss", "x"]), _NUM, _NUM).map(" ".join),
    st.tuples(st.sampled_from(["t", "e", "q"]), _NUM, _NUM).map(" ".join),
    st.lists(st.one_of(st.sampled_from(["p", "tss", "t", "e", "q", "#", "1.5", "0x1"]), _NUM,
                       st.text(max_size=3)), max_size=5).map(" ".join),
)


@st.composite
def _instance_lines(draw) -> list[str]:
    """The lines of a well-formed instance on at most 4 vertices, in any order
    after the header, then up to two lines dropped or inserted from _LINE."""
    n = draw(st.integers(0, 4))
    pairs = [f"e {u} {v}" for u in range(1, n + 1) for v in range(1, n + 1) if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    body = [f"t {v} {draw(st.integers(0, 3))}" for v in range(1, n + 1)] + edges
    if draw(st.booleans()):
        body.append(f"q {draw(st.integers(0, n + 1))} {draw(st.integers(0, n + 1))}")
    lines = [f"p tss {n} {len(edges)}", *draw(st.permutations(body))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        if at < len(lines) and draw(st.booleans()):
            del lines[at]
        else:
            lines.insert(at, draw(_LINE))
    return lines


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(st.one_of(_instance_lines(), st.lists(_LINE, max_size=14)), st.booleans())
def test_parse_is_total_and_write_round_trips(lines, force):
    # any text parses to an Instance or raises InstanceFormatError, nothing else,
    # and the canonical text of what parses reads back as the same instance
    try:
        inst = parse_instance("\n".join(lines), force=force)
    except InstanceFormatError:
        return
    assert isinstance(inst, Instance)
    assert parse_instance(write_instance(inst)) == inst
