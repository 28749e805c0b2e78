"""Shared builders for unit and acceptance tests: small named graphs and seeded corpora."""

from __future__ import annotations

import random

from hypothesis import strategies as st

import tss.bounded_thr as bounded_thr
from tss import Graph, Instance


def path_instance(thr: tuple[int, ...]) -> Instance:
    n = len(thr)
    return Instance(Graph(n, [(i, i + 1) for i in range(n - 1)]), thr)


def cycle_instance(thr: tuple[int, ...]) -> Instance:
    n = len(thr)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Instance(Graph(n, edges), thr)


def complete_instance(n: int, t: int) -> Instance:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Instance(Graph(n, edges), (t,) * n)


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def rand_gnp_instance(rng: random.Random, n: int, thr_max: int, p: float = 0.4) -> Instance:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    thr = tuple(rng.randint(0, thr_max) for _ in range(n))
    return Instance(g, thr)


def rand_connected_graph(rng: random.Random, n: int, extra_p: float = 0.25) -> Graph:
    """Random spanning tree plus extra edges; always connected."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, n):
        u, v = perm[i], perm[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def rand_connected_instance(rng: random.Random, n: int, thr_max: int) -> Instance:
    g = rand_connected_graph(rng, n)
    return Instance(g, tuple(rng.randint(0, thr_max) for _ in range(n)))


def rand_connected_ratio_instance(rng: random.Random, n: int) -> Instance:
    """Connected instance with thr(v) <= ceil(deg(v)/3) everywhere."""
    g = rand_connected_graph(rng, n)
    thr = tuple(rng.randint(0, -(-g.degree(v) // 3)) for v in range(n))
    return Instance(g, thr)


def rand_ratio_instance(rng: random.Random, n: int, p: float = 0.35) -> Instance:
    """Possibly-disconnected instance with thr(v) <= ceil(deg(v)/3) everywhere."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    thr = tuple(rng.randint(0, -(-g.degree(v) // 3)) for v in range(n))
    return Instance(g, thr)


def rand_bounded_degree_graph(rng: random.Random, n: int, max_deg: int) -> Graph:
    """Random graph with all degrees <= max_deg (greedy edge insertion)."""
    cands = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(cands)
    deg = [0] * n
    edges = []
    for u, v in cands:
        if deg[u] < max_deg and deg[v] < max_deg and rng.random() < 0.7:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


def rand_dual_instance(rng: random.Random, n: int, d: int, p: float = 0.4) -> Instance:
    """Instance with all dual values deg(v) - thr(v) in 0..d."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    thr = tuple(max(0, g.degree(v) - rng.randint(0, d)) for v in range(n))
    return Instance(g, thr)


def naive_rounds(inst: Instance, seed: frozenset[int]) -> list[frozenset[int]]:
    """Re-scan reference for the activation recurrence, up to the first fixpoint."""
    nbr = inst.graph.neighbor_sets()
    current = frozenset(seed)
    rounds = [current]
    while True:
        nxt = current | frozenset(
            v for v in range(inst.n) if len(nbr[v] & current) >= inst.thr[v]
        )
        if nxt == current:
            return rounds
        rounds.append(nxt)
        current = nxt


@st.composite
def graphs(draw, max_n: int) -> Graph:
    """A simple graph on at most max_n vertices, each possible edge drawn independently."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, kept in zip(pairs, keep) if kept])


def record_br1_splits(monkeypatch, module) -> list[tuple[int, int]]:
    """Wrap module.br1_split; each split it returns appends (thr(pivot), child count).
    The pivot is the group member that the last child, its thr neighbours, leaves out."""
    splits: list[tuple[int, int]] = []
    original = module.br1_split

    def wrapper(masks, thr, free, stats=None):
        split = original(masks, thr, free, stats)
        if split is not None:
            group, children = split
            splits.append((thr[(group & ~children[-1]).bit_length() - 1], len(children)))
        return split

    monkeypatch.setattr(module, "br1_split", wrapper)
    return splits


def record_quota_windows(monkeypatch) -> list[tuple[range, int]]:
    """Wrap bounded_thr._Ctx.feasible_quotas; each call appends (window, thr(v))."""
    windows: list[tuple[range, int]] = []
    original = bounded_thr._Ctx.feasible_quotas

    def wrapper(self, nbr_v, thr_v, free):
        window = original(self, nbr_v, thr_v, free)
        windows.append((window, thr_v))
        return window

    monkeypatch.setattr(bounded_thr._Ctx, "feasible_quotas", wrapper)
    return windows


def record_stage3_pairs(monkeypatch) -> dict[int, set[tuple[int, int]]]:
    """Wrap bounded_thr.stage3_dp; per quota vertex v, collect the pairs (d_v, cap_v)
    of each within-budget leaf: d ranges over its shape's table's end quota vectors
    within the leaf's caps, the states a pass capped at them reaches."""
    pairs: dict[int, set[tuple[int, int]]] = {}
    original = bounded_thr.stage3_dp

    def wrapper(inst, selected, free, ctx, projected, k, l, stats=None, tables=None):
        tables = {} if tables is None else tables
        picks = original(inst, selected, free, ctx, projected, k, l, stats, tables)
        if (selected | ctx.inside).bit_count() <= k:
            constrained = tuple(sorted(ctx.quota))
            caps = tuple(ctx.quota[v] for v in constrained)
            for d in tables[(free, ctx.inside, ctx.outside, projected, constrained)]:
                if all(map(int.__le__, d, caps)):
                    for v, dv, cap in zip(constrained, d, caps):
                        pairs.setdefault(v, set()).add((dv, cap))
        return picks

    monkeypatch.setattr(bounded_thr, "stage3_dp", wrapper)
    return pairs
