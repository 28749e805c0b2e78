"""Core data model: graphs with activation thresholds, parsing, writing, random generation.

Instance files are line-oriented text ('#' starts a comment):

    p tss <n> <m>      header, exactly once, first non-comment line
    t <v> <thr>        one per vertex v in 1..n
    e <u> <v>          m edge lines, u != v
    q <k> <l>          optional query, at most once

Vertices are 1-based in files and 0-based in memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .activation import mask_of


class InstanceFormatError(ValueError):
    """Raised for malformed instance text; the message names the offending line."""


class Graph:
    """Simple undirected graph: no loops, no parallel edges, symmetric adjacency.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("n", "adj", "_nbr_sets", "_masks", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._nbr_sets: Optional[tuple[frozenset[int], ...]] = None
        self._masks: Optional[tuple[int, ...]] = None
        self._edges: Optional[tuple[tuple[int, int], ...]] = None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, ascending."""
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u in range(self.n) for v in self.adj[u] if u < v
            )
        return self._edges

    @property
    def m(self) -> int:
        return len(self.edges())

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        if self._nbr_sets is None:
            self._nbr_sets = tuple(frozenset(a) for a in self.adj)
        return self._nbr_sets

    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighborhood bitmasks (bit v set iff v is a neighbor)."""
        if self._masks is None:
            self._masks = tuple(mask_of(a) for a in self.adj)
        return self._masks

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets()[u]

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the list mapping new ids to original ids."""
        old_ids = sorted(vertices)
        index = {old: new for new, old in enumerate(old_ids)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph(len(old_ids), edges), old_ids

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest member."""
        seen = [False] * self.n
        comps: list[list[int]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Instance:
    """A graph, per-vertex thresholds, and an optional (budget, target) query.

    thr(v) may exceed deg(v); such a vertex activates only by selection.
    """

    graph: Graph
    thr: tuple[int, ...]
    query: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        n = self.graph.n
        if len(self.thr) != n:
            raise ValueError(f"expected {n} thresholds, got {len(self.thr)}")
        if any(t < 0 for t in self.thr):
            raise ValueError("thresholds must be non-negative")
        if self.query is not None:
            k, l = self.query
            if not (0 <= k <= n and 0 <= l <= n):
                raise ValueError(f"query ({k},{l}) out of range 0..{n}")

    @property
    def n(self) -> int:
        return self.graph.n

    def max_threshold(self) -> int:
        return max(self.thr, default=0)

    def dual_values(self) -> tuple[int, ...]:
        """deg(v) - thr(v) per vertex; negative when thr(v) > deg(v)."""
        return tuple(self.graph.degree(v) - t for v, t in enumerate(self.thr))

    def with_query(self, k: int, l: int) -> "Instance":
        return Instance(self.graph, self.thr, (k, l))


def parse_instance(text: str, force: bool = False) -> Instance:
    """Parse instance text; raises InstanceFormatError naming the offending line.

    With force=True, an out-of-range query is clamped to min(value, n) instead
    of rejected; negative query values are always rejected.
    """
    n = m = -1
    thr: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    edge_keys: set[tuple[int, int]] = set()
    query: Optional[tuple[int, int]] = None
    header_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if n < 0 and tag != "p":
            raise InstanceFormatError(f"expected 'p tss <n> <m>' header at line {lineno}")
        if tag == "p":
            if n >= 0:
                raise InstanceFormatError(f"duplicate header at line {lineno} (first at line {header_line})")
            if len(parts) != 4 or parts[1] != "tss":
                raise InstanceFormatError(f"malformed header at line {lineno}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise InstanceFormatError(f"malformed header at line {lineno}") from None
            if n < 0 or m < 0:
                raise InstanceFormatError(f"malformed header at line {lineno}")
            header_line = lineno
        elif tag == "t":
            v, t = _two_ints(parts, "threshold", lineno)
            if not (1 <= v <= n):
                raise InstanceFormatError(f"threshold line for unknown vertex {v} at line {lineno}")
            if v - 1 in thr:
                raise InstanceFormatError(f"duplicate threshold for vertex {v} at line {lineno}")
            if t < 0:
                raise InstanceFormatError(f"negative threshold at line {lineno}")
            thr[v - 1] = t
        elif tag == "e":
            u, v = _two_ints(parts, "edge", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceFormatError(f"edge with unknown vertex at line {lineno}")
            if u == v:
                raise InstanceFormatError(f"self-loop at line {lineno}")
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in edge_keys:
                raise InstanceFormatError(f"duplicate edge at line {lineno}")
            edge_keys.add(key)
            edges.append(key)
        elif tag == "q":
            if query is not None:
                raise InstanceFormatError(f"duplicate query at line {lineno}")
            k, l = _two_ints(parts, "query", lineno)
            if k < 0 or l < 0:
                raise InstanceFormatError(f"negative query value at line {lineno}")
            if k > n or l > n:
                if not force:
                    raise InstanceFormatError(
                        f"query out of range at line {lineno}: k={k} l={l} with n={n}"
                    )
                k, l = min(k, n), min(l, n)
            query = (k, l)
        else:
            raise InstanceFormatError(f"unknown line type {tag!r} at line {lineno}")

    if n < 0:
        raise InstanceFormatError("missing 'p tss <n> <m>' header")
    missing = [v + 1 for v in range(n) if v not in thr]
    if missing:
        raise InstanceFormatError(f"missing threshold for vertex {missing[0]}")
    if len(edges) != m:
        raise InstanceFormatError(f"header declares {m} edges, found {len(edges)}")
    graph = Graph(n, edges)
    return Instance(graph, tuple(thr[v] for v in range(n)), query)


def write_instance(inst: Instance) -> str:
    """Canonical text whose reparse equals inst: t lines in vertex order, edges u < v ascending."""
    out = [f"p tss {inst.n} {inst.graph.m}"]
    out.extend(f"t {v + 1} {t}" for v, t in enumerate(inst.thr))
    out.extend(f"e {u + 1} {v + 1}" for u, v in inst.graph.edges())
    if inst.query is not None:
        out.append(f"q {inst.query[0]} {inst.query[1]}")
    return "\n".join(out) + "\n"


def gen_random(
    model: str,
    n: int,
    thr_model: str,
    seed: int,
    *,
    p: float = 0.5,
    degree: int = 0,
    thr_param: int = 1,
) -> Instance:
    """Deterministic random instance for a fixed seed.

    model: "gnp" (each pair independently with probability p) or
           "regular" (random degree-`degree` graph; requires n*degree even, degree < n).
    thr_model:
      "const":       thr(v) = min(thr_param, deg(v) + 1)
      "ratio_third": thr(v) uniform in 0..ceil(deg(v)/3)
      "dual":        thr(v) = max(0, deg(v) - thr_param)
      "uniform":     thr(v) uniform in 0..thr_param
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = random.Random(seed)
    if model == "gnp":
        if not (0.0 <= p <= 1.0):
            raise ValueError("gnp probability must be in [0, 1]")
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
    elif model == "regular":
        edges = _regular_edges(rng, n, degree)
    else:
        raise ValueError(f"unknown graph model {model!r}")
    graph = Graph(n, edges)

    if thr_model == "const":
        if thr_param < 0:
            raise ValueError("const threshold must be non-negative")
        thr = tuple(min(thr_param, graph.degree(v) + 1) for v in range(n))
    elif thr_model == "ratio_third":
        thr = tuple(rng.randint(0, -(-graph.degree(v) // 3)) for v in range(n))
    elif thr_model == "dual":
        if thr_param < 0:
            raise ValueError("dual bound must be non-negative")
        thr = tuple(max(0, graph.degree(v) - thr_param) for v in range(n))
    elif thr_model == "uniform":
        if thr_param < 0:
            raise ValueError("uniform bound must be non-negative")
        thr = tuple(rng.randint(0, thr_param) for v in range(n))
    else:
        raise ValueError(f"unknown threshold model {thr_model!r}")
    return Instance(graph, thr)


def _two_ints(parts: Sequence[str], what: str, lineno: int) -> tuple[int, int]:
    if len(parts) != 3:
        raise InstanceFormatError(f"malformed {what} line at line {lineno}")
    try:
        return int(parts[1]), int(parts[2])
    except ValueError:
        raise InstanceFormatError(f"malformed {what} line at line {lineno}") from None


def _regular_edges(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """Random d-regular edge set via stub pairing, retried until simple."""
    if d < 0 or d >= max(n, 1):
        raise ValueError(f"regular degree {d} inconsistent with n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n} d={d}")
    if d == 0:
        return []
    for _ in range(10000):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return sorted(edges)
    raise ValueError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def subsets_ascending(items: Sequence[int], max_size: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All subsets of items in (size, lexicographic) order, optionally size-capped."""
    top = len(items) if max_size is None else min(max_size, len(items))
    for size in range(top + 1):
        yield from combinations(items, size)
