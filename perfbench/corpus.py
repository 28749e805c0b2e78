"""Seeded benchmark corpus: instance families, the queries asked of them, and their checks.

A workload is a list of families. A family makes one instance per size slot,
from `gen_random` or from a hand-built recipe, and names the `tss` queries
asked of each instance. The workload seed picks every generator seed, so one
seed always gives the same files; the size slots are fixed, so every seed
gives the same size mix.

Building the corpus (generating and writing the files) is the timed set-up.
Computing the reference answers is not: `make_queries` asks the plain
`tss.oracle` functions (or set-based `closure`) once per question and times
each call for the per-(instance, algo) table. Nothing is cached between
runs, so every oracle time in a run's table was measured in that run.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from tss.activation import closure
from tss.instance import Graph, Instance, gen_random, parse_instance, write_instance
from tss.oracle import oracle_enum_mpvc, oracle_min_perfect_tss, oracle_tss_decision


class CorpusError(RuntimeError):
    """A family could not be built or a query could not be derived; set-up aborts."""


@dataclass(frozen=True)
class Family:
    """Instances of one kind, one per size slot, each asked the same queries.

    make(n, seed) returns the instance for one slot. asks lists what is asked
    of each instance: solver names for `perfect` and `solve`, subcommand
    names for one-shot queries. flags are extra arguments for every query.
    """

    name: str
    why: str
    make: Callable[[int, int], Instance]
    sizes: tuple[int, ...]
    asks: tuple[str, ...]
    flags: tuple[str, ...] = ()


@dataclass
class Item:
    """One instance of the corpus and the file it was written to."""

    family: Family
    index: int
    seed: int
    inst: Instance
    text: str
    path: str

    @property
    def label(self) -> str:
        return f"{self.family.name}/{self.index}"


@dataclass
class Query:
    """One `tss` invocation with its reference.

    argv excludes the flags the traced run adds. check(exit_code, stdout)
    returns None when the output agrees with the reference, else the reason.
    oracle_ms is the reference's time on the same question, when one exists.
    """

    item: Item
    command: str
    algo: str
    question: str
    argv: list[str]
    check: Callable[[int, str], Optional[str]]
    oracle_ms: Optional[float] = None


# ---------------------------------------------------------------- recipes


def _gen(model: str, thr_model: str, **kwargs) -> Callable[[int, int], Instance]:
    def make(n: int, seed: int) -> Instance:
        return gen_random(model, n, thr_model, seed, **kwargs)

    return make


def _isolated(n: int, seed: int) -> Instance:
    """n isolated vertices of threshold one: the only perfect set is every vertex."""
    return Instance(Graph(n, []), (1,) * n)


def _ratio_cap(degree: int) -> Callable[[int, int], Instance]:
    """A random regular graph with thr(v) = ceil(deg(v)/3), the largest the degree/3 cap allows."""

    def make(n: int, seed: int) -> Instance:
        g = gen_random("regular", n, "const", seed, degree=degree).graph
        return Instance(g, tuple(-(-g.degree(v) // 3) for v in range(n)))

    return make


def _dual_5_regular(d: int) -> Callable[[int, int], Instance]:
    """A random 5-regular graph with dual thresholds max(0, deg(v) - d).

    It is a random 4-regular draw plus a random perfect matching that avoids
    its edges. gen_random's stub pairing retries hundreds of times at degree
    5, and that retry count would make set-up time swing with the seed.
    """

    def make(n: int, seed: int) -> Instance:
        base = gen_random("regular", n, "const", seed, degree=4).graph
        rng = random.Random(seed)
        for _ in range(10000):
            order = list(range(n))
            rng.shuffle(order)
            matching = [(min(u, v), max(u, v)) for u, v in zip(order[::2], order[1::2])]
            if not any(base.has_edge(u, v) for u, v in matching):
                g = Graph(n, list(base.edges()) + matching)
                return Instance(g, tuple(max(0, g.degree(v) - d) for v in range(n)))
        raise RuntimeError(f"no perfect matching avoids the 4-regular draw on {n} vertices")

    return make


def _sparse_gnp(avg_degree: float, thr: int) -> Callable[[int, int], Instance]:
    def make(n: int, seed: int) -> Instance:
        return gen_random("gnp", n, "const", seed, p=avg_degree / n, thr_param=thr)

    return make


# ---------------------------------------------------------------- workloads

# Size slots are chosen so that each workload's median and 90th-percentile
# query fall inside a large group of similar queries, not on the edge between
# groups; otherwise a different seed would move those percentiles.
PERFECT = [
    # p=0.3, not sparser: at p=0.25 a rare draw has several vertices of degree
    # at most one, which thr2 must seed, and one such draw made a whole pass
    # half as slow again. The isolated family measures that case on purpose.
    Family("gnp-c2", "thresholds two on gnp: the common thr2 input, mostly settled by part 1's"
           " brute force, so it weighs the CLI path and the bitmask kernel",
           _gen("gnp", "const", p=0.3, thr_param=2),
           (18, 19, 20) * 2 + (21, 22, 23, 24) * 9, ("auto", "thr3", "dual")),
    Family("reg3-c2", "3-regular with thresholds two sends thr2 into part 2's branching,"
           " where it loses to the oracle",
           _gen("regular", "const", degree=3, thr_param=2),
           (16,) * 8 + (18,) * 8 + (20,), ("auto", "dual")),
    Family("gnp-c3", "ROADMAP pathology: thr3 on gnp p=0.2 at n=20 is as slow as the oracle"
           " and 100x slower than the dual branch-and-bound",
           _gen("gnp", "const", p=0.2, thr_param=3),
           (14, 15, 16, 16, 17, 18, 20), ("auto", "dual")),
    Family("reg4-c3", "4-regular with thresholds three runs thr3's part 2 and its R4/R5 rules",
           _gen("regular", "const", degree=4, thr_param=3),
           (14,) * 2 + (16,) * 8 + (18,) * 2, ("auto", "dual")),
    Family("reg4-d1", "dual thresholds deg-1 on 4-regular: thresholds three, so thr3 asked by"
           " name competes with the dual branch-and-bound",
           _gen("regular", "dual", degree=4, thr_param=1),
           (14, 16) * 2, ("thr3", "dual")),
    Family("reg4-d2", "dual thresholds deg-2 on 4-regular: thr2, asked by name and through auto,"
           " competes with the dual branch-and-bound",
           _gen("regular", "dual", degree=4, thr_param=2),
           (14, 16, 18) * 6, ("auto", "thr2", "dual")),
    Family("reg5-d1", "dual thresholds deg-1 on hand-built 5-regular graphs: thresholds four,"
           " so only the dual branch-and-bound applies",
           _dual_5_regular(1),
           (14, 16) * 4 + (18,), ("auto", "dual")),
    Family("reg5-d2", "dual thresholds deg-2 on hand-built 5-regular graphs: auto routes to thr3",
           _dual_5_regular(2),
           (14, 16, 18) * 3, ("auto", "dual")),
    Family("isolated", "ROADMAP pathology: isolated threshold-one vertices, a trivial input on"
           " which auto's thr2 takes exponential time while dual answers at once",
           _isolated, (16, 18, 20), ("auto", "dual")),
]

DECISION = [
    Family("gnp-c2", "auto routes thresholds-two gnp to bounded at the default gamma, so stage 1"
           " brute-forces the free part; mostly cheap, so it weighs the CLI path",
           _gen("gnp", "const", p=0.25, thr_param=2), (16, 17, 18, 19, 20, 22), ("auto",)),
    Family("gnp-c3", "the same route with thresholds three",
           _gen("gnp", "const", p=0.3, thr_param=3), (16, 18), ("auto",)),
    Family("reg3-c2", "3-regular thresholds two: stage 1 branches with BR1 before its brute force",
           _gen("regular", "const", degree=3, thr_param=2), (18,) * 12 + (20, 20), ("auto",)),
    Family("reg4-c3", "4-regular thresholds three: the same route with wider BR1 groups",
           _gen("regular", "const", degree=4, thr_param=3), (16,) * 10, ("auto",)),
    Family("gamma0-reg4-c2", "ROADMAP pathology: bounded with gamma=0 runs stages 2 and 3 (MPVC,"
           " round replay, the DP) and is about 1000x slower than the oracle already at n=7",
           _gen("regular", "const", degree=4, thr_param=2), (7,) * 6, ("bounded",), ("--gamma", "0.0")),
    Family("gamma0-reg4-c3", "stages 2 and 3 with thresholds three, whose quota branching is widest",
           _gen("regular", "const", degree=4, thr_param=3), (7,) * 3, ("bounded",), ("--gamma", "0.0")),
    Family("gamma0-reg2-c2", "stages 2 and 3 on cycles, where the free part stays connected",
           _gen("regular", "const", degree=2, thr_param=2), (7,) * 3, ("bounded",), ("--gamma", "0.0")),
    Family("ratio-d3", "hand-built thr=ceil(deg/3) on 3-regular graphs: auto routes to third"
           " (degree_ratio)", _ratio_cap(3), (18, 20, 22, 24, 24), ("auto",)),
    Family("ratio-d4", "the same on 4-regular graphs, where every threshold is two",
           _ratio_cap(4), (18, 20, 22, 24, 24), ("auto",)),
]

ONESHOT = [
    Family("sparse", "simulate and verify on gnp with n=200-1000: parsing plus one set-based"
           " cascade, the opposite use of instance and activation to the search workloads",
           _sparse_gnp(6.0, 2), (200, 300, 400, 500, 600, 700, 800, 900, 1000, 1000, 1000, 1000) * 2,
           ("simulate", "simulate", "verify", "verify")),
    Family("gen-gnp", "tss gen on gnp: generation quadratic in n, plus writing; no search",
           _gen("gnp", "const", p=0.02, thr_param=2), (200, 300, 400, 500, 600) * 6,
           ("gen",), ("--model", "gnp", "--p", "0.02", "--thr-model", "const", "--thr-value", "2")),
    Family("gen-regular", "tss gen on 2-regular graphs: stub pairing with retries",
           _gen("regular", "const", degree=2, thr_param=2), (400, 600, 800, 1000, 1000) * 2,
           ("gen",), ("--model", "regular", "--degree", "2", "--thr-model", "const", "--thr-value", "2")),
    Family("gadget", "tss gadget: the star-gadget equalization on its own",
           _gen("gnp", "uniform", p=0.3, thr_param=3), (10, 12, 14) * 10, ("gadget",)),
    Family("reduce", "tss reduce: the clique reduction on its own",
           _gen("gnp", "const", p=0.4, thr_param=1), (8, 10, 12) * 10, ("reduce",)),
    Family("enum-d2", "enum-mpvc --count-only on 2-regular graphs: the MPVC enumerator, checked"
           " against the oracle's count; few queries, so p90 stays among the parsing queries",
           _gen("regular", "const", degree=2), (12, 13, 14, 14, 16), ("enum-mpvc",)),
    Family("enum-d3", "the same on 3-regular graphs, where the enumerator branches wider",
           _gen("regular", "const", degree=3), (12, 12, 14, 14, 16), ("enum-mpvc",)),
]

WORKLOADS = {"perfect": PERFECT, "decision": DECISION, "oneshot": ONESHOT}


# ---------------------------------------------------------------- set-up


def build_corpus(workload: str, seed: int, workdir: str) -> tuple[list[Item], float]:
    """Generate and write every instance of the workload; returns items and time in generators.

    A failing generator draw aborts set-up with the family and seed named;
    no instance is skipped.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    items: list[Item] = []
    gen_s = 0.0
    for fam in WORKLOADS[workload]:
        for index, n in enumerate(fam.sizes):
            draw = rng.randrange(2**31)
            start = time.perf_counter()
            try:
                inst = fam.make(n, draw)
            except (RuntimeError, ValueError) as exc:
                raise CorpusError(
                    f"family {workload}/{fam.name} slot {index} (n={n}, generator seed {draw},"
                    f" workload seed {seed}): {exc}"
                ) from exc
            gen_s += time.perf_counter() - start
            text = write_instance(inst)
            path = os.path.join(workdir, f"{fam.name}-{index}.tss")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            items.append(Item(fam, index, draw, inst, text, path))
    return items, gen_s


# ---------------------------------------------------------------- references


class Oracle:
    """Reference answers from tss.oracle, computed and timed afresh in every run."""

    def __init__(self) -> None:
        self.total_ms = 0.0

    def ask(self, fn: Callable, *args):
        """(answer, ms) of fn(*args)."""
        start = time.perf_counter()
        value = fn(*args)
        ms = (time.perf_counter() - start) * 1000
        self.total_ms += ms
        return value, ms


def _min_perfect_size(inst: Instance) -> int:
    return len(oracle_min_perfect_tss(inst))


def _decision_size(inst: Instance, k: int, l: int) -> Optional[int]:
    found = oracle_tss_decision(inst, k, l)
    return None if found is None else len(found)


def _mpvc_count(g: Graph) -> int:
    return len(oracle_enum_mpvc(g))


def make_queries(workload: str, items: list[Item], oracle: Oracle) -> list[Query]:
    """Every query of the workload, in pass order, each with its reference check."""
    make = {"perfect": _perfect_queries, "decision": _decision_queries,
            "oneshot": _oneshot_queries}[workload]
    queries: list[Query] = []
    for item in items:
        queries.extend(make(item, oracle))
    return queries


def _perfect_queries(item: Item, oracle: Oracle) -> list[Query]:
    inst = item.inst
    best, ms = oracle.ask(_min_perfect_size, inst)
    return [
        Query(item, "perfect", algo, "min",
              ["perfect", item.path, "--algo", algo, *item.family.flags, "--json"],
              _check_perfect(inst, best), ms)
        for algo in item.family.asks
    ]


def _decision_queries(item: Item, oracle: Oracle) -> list[Query]:
    inst = item.inst
    n = inst.n
    out = []
    for l in (math.ceil(0.8 * n), n):
        opt, yes_ms = oracle.ask(_decision_size, inst, n, l)
        if not opt:
            raise CorpusError(f"{item.label}: optimum 0 for l={l} leaves no NO question at k=opt-1")
        none, no_ms = oracle.ask(_decision_size, inst, opt - 1, l)
        if none is not None:
            raise CorpusError(f"{item.label}: oracle found size {none} below its own optimum {opt}")
        for k, yes, ms in ((opt, True, yes_ms), (opt - 1, False, no_ms)):
            for algo in item.family.asks:
                argv = ["solve", item.path, "--algo", algo, "--k", str(k), "--l", str(l),
                        *item.family.flags, "--json"]
                out.append(Query(item, "solve", algo, f"k={k} l={l}", argv,
                                 _check_decision(inst, k, l, yes), ms))
    return out


def _oneshot_queries(item: Item, oracle: Oracle) -> list[Query]:
    inst = item.inst
    rng = random.Random(item.seed)
    out = []
    for i, ask in enumerate(item.family.asks):
        if ask == "simulate":
            seed_set = sorted(rng.sample(range(inst.n), max(1, inst.n // 25)))
            argv = ["simulate", item.path, "--x", _ids(seed_set)]
            out.append(Query(item, ask, "-", f"|x|={len(seed_set)}", argv,
                             _check_simulate(inst, seed_set)))
        elif ask == "verify":
            seed_set = sorted(rng.sample(range(inst.n), max(1, inst.n // 25)))
            reach = len(closure(inst, seed_set))
            l = reach + i % 2  # alternate VALID and INVALID
            argv = ["verify", item.path, "--x", _ids(seed_set), "--k", str(len(seed_set)),
                    "--l", str(l)]
            out.append(Query(item, ask, "-", f"l={l}", argv,
                             _check_verify(len(seed_set), reach, l)))
        elif ask == "gen":
            argv = ["gen", *item.family.flags, "--n", str(inst.n), "--seed", str(item.seed)]
            out.append(Query(item, ask, "-", f"n={inst.n}", argv, _check_gen(item)))
        elif ask == "gadget":
            t = max(2, inst.max_threshold())
            argv = ["gadget", item.path, "--t", str(t)]
            out.append(Query(item, ask, "-", f"t={t}", argv, _check_gadget(inst, t)))
        elif ask == "reduce":
            k = 3 + item.index % 2
            argv = ["reduce", "--from-clique", item.path, "--k", str(k)]
            out.append(Query(item, ask, "-", f"k={k}", argv, _check_reduce(inst.graph, k)))
        elif ask == "enum-mpvc":
            count, ms = oracle.ask(_mpvc_count, inst.graph)
            t = inst.graph.max_degree() + 1
            argv = ["enum-mpvc", item.path, "--t", str(t), "--count-only"]
            out.append(Query(item, ask, "-", f"t={t}", argv, _check_count(count), ms))
        else:
            raise CorpusError(f"unknown one-shot query {ask!r}")
    return out


def _ids(vertices) -> str:
    return ",".join(str(v + 1) for v in vertices)


# ---------------------------------------------------------------- checks


def _json_record(out: str) -> dict:
    return json.loads(out.strip().splitlines()[0])


def _check_perfect(inst: Instance, best: int):
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        rec = _json_record(out)
        witness = [v - 1 for v in rec["witness"]]
        if len(witness) != best:
            return f"size {len(witness)}, oracle minimum {best}"
        if len(closure(inst, witness)) != inst.n:
            return "witness is not a perfect target set"
        return None

    return check


def _check_decision(inst: Instance, k: int, l: int, yes: bool):
    def check(code: int, out: str) -> Optional[str]:
        if code != (0 if yes else 1):
            return f"exit {code}, oracle says {'YES' if yes else 'NO'}"
        rec = _json_record(out)
        if rec["answer"] != ("YES" if yes else "NO"):
            return f"answer {rec['answer']}, oracle says {'YES' if yes else 'NO'}"
        if yes:
            witness = [v - 1 for v in rec["witness"]]
            if len(witness) > k or len(closure(inst, witness)) < l:
                return "witness fails the budget or the target"
        return None

    return check


def _check_simulate(inst: Instance, seed_set: list[int]):
    want = closure(inst, seed_set)

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.strip().splitlines()
        got: set[int] = set()
        for line in lines[:-1]:
            ids = line.split(":", 1)[1].strip()
            got.update(int(v) - 1 for v in ids.split(",") if v)
        if got != want:
            return "rounds do not add up to the closure"
        if not lines[-1].startswith(f"activated {len(want)}/{inst.n} "):
            return f"summary {lines[-1]!r}, closure has {len(want)}"
        return None

    return check


def _check_verify(size: int, reach: int, l: int):
    valid = reach >= l

    def check(code: int, out: str) -> Optional[str]:
        if code != (0 if valid else 1):
            return f"exit {code}, expected {'VALID' if valid else 'INVALID'}"
        expect = f"{'VALID' if valid else 'INVALID'} size={size} activated={reach} "
        if not out.startswith(expect):
            return f"output {out.strip()!r}, expected {expect.strip()!r}"
        return None

    return check


def _check_gen(item: Item):
    """The output must be the set-up's own draw with the same arguments, and obey the model."""

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        if out != item.text:
            return "output differs from gen_random with the same arguments"
        inst = parse_instance(out)
        if inst.n != item.inst.n or any(
            t != min(2, inst.graph.degree(v) + 1) for v, t in enumerate(inst.thr)
        ):
            return "vertex count or thresholds break the const model"
        return None

    return check


def _check_gadget(inst: Instance, t: int):
    n = inst.n
    edges = set(inst.graph.edges())

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        eq = parse_instance(out)
        if eq.n != n + t * (t + 1) or set(eq.thr) != {t}:
            return "wrong gadget size or thresholds"
        got = eq.graph.edges()
        if {e for e in got if e[1] < n} != edges:
            return "original edges changed"
        for v in range(n):
            if sum(1 for u in eq.graph.adj[v] if u >= n) != t - inst.thr[v]:
                return f"vertex {v + 1} wired to the wrong number of centers"
        if len(got) != len(edges) + t * t + sum(t - x for x in inst.thr):
            return "wrong gadget edge count"
        return None

    return check


def _check_reduce(g: Graph, k: int):
    n, edges = g.n, g.edges()

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        red = parse_instance(out)
        if red.n != n + len(edges) or set(red.thr) - {2}:
            return "wrong reduced size or thresholds"
        for j, (u, v) in enumerate(edges):
            if red.graph.adj[n + j] != (u, v):
                return f"edge vertex {n + j + 1} not incident to its edge"
        if red.graph.m != 2 * len(edges):
            return "extra edges in the reduction"
        if red.query != (k, k + k * (k - 1) // 2):
            return f"query {red.query}, expected ({k}, {k + k * (k - 1) // 2})"
        return None

    return check


def _check_count(count: int):
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        got = int(out.split("\n", 1)[0])
        return None if got == count else f"count {got}, oracle {count}"

    return check
