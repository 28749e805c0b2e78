"""Command-line front end: solving, simulation, enumeration, generation, benchmarking.

Exit codes: 0 for YES/success, 1 for NO (or failed verification), 2 for usage
or input errors. Output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import log2
from typing import Optional, Sequence

from .activation import activate, closure
from .bounded_thr import solve_bounded
from .degree_ratio import construct_small_pts, ratio_violator, solve_ratio_tss
from .dual_thr import solve_dual_perfect
from .instance import Instance, InstanceFormatError, gen_random, parse_instance, write_instance
from .mpvc import enum_minimal_pvcs, leaf_count_log2_bound
from .oracle import oracle_min_perfect_tss, oracle_tss_decision
from .perfect_small_thr import solve_perfect_thr2, solve_perfect_thr3
from .reductions import reduce_clique_to_tss
from .stats import Stats


@dataclass
class SolveReport:
    """One solver run, ready for text or JSON emission."""

    answer: str                      # "YES" or "NO"
    witness: Optional[list[int]]     # sorted 1-based ids
    activated_count: Optional[int]
    algorithm: str
    elapsed_ms: float
    stats: Optional[Stats]           # None unless --stats

    def text(self) -> str:
        if self.answer == "NO":
            return "NO"
        ids = ",".join(str(v) for v in self.witness or [])
        return f"YES size={len(self.witness or [])} set={ids}"

    def json_line(self) -> str:
        return json.dumps(
            {
                "answer": self.answer,
                "size": None if self.witness is None else len(self.witness),
                "witness": self.witness,
                "activated": self.activated_count,
                "algorithm": self.algorithm,
                "elapsed_ms": round(self.elapsed_ms, 3),
                "stats": {} if self.stats is None else self.stats.as_dict(),
            }
        )


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: Sequence[str]) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (InstanceFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use so importing stays cheap."""
    parser = argparse.ArgumentParser(
        prog="tss", description="Exact target set selection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide a (budget, target) query")
    p_solve.add_argument("file")
    p_solve.add_argument("--algo", default="auto",
                         choices=["oracle", "bounded", "third", "auto"])
    p_solve.add_argument("--t", type=int, default=None,
                         help="threshold bound for --algo bounded (default: max threshold)")
    p_solve.add_argument("--gamma", type=float, default=None,
                         help="override the bounded solver's brute-force cutoff fraction")
    _query_flags(p_solve)
    _common_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_perfect = sub.add_parser("perfect", help="minimum perfect target set")
    p_perfect.add_argument("file")
    p_perfect.add_argument("--algo", default="auto",
                           choices=["oracle", "thr2", "thr3", "dual", "auto"])
    p_perfect.add_argument("--d", type=int, default=None,
                           help="dual bound for --algo dual (default: max dual value)")
    _common_flags(p_perfect)
    p_perfect.set_defaults(func=_cmd_perfect)

    p_sim = sub.add_parser("simulate", help="pretty-print activation rounds")
    p_sim.add_argument("file")
    p_sim.add_argument("--x", default="", help="comma-separated 1-based seed vertices")
    p_sim.add_argument("--force", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    p_enum = sub.add_parser("enum-mpvc", help="enumerate minimal partial vertex covers")
    p_enum.add_argument("file")
    p_enum.add_argument("--t", type=int, required=True, help="degree bound (max degree must be below it)")
    p_enum.add_argument("--count-only", action="store_true")
    p_enum.add_argument("--stats", action="store_true")
    p_enum.add_argument("--force", action="store_true")
    p_enum.set_defaults(func=_cmd_enum_mpvc)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--model", required=True, choices=["gnp", "regular"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=0.5, help="edge probability for gnp")
    p_gen.add_argument("--degree", type=int, default=0, help="degree for regular")
    p_gen.add_argument("--thr-model", required=True,
                       choices=["const", "ratio_third", "dual", "uniform"])
    p_gen.add_argument("--thr-value", type=int, default=1,
                       help="parameter of const/dual/uniform threshold models")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_red = sub.add_parser("reduce", help="emit the clique-to-activation reduction")
    p_red.add_argument("--from-clique", required=True, dest="from_clique",
                       help="instance file whose graph is the clique input (thresholds ignored)")
    p_red.add_argument("--k", type=int, required=True)
    p_red.add_argument("-o", "--output", default=None)
    p_red.add_argument("--force", action="store_true")
    p_red.set_defaults(func=_cmd_reduce)

    p_gad = sub.add_parser("gadget", help="equalize thresholds to a constant via star gadgets")
    p_gad.add_argument("file")
    p_gad.add_argument("--t", type=int, required=True)
    p_gad.add_argument("-o", "--output", default=None)
    p_gad.add_argument("--force", action="store_true")
    p_gad.set_defaults(func=_cmd_gadget)

    p_con = sub.add_parser("construct", help="construct a perfect target set within 0.45n")
    p_con.add_argument("file")
    p_con.add_argument("--bound045", action="store_true", required=True)
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--force", action="store_true")
    p_con.set_defaults(func=_cmd_construct)

    p_bench = sub.add_parser("bench", help="CSV benchmark over instances and algorithms")
    p_bench.add_argument("files", nargs="+")
    p_bench.add_argument("--algo", default="oracle",
                         help="comma-separated: oracle,bounded,third,thr2,thr3,dual,enum-mpvc")
    p_bench.add_argument("--t", type=int, default=None)
    p_bench.add_argument("--d", type=int, default=None)
    p_bench.add_argument("--jobs", type=int, default=1)
    _query_flags(p_bench)
    p_bench.add_argument("--force", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_ver = sub.add_parser("verify", help="check a proposed target set against a query")
    p_ver.add_argument("file")
    p_ver.add_argument("--x", required=True, help="comma-separated 1-based vertices")
    _query_flags(p_ver)
    p_ver.add_argument("--force", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def _query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None, help="budget (overrides the file query)")
    p.add_argument("--l", type=int, default=None, help="activation target (overrides the file query)")


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stats", action="store_true")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--force", action="store_true")


def _load(path: str, force: bool) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), force=force)


def _query_of(inst: Instance, args) -> tuple[int, int]:
    k = args.k if args.k is not None else (inst.query[0] if inst.query else None)
    l = args.l if args.l is not None else (inst.query[1] if inst.query else None)
    if k is None or l is None:
        raise ValueError("no query: supply 'q k l' in the file or --k/--l flags")
    if k < 0 or l < 0:
        raise ValueError("budget and target must be non-negative")
    return k, l


def _parse_ids(text: str, n: int) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    out = set()
    for tok in text.split(","):
        v = int(tok)
        if not (1 <= v <= n):
            raise ValueError(f"vertex {v} out of range 1..{n}")
        out.add(v - 1)
    return frozenset(out)


def _decide(inst: Instance, algo: str, k: int, l: int, t: Optional[int],
            gamma: Optional[float], stats: Optional[Stats]) -> Optional[frozenset[int]]:
    """Run the decision solver named algo ("oracle", "third" or "bounded").

    Solvers are module globals looked up at call time, so a rebound name applies.
    """
    if algo == "oracle":
        return oracle_tss_decision(inst, k, l)
    if algo == "third":
        return solve_ratio_tss(inst, k, l)
    t = t if t is not None else max(1, inst.max_threshold())
    return solve_bounded(inst, k, l, t, gamma=gamma, stats=stats)


def _min_perfect(inst: Instance, algo: str, d: Optional[int],
                 stats: Optional[Stats]) -> frozenset[int]:
    """Run the perfect-set solver named algo ("oracle", "thr2", "thr3" or "dual")."""
    if algo == "oracle":
        return oracle_min_perfect_tss(inst)
    if algo == "thr2":
        return solve_perfect_thr2(inst, stats)
    if algo == "thr3":
        return solve_perfect_thr3(inst, stats)
    d = d if d is not None else max(0, max(inst.dual_values(), default=0))
    return solve_dual_perfect(inst, d, stats)


def _emit(report: SolveReport, args) -> None:
    if args.as_json:
        print(report.json_line())
        return
    print(report.text())
    if report.stats is not None:
        _print_stats(report.stats)


def _print_stats(stats: Stats) -> None:
    for key, value in sorted(stats.as_dict().items()):
        print(f"{key}={value}")


def _cmd_solve(args) -> int:
    inst = _load(args.file, args.force)
    k, l = _query_of(inst, args)
    algo = args.algo
    if algo == "auto":
        algo = "third" if ratio_violator(inst) is None else "bounded"
    stats = Stats() if args.stats else None
    start = time.perf_counter()
    witness = _decide(inst, algo, k, l, args.t, args.gamma, stats)
    elapsed = (time.perf_counter() - start) * 1000
    if witness is None:
        _emit(SolveReport("NO", None, None, algo, elapsed, stats), args)
        return 1
    activated = len(closure(inst, witness))
    if len(witness) > k or activated < l:
        raise RuntimeError("internal: witness failed re-verification")
    report = SolveReport("YES", sorted(v + 1 for v in witness), activated, algo, elapsed, stats)
    _emit(report, args)
    return 0


def _cmd_perfect(args) -> int:
    inst = _load(args.file, args.force)
    algo = args.algo
    if algo == "auto":
        top = inst.max_threshold()
        algo = "thr2" if top <= 2 else ("thr3" if top <= 3 else "dual")
    stats = Stats() if args.stats else None
    start = time.perf_counter()
    answer = _min_perfect(inst, algo, args.d, stats)
    elapsed = (time.perf_counter() - start) * 1000
    if len(closure(inst, answer)) != inst.n:
        raise RuntimeError("internal: perfect target set failed re-verification")
    report = SolveReport("YES", sorted(v + 1 for v in answer), inst.n, algo, elapsed, stats)
    _emit(report, args)
    return 0


def _cmd_simulate(args) -> int:
    inst = _load(args.file, args.force)
    seed = _parse_ids(args.x, inst.n)
    trace = activate(inst, seed)
    for i, layer in enumerate(trace.rounds):
        newly = sorted(layer if i == 0 else layer - trace.rounds[i - 1])
        ids = ",".join(str(v + 1) for v in newly)
        print(f"round {i}: {ids}")
    print(f"activated {len(trace.activated)}/{inst.n} rounds {trace.num_rounds}")
    return 0


def _cmd_enum_mpvc(args) -> int:
    inst = _load(args.file, args.force)
    stats = Stats()  # always counted: the soft leaf bound below reads leaf_nodes
    covers = list(enum_minimal_pvcs(inst.graph, args.t, stats))
    if args.count_only:
        print(len(covers))
    else:
        for cover in covers:
            print(",".join(str(v + 1) for v in sorted(cover)))
    if args.stats:
        _print_stats(stats)
    log2_bound = log2(inst.n**2 + 1) + leaf_count_log2_bound(inst.n, args.t)
    if log2(stats.leaf_nodes) > log2_bound:
        print(
            f"warning: {stats.leaf_nodes} recursion leaves exceed the soft bound"
            f" 2^{log2_bound:.1f}",
            file=sys.stderr,
        )
    return 0


def _cmd_gen(args) -> int:
    inst = gen_random(
        args.model,
        args.n,
        args.thr_model,
        args.seed,
        p=args.p,
        degree=args.degree,
        thr_param=args.thr_value,
    )
    _write_out(write_instance(inst), args.output)
    return 0


def _cmd_reduce(args) -> int:
    source = _load(args.from_clique, args.force)
    out = reduce_clique_to_tss(source.graph, args.k)
    lines = [
        f"# reduced from {args.from_clique} with k={out.k}",
    ]
    for new_id, origin in enumerate(out.vertex_origin, start=1):
        if origin[0] == "vertex":
            lines.append(f"# origin {new_id} vertex {origin[1] + 1}")
        else:
            u, v = origin[1]
            lines.append(f"# origin {new_id} edge {u + 1} {v + 1}")
    body = write_instance(out.instance)
    if out.instance.query is None:
        body += f"q {out.k} {out.l}\n"
    _write_out("\n".join(lines) + "\n" + body, args.output)
    return 0


def _cmd_gadget(args) -> int:
    from .perfect_small_thr import gadget_bounded_to_equal

    inst = _load(args.file, args.force)
    _write_out(write_instance(gadget_bounded_to_equal(inst, args.t)), args.output)
    return 0


def _cmd_construct(args) -> int:
    inst = _load(args.file, args.force)
    answer = construct_small_pts(inst, seed=args.seed)
    ids = ",".join(str(v + 1) for v in sorted(answer))
    print(f"size={len(answer)} set={ids}")
    return 0


def _cmd_verify(args) -> int:
    inst = _load(args.file, args.force)
    chosen = _parse_ids(args.x, inst.n)
    k = args.k if args.k is not None else (inst.query[0] if inst.query else len(chosen))
    l = args.l if args.l is not None else (inst.query[1] if inst.query else inst.n)
    activated = len(closure(inst, chosen))
    ok = len(chosen) <= k and activated >= l
    verdict = "VALID" if ok else "INVALID"
    print(f"{verdict} size={len(chosen)} activated={activated} budget={k} target={l}")
    return 0 if ok else 1


BENCH_HEADER = "instance,n,m,algo,answer,size,leaves,dp_states,ms"


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    known = {"oracle", "bounded", "third", "thr2", "thr3", "dual", "enum-mpvc"}
    for a in algos:
        if a not in known:
            raise ValueError(f"unknown bench algorithm {a!r}")
    tasks = [
        (path, algo, args.t, args.d, args.k, args.l, args.force)
        for path in args.files
        for algo in algos
    ]
    print(BENCH_HEADER)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_row, tasks))
    else:
        rows = [_bench_row(task) for task in tasks]
    for row in rows:
        print(row)
    return 0


def _bench_row(task: tuple) -> str:
    path, algo, t_flag, d_flag, k_flag, l_flag, force = task
    inst = _load(path, force)
    stats = Stats()
    start = time.perf_counter()
    if algo == "enum-mpvc":
        t = t_flag if t_flag is not None else inst.graph.max_degree() + 1
        answer, size = "YES", sum(1 for _ in enum_minimal_pvcs(inst.graph, t, stats))
    elif algo in ("thr2", "thr3", "dual"):
        answer, size = "YES", len(_min_perfect(inst, algo, d_flag, stats))
    else:
        k = k_flag if k_flag is not None else (inst.query[0] if inst.query else None)
        l = l_flag if l_flag is not None else (inst.query[1] if inst.query else None)
        if k is None or l is None:
            raise ValueError(f"{path}: no query for algorithm {algo}")
        witness = _decide(inst, algo, k, l, t_flag, None, stats)
        answer = "NO" if witness is None else "YES"
        size = None if witness is None else len(witness)
    ms = (time.perf_counter() - start) * 1000
    size_text = "" if size is None else str(size)
    leaves = stats.leaf_nodes if algo == "enum-mpvc" else stats.br2_leaves + stats.stage2_leaves
    return (
        f"{path},{inst.n},{inst.graph.m},{algo},{answer},{size_text},"
        f"{leaves},{stats.dp_states},{ms:.1f}"
    )


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
