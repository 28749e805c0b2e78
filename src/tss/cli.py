"""Command-line front end: solving, simulation, enumeration, generation, benchmarking.

Exit codes: 0 for YES/success, 1 for NO (or failed verification), 2 for usage
or input errors, 141 (a shell's status for a writer killed by SIGPIPE) when the
reader of stdout stops early. Output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import time
from math import log2
from typing import Optional, Sequence

from .activation import activate, bits_of, closure
from .bounded_thr import solve_bounded
from .degree_ratio import construct_small_pts, solve_ratio_tss
from .dual_thr import solve_dual_perfect
from .instance import Instance, InstanceFormatError, gen_random, parse_instance, write_instance
from .mpvc import enum_minimal_pvcs, leaf_count_log2_bound
from .oracle import oracle_tss_decision
from .perfect_small_thr import solve_perfect_thr2, solve_perfect_thr3
from .reductions import reduce_clique_to_tss
from .sliced import solve_sliced
from .stats import Stats


# The solvers each subcommand can name; thr2, thr3 and dual find minimum perfect target sets.
DECISION_ALGOS = ("oracle", "bounded", "third", "sliced")
PERFECT_ALGOS = ("oracle", "thr2", "thr3", "dual", "sliced")
BENCH_ALGOS = tuple(dict.fromkeys((*DECISION_ALGOS, *PERFECT_ALGOS, "enum-mpvc")))
PIPE_CLOSED = 141  # the exit code once stdout's reader has gone, printing nothing


def main() -> None:
    buffer = getattr(sys.stdout, "buffer", None)
    if isinstance(buffer, io.RawIOBase):  # unbuffered (-u): a raw write to a closed pipe
        # can come back short, which TextIOWrapper ignores; a buffered one raises EPIPE
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(buffer), sys.stdout.encoding,
                                      sys.stdout.errors, line_buffering=True)
    code = run(sys.argv[1:])
    if code == PIPE_CLOSED:  # stdout to devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


def run(argv: Sequence[str]) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # a reader that stops early is not an input error
        return PIPE_CLOSED
    except (InstanceFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: search exceeds the recursion limit {sys.getrecursionlimit()}", file=sys.stderr)
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
                         choices=[*DECISION_ALGOS, "auto"])
    p_solve.add_argument("--gamma", type=float, default=None,
                         help="override the bounded solver's brute-force cutoff fraction")
    _query_flags(p_solve)
    _common_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_perfect = sub.add_parser("perfect", help="minimum perfect target set")
    p_perfect.add_argument("file")
    p_perfect.add_argument("--algo", default="auto",
                           choices=[*PERFECT_ALGOS, "auto"])
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
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--force", action="store_true")
    p_con.set_defaults(func=_cmd_construct)

    p_bench = sub.add_parser("bench", help="CSV benchmark over instances and algorithms")
    p_bench.add_argument("files", nargs="+")
    p_bench.add_argument("--algo", default="oracle",
                         help=f"comma-separated: {','.join(BENCH_ALGOS)}")
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


def _query_of(inst: Instance, k: Optional[int], l: Optional[int],
              fallback: tuple = (None, None)) -> tuple[int, int]:
    """(k, l) from the flags k and l, else the file's query, else fallback."""
    file_k, file_l = inst.query or fallback
    k = k if k is not None else file_k
    l = l if l is not None else file_l
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


def _answer(inst: Instance, algo: str, k: int, l: int, stats: Optional[Stats],
            gamma: Optional[float] = None) -> tuple[Optional[frozenset[int]], Optional[int], float]:
    """Ask the solver named algo for at most k vertices activating at least l.

    Returns (witness or None, activated count or None, solver ms). A minimum
    perfect target set answers the query (n, n), so callers pass that query to
    thr2, thr3 and dual. Every witness is re-verified with one closure call.
    Solvers are module globals looked up at call time, so a rebound name applies.
    """
    start = time.perf_counter()
    if algo == "oracle":
        witness = oracle_tss_decision(inst, k, l)
    elif algo == "sliced":
        witness = solve_sliced(inst, k, l, stats)
    elif algo == "third":
        witness = solve_ratio_tss(inst, k, l)
    elif algo == "bounded":
        witness = solve_bounded(inst, k, l, max(1, inst.max_threshold()), gamma=gamma, stats=stats)
    elif algo == "thr2":
        witness = solve_perfect_thr2(inst, stats)
    elif algo == "thr3":
        witness = solve_perfect_thr3(inst, stats)
    else:
        witness = solve_dual_perfect(inst, stats)
    ms = (time.perf_counter() - start) * 1000
    if witness is None:
        return None, None, ms
    activated = len(closure(inst, witness))
    if len(witness) > k or activated < l:
        raise RuntimeError("internal: witness failed re-verification")
    return witness, activated, ms


def _emit(args, algo: str, witness: Optional[frozenset[int]], activated: Optional[int],
          ms: float, stats: Optional[Stats]) -> int:
    """Print one answer as text or JSON; the exit code is 0 for YES and 1 for NO."""
    ids = None if witness is None else sorted(v + 1 for v in witness)
    if args.as_json:
        print(json.dumps({
            "answer": "NO" if ids is None else "YES",
            "size": None if ids is None else len(ids),
            "witness": ids,
            "activated": activated,
            "algorithm": algo,
            "elapsed_ms": round(ms, 3),
            "stats": {} if stats is None else stats.as_dict(),
        }))
    else:
        print("NO" if ids is None else f"YES size={len(ids)} set={','.join(map(str, ids))}")
        if stats is not None:
            _print_stats(stats)
    return 1 if witness is None else 0


def _print_stats(stats: Stats) -> None:
    for key, value in sorted(stats.as_dict().items()):
        print(f"{key}={value}")


def _cmd_solve(args) -> int:
    algo = "sliced" if args.algo == "auto" else args.algo
    if algo != "bounded" and args.gamma is not None:
        raise ValueError("--gamma applies only to --algo bounded")
    inst = _load(args.file, args.force)
    k, l = _query_of(inst, args.k, args.l)
    stats = Stats() if args.stats else None
    return _emit(args, algo, *_answer(inst, algo, k, l, stats, args.gamma), stats)


def _cmd_perfect(args) -> int:
    algo = "sliced" if args.algo == "auto" else args.algo
    inst = _load(args.file, args.force)
    stats = Stats() if args.stats else None
    return _emit(args, algo, *_answer(inst, algo, inst.n, inst.n, stats), stats)


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
    # the degree check raises at the first cover, before anything is printed
    covers = enum_minimal_pvcs(inst.graph, args.t, stats)
    if args.count_only:
        print(sum(1 for _ in covers))
    else:
        for cover in covers:
            print(",".join(str(v + 1) for v in bits_of(cover)))
    if args.stats:
        _print_stats(stats)
    log2_bound = log2(inst.n**2 + 1) + leaf_count_log2_bound(inst.n, args.t)
    if log2(stats.leaf_nodes) > log2_bound:
        print(
            f"warning: {stats.leaf_nodes} branch leaves exceed the soft bound"
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
    # imported per call: perfbench's perfect.gadget span rebinds the name in its module
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
    k, l = _query_of(inst, args.k, args.l, (len(chosen), inst.n))
    activated = len(closure(inst, chosen))
    ok = len(chosen) <= k and activated >= l
    verdict = "VALID" if ok else "INVALID"
    print(f"{verdict} size={len(chosen)} activated={activated} budget={k} target={l}")
    return 0 if ok else 1


BENCH_HEADER = "instance,n,m,algo,answer,size,leaves,dp_states,ms"


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    for a in algos:
        if a not in BENCH_ALGOS:
            raise ValueError(f"unknown bench algorithm {a!r}")
    tasks = [
        (path, algo, args.k, args.l, args.force)
        for path in args.files
        for algo in algos
    ]
    # every worker of a pool is started at its first task, so ask for no more than there are rows
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        # imported here: every other command would pay for loading the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_row, tasks))
    else:
        rows = [_bench_row(task) for task in tasks]
    print("\n".join([BENCH_HEADER, *rows]))
    return 0


def _bench_row(task: tuple) -> str:
    path, algo, k_flag, l_flag, force = task
    inst = _load(path, force)
    stats = Stats()
    if algo == "enum-mpvc":
        start = time.perf_counter()
        # the enumerator only checks t against the degrees, so any t above them counts the same
        t = inst.graph.max_degree() + 1
        answer, size = "YES", sum(1 for _ in enum_minimal_pvcs(inst.graph, t, stats))
        ms = (time.perf_counter() - start) * 1000
        leaves = stats.leaf_nodes
    else:
        k, l = _query_of(inst, k_flag, l_flag) if algo in DECISION_ALGOS else (inst.n, inst.n)
        witness, _, ms = _answer(inst, algo, k, l, stats)
        answer = "NO" if witness is None else "YES"
        size = None if witness is None else len(witness)
        leaves = stats.br2_leaves + stats.stage2_leaves
    size_text = "" if size is None else str(size)
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
