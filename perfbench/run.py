"""Closed-loop benchmark of the tss command line, driven as its users drive it.

    python3 perfbench/run.py --workload perfect|decision|oneshot --seed N \\
        --seconds S --trace 0|1

One process, one client: each query is a `tss` subcommand run in-process
through `tss.cli.run(argv)`, and the next is sent only after the previous one
has answered. A pass sends every query of the workload's corpus once; passes
repeat until S seconds are spent (at least one). Every answer is checked
against the plain `tss.oracle` reference or set-based `closure`.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with passes that record spans and add `--stats`, and prints the
per-layer metrics of one traced pass (medians over the traced passes). Either way the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it hold the per-(instance, algo) table and a summary.

The program is imported from this checkout's src/; without it the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5  # set-ups per run, at least; more until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "query_ms_geomean": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def load_tss() -> None:
    """Import tss from ROOT/src.

    Raises ImportError when the sources are missing, or when another tss
    would be imported in their place.
    """
    src = ROOT / "src"
    if not (src / "tss" / "cli.py").is_file():
        raise ImportError(f"no tss sources under {src}")
    sys.path.insert(0, str(src))
    import tss.cli
    if Path(tss.cli.__file__).resolve().parent != src / "tss":
        raise ImportError(f"imported tss from {tss.cli.__file__}, not from {src}")


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter();"
                " import tss.cli; print(time.perf_counter() - start)")


def import_seconds() -> float:
    """Time `import tss.cli` in a fresh interpreter, the cost a user's first query pays."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


class Row:
    """Samples and outcome of one query across passes."""

    __slots__ = ("ms", "solver_ms", "answer", "size", "algorithm", "error")

    def __init__(self) -> None:
        self.ms: list[float] = []
        self.solver_ms: list[float] = []
        self.answer = "-"
        self.size: Optional[int] = None
        self.algorithm = ""
        self.error: Optional[str] = None


class Bench:
    """The measurement loop over one workload's queries."""

    def __init__(self, queries: list, seed: int = 0) -> None:
        self.queries = queries
        self.rows = [Row() for _ in queries]
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.stats: dict[str, float] = {}

    def run_pass(self, tracer=None) -> float:
        """Send every query once; returns the summed query latency in seconds.

        Each pass shuffles the order, so a family's samples are spread over
        the run instead of sharing one stretch of machine speed.
        """
        cli = sys.modules["tss.cli"]
        root_id = tracer.name_id("cli") if tracer is not None else -1
        order = list(range(len(self.queries)))
        self.rng.shuffle(order)
        wall = 0.0
        for qi in order:
            q = self.queries[qi]
            argv = q.argv
            if tracer is not None and q.command in ("solve", "perfect"):
                argv = argv + ["--stats"]
            out, err = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.qid = qi
                    root = tracer.open(root_id)
                start = time.perf_counter()
                try:
                    code = cli.run(argv)
                except Exception as exc:  # a traceback is a failed query, not a crash
                    code, error = None, f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.close(root)
            wall += elapsed
            self._record(qi, q, code, out.getvalue(), elapsed * 1000, error, tracer is not None)
        return wall

    def _record(self, qi, q, code, text, ms, error, traced) -> None:
        row = self.rows[qi]
        self.attempted += 1
        if not traced:
            row.ms.append(ms)
        if error is None:
            try:
                error = q.check(code, text)
                if q.command in ("solve", "perfect"):
                    rec = json.loads(text)
                    row.answer, row.size, row.algorithm = rec["answer"], rec["size"], rec["algorithm"]
                    if traced:
                        self._add_stats(rec)
                    else:
                        row.solver_ms.append(rec["elapsed_ms"])
                else:
                    row.answer = f"exit{code}"
                    if q.command == "enum-mpvc":
                        row.size = int(text.split("\n", 1)[0])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"unreadable output ({type(exc).__name__}: {exc}): {text[:80]!r}"
        if error is not None:
            self.failed += 1
            if row.error is None:
                row.error = error
                print(f"FAIL {q.item.label} {' '.join(q.argv[:1] + q.argv[2:])}: {error}",
                      file=sys.stderr)

    def _add_stats(self, rec: dict) -> None:
        layer = "bounded" if rec["algorithm"] == "bounded" else "perfect"
        for key, value in rec["stats"].items():
            name = f"{layer}.{key}"
            self.stats[name] = self.stats.get(name, 0) + value


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out=None) -> dict:
    """Set up, reference, measure and check one workload; returns the result object."""
    import corpus
    import spans

    out = out if out is not None else sys.stdout
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        import_s, build_s, gen_s = [], [], []
        setup_began = time.perf_counter()
        while len(build_s) < SETUP_REPS or time.perf_counter() - setup_began < SETUP_SECONDS:
            import_s.append(import_seconds())
            start = time.perf_counter()
            items, gen = corpus.build_corpus(workload, seed, str(run_dir))
            build_s.append(time.perf_counter() - start)
            gen_s.append(gen)
        oracle = corpus.Oracle()
        queries = corpus.make_queries(workload, items, oracle)

        bench = Bench(queries, seed)
        walls, traced = [], []
        began = time.perf_counter()
        # Start a round only if it should end within the budget, judging by
        # the mean round so far. With tracing a round is an untraced pass plus
        # a traced one, so the overhead compares passes run close in time.
        while not walls or (time.perf_counter() - began) * (1 + 1 / len(walls)) <= seconds:
            walls.append(bench.run_pass())
            if trace:
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced.append((bench.run_pass(tracer), spans.layer_metrics(tracer)))
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = [ms for row in bench.rows for ms in row.ms]
    losses = _print_table(out, queries, bench.rows)
    print(f"# workload={workload} seed={seed} queries/pass={len(queries)} passes={len(walls)}"
          f" samples={len(samples)} failed={bench.failed}/{bench.attempted}"
          f" failed_frac={bench.failed / bench.attempted:.4g}", file=out)

    if trace:
        # counts repeat exactly from pass to pass; times are noisy, so take medians
        metrics = {k: statistics.median(m[k] for _, m in traced) for k in traced[0][1]}
        for key in ("br1_apps", "stage2_leaves", "quota_branches", "dp_states"):
            metrics[f"bounded.{key}"] = bench.stats.get(f"bounded.{key}", 0) / len(traced)
        for key in ("br1_apps", "part1_found", "leaf_bruteforces"):
            metrics[f"perfect.{key}"] = bench.stats.get(f"perfect.{key}", 0) / len(traced)
        metrics["instance.gen_s"] = statistics.median(gen_s)
        metrics["oracle.s"] = oracle.total_ms / 1000
        metrics["oracle.losses"] = losses
        metrics["trace.overhead_frac"] = (
            statistics.median(w for w, _ in traced) / statistics.median(walls) - 1)
        idle = sorted(k for k, v in metrics.items() if v == 0)
        if idle:
            print(f"# zero on this workload (layer idle or event absent): {' '.join(idle)}",
                  file=out)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(import_s) + statistics.median(build_s),
            "wall_s": statistics.median(walls),
            "query_ms_p50": statistics.median(samples),
            "query_ms_p90": statistics.quantiles(samples, n=10)[8],
            "query_ms_geomean": math.exp(statistics.fmean(math.log(ms) for ms in samples)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }


def _print_table(out, queries, rows) -> int:
    """One line per (instance, algo, question); returns how many lose to the oracle."""
    losses = 0
    print("# instance n command algo question answer size query_ms solver_ms oracle_ms status",
          file=out)
    for q, row in zip(queries, rows):
        query_ms = statistics.median(row.ms) if row.ms else math.nan
        solver_ms = statistics.median(row.solver_ms) if row.solver_ms else query_ms
        lost = q.oracle_ms is not None and solver_ms > q.oracle_ms
        losses += lost
        oracle_ms = "-" if q.oracle_ms is None else f"{q.oracle_ms:.3f}"
        algo = q.algo if not row.algorithm or row.algorithm == q.algo else f"{q.algo}>{row.algorithm}"
        status = row.error or ("slower-than-oracle" if lost else "ok")
        print(f"{q.item.label} {q.item.inst.n} {q.command} {algo} {q.question.replace(' ', ',')}"
              f" {row.answer} {'-' if row.size is None else row.size} {query_ms:.3f}"
              f" {solver_ms:.3f} {oracle_ms} {status}", file=out)
    return losses


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["perfect", "decision", "oneshot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        load_tss()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import corpus

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except corpus.CorpusError as exc:
        print(f"perfbench: set-up aborted: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
