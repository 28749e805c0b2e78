"""Self-tests of the benchmark itself.

    python -m pytest perfbench/selftest.py

Kept out of the repository's default test run (the file name does not match
test_*.py) because each workload pass takes seconds.
"""

from __future__ import annotations

import io
import json
import sys

import pytest

import run

run.load_tss()

import corpus  # noqa: E402  (needs tss on the path)
import spans  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["perfect", "decision", "oneshot"])
def test_workload_completes_and_checks_out(workload):
    result = run.run_workload(workload, seed=0, seconds=0, trace=False, out=io.StringIO())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    assert list(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = run.run_workload("oneshot", seed=0, seconds=0, trace=True, out=io.StringIO())
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_injected_wrong_answer_counts_as_failed(monkeypatch):
    # Every vertex is a perfect target set, so the CLI's own re-verification
    # passes; only the comparison with the oracle's minimum can catch it.
    cli = sys.modules["tss.cli"]
    monkeypatch.setattr(cli, "solve_dual_perfect", lambda inst, d: frozenset(range(inst.n)))
    out = io.StringIO()
    result = run.run_workload("perfect", seed=0, seconds=0, trace=False, out=out)
    assert not result["correct"] and result["failed"] > 0
    rows = [line.split() for line in out.getvalue().splitlines() if not line.startswith("#")]
    failing = [r for r in rows if r[-1] not in ("ok", "slower-than-oracle")]
    assert len(failing) == result["failed"]
    assert all(r[3].endswith("dual") for r in failing)


def test_traced_self_times_fit_inside_each_query(tmp_path):
    items, _ = corpus.build_corpus("decision", 0, str(tmp_path))
    picked = [i for i in items if i.family.name == "gamma0-reg4-c3"][:1]
    assert picked
    queries = corpus.make_queries("decision", picked, corpus.Oracle())
    bench = run.Bench(queries)
    tracer = spans.Tracer()
    tracer.install()
    try:
        bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert bench.failed == 0
    sums = spans.query_self_sums(tracer)
    assert sorted(sums) == list(range(len(queries)))
    for own, duration in sums.values():
        assert own <= duration + 1e-9
    assert min(tracer.self_times()) >= -1e-9
    m = spans.layer_metrics(tracer)
    assert m["bounded.stage3_calls"] > 0 and m["bounded.stage2_s"] > 0
    stages = m["bounded.stage1_s"] + m["bounded.stage2_s"] + m["bounded.stage3_s"]
    assert stages == pytest.approx(m["bounded.s"])
