"""The benchmark's tracer rebinds named globals of tss modules and reads --stats output."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from tss.instance import gen_random, write_instance

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
needs_perfbench = pytest.mark.skipif(not SPANS.exists(), reason="perfbench/ is not present")

# The --stats --json keys perfbench/run.py reads, per layer it files them under.
READ_KEYS = {
    "bounded": ("br1_apps", "stage2_leaves", "quota_branches", "dp_states"),
    "perfect": ("br1_apps", "part1_found", "leaf_bruteforces"),
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@needs_perfbench
def test_every_wrapped_name_resolves():
    spans = _load_spans()
    missing = [
        f"{module}.{name}"
        for module, name, _ in spans.WRAPPED
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


@needs_perfbench
def test_traced_pass_reads_counters(tmp_path, capsys):
    """A traced pass as `perfbench/run.py --trace 1` makes one: nonzero MPVC
    counters from the tracer, and every stats key the benchmark reads."""
    spans = _load_spans()
    for module, _, _ in spans.WRAPPED:
        importlib.import_module(module)
    from tss.cli import run

    path = tmp_path / "g.tss"
    path.write_text(write_instance(gen_random("gnp", 7, "const", 0, p=0.45, thr_param=2)))
    queries = [
        ["solve", str(path), "--algo", "bounded", "--gamma", "0.0", "--k", "4", "--l", "7"],
        ["perfect", str(path), "--algo", "thr2"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = []
        for argv in queries:
            assert run(argv + ["--stats", "--json"]) == 0
            records.append(json.loads(capsys.readouterr().out))
        assert run(["enum-mpvc", str(path), "--t", "7", "--count-only"]) == 0
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    assert metrics["mpvc.leaf_subsets"] > 0
    assert metrics["mpvc.emitted"] > 0
    for record in records:
        layer = "bounded" if record["algorithm"] == "bounded" else "perfect"
        assert set(READ_KEYS[layer]) <= set(record["stats"]), layer
    assert records[0]["stats"]["stage2_leaves"] > 0
