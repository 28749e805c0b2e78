"""The benchmark's tracer rebinds named globals of tss modules; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.mark.skipif(not SPANS.exists(), reason="perfbench/ is not present")
def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, _ in spans.WRAPPED
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
