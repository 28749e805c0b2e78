"""Spans around tss layer boundaries, recorded from outside the program.

`install` rebinds module-global names in `tss.cli`, `tss.bounded_thr` and
`tss.perfect_small_thr` to timing wrappers; `uninstall` puts the originals
back. Each call of a wrapped name becomes a span (name, start, end, parent,
query id) held in flat arrays until the run ends. A span's self time is its
duration minus the part its direct children cover.

The benchmark opens one root span named "cli" around each `tss.cli.run` call,
so the cli layer's self time is what the front end spends outside every
wrapped layer: argument parsing, routing, output formatting.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable

# (module, global name, span name). The span name's prefix is its layer.
WRAPPED = [
    ("tss.cli", "parse_instance", "instance.parse"),
    ("tss.cli", "gen_random", "instance.gen"),
    ("tss.cli", "write_instance", "instance.write"),
    ("tss.cli", "closure", "activation.closure"),
    ("tss.cli", "activate", "activation.activate"),
    ("tss.cli", "enum_minimal_pvcs", "mpvc"),
    ("tss.cli", "solve_bounded", "bounded"),
    ("tss.cli", "solve_ratio_tss", "third"),
    ("tss.cli", "solve_dual_perfect", "dual"),
    ("tss.cli", "solve_perfect_thr2", "perfect"),
    ("tss.cli", "solve_perfect_thr3", "perfect"),
    ("tss.cli", "reduce_clique_to_tss", "reductions"),
    ("tss.bounded_thr", "closure_mask", "activation.mask"),
    ("tss.bounded_thr", "closure", "activation.closure"),
    ("tss.bounded_thr", "enum_minimal_pvcs", "mpvc"),
    ("tss.bounded_thr", "is_activated_round", "bounded.round"),
    ("tss.bounded_thr", "stage3_dp", "bounded.stage3"),
    ("tss.perfect_small_thr", "closure_mask", "activation.mask"),
    ("tss.perfect_small_thr", "closure", "activation.closure"),
    ("tss.perfect_small_thr", "gadget_bounded_to_equal", "perfect.gadget"),
]

LAYERS = ("cli", "instance", "activation", "mpvc", "bounded", "perfect", "dual", "third",
          "reductions")


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.qid = -1
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.query.append(self.qid)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        for module, attr, span in WRAPPED:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        if span == "mpvc":
            return self._wrap_enum(fn)
        nid = self.name_id(span)
        note = _NOTES.get(span)

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def _wrap_enum(self, fn: Callable) -> Callable:
        """enum_minimal_pvcs is a generator: each resumption is one span.

        When the caller passes no counters, the wrapper passes its own
        EnumStats so leaf subsets are counted on every path.
        """
        from tss.mpvc import EnumStats

        nid = self.name_id("mpvc")

        def wrapper(g, t, stats=None):
            stats = stats if stats is not None else EnumStats()
            it = fn(g, t, stats)
            try:
                while True:
                    idx = self.open(nid)
                    try:
                        cover = next(it, None)
                    finally:
                        self.close(idx)
                    if cover is None:
                        return
                    yield cover
            finally:
                self.count("mpvc.emitted", stats.emitted)
                self.count("mpvc.leaf_subsets", stats.leaf_subsets)

        return wrapper

    # ------------------------------------------------------------ analysis

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own


def _note_parse(tr: Tracer, args, result) -> None:
    tr.count("instance.parse_bytes", len(args[0]))


def _note_stage3(tr: Tracer, args, result) -> None:
    if result is not None:
        tr.count("bounded.stage3_hits")


_NOTES = {"instance.parse": _note_parse, "bounded.stage3": _note_stage3}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass, keyed by metric name; idle layers read 0."""
    names = [tr.names[i] for i in tr.name]
    dur = tr.durations()
    own = tr.self_times()
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, d, o in zip(names, dur, own):
        out[f"{name.split('.')[0]}.self_s"] += o
        total[name] = total.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1

    # stage split of bounded: stage 2 is MPVC plus round replay under a bounded span
    stage2 = stage3 = 0.0
    # part split of perfect: part 2's branch makes the solver's first closure call
    part1 = part2 = 0.0
    boundary: dict[int, float] = {}
    gadget_end: dict[int, float] = {}
    for i, p in enumerate(tr.parent):
        if p < 0:
            continue
        parent_name, name = names[p], names[i]
        if parent_name == "bounded":
            if name in ("mpvc", "bounded.round"):
                stage2 += dur[i]
            elif name == "bounded.stage3":
                stage3 += dur[i]
        elif parent_name == "perfect":
            if name == "perfect.gadget":
                gadget_end[p] = tr.end[i]
            elif name == "activation.closure" and p not in boundary:
                boundary[p] = tr.start[i]
    for i, name in enumerate(names):
        if name == "perfect":
            cut = boundary.get(i, tr.end[i])
            part1 += cut - gadget_end.get(i, tr.start[i])
            part2 += tr.end[i] - cut

    bounded_s = total.get("bounded", 0.0)
    mask_s = total.get("activation.mask", 0.0)
    parse_s = total.get("instance.parse", 0.0)
    counts = tr.counts
    out.update({
        "cli.overhead_s": out.pop("cli.self_s"),
        "instance.parse_s": parse_s,
        "instance.parse_mb_per_s": _ratio(counts.get("instance.parse_bytes", 0) / 1e6, parse_s),
        "activation.mask_calls": calls.get("activation.mask", 0),
        "activation.mask_s": mask_s,
        "activation.mask_per_s": _ratio(calls.get("activation.mask", 0), mask_s),
        "activation.closure_calls": calls.get("activation.closure", 0),
        "activation.closure_s": total.get("activation.closure", 0.0),
        "activation.activate_s": total.get("activation.activate", 0.0),
        "mpvc.s": total.get("mpvc", 0.0),
        "mpvc.emitted": counts.get("mpvc.emitted", 0),
        "mpvc.leaf_subsets": counts.get("mpvc.leaf_subsets", 0),
        "mpvc.yield_ratio": _ratio(counts.get("mpvc.emitted", 0), counts.get("mpvc.leaf_subsets", 0)),
        "bounded.s": bounded_s,
        "bounded.stage1_s": bounded_s - stage2 - stage3,
        "bounded.stage2_s": stage2,
        "bounded.stage3_s": stage3,
        "bounded.stage3_calls": calls.get("bounded.stage3", 0),
        "bounded.stage3_hit_ratio": _ratio(counts.get("bounded.stage3_hits", 0),
                                           calls.get("bounded.stage3", 0)),
        "perfect.s": total.get("perfect", 0.0),
        "perfect.part1_s": part1,
        "perfect.part2_s": part2,
        "perfect.gadget_s": total.get("perfect.gadget", 0.0),
        "dual.s": total.get("dual", 0.0),
        "dual.calls": calls.get("dual", 0),
        "third.s": total.get("third", 0.0),
        "reductions.s": total.get("reductions", 0.0),
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def query_self_sums(tr: Tracer) -> dict[int, tuple[float, float]]:
    """Per query id: (sum of its spans' self times, duration of its root span)."""
    own = tr.self_times()
    out: dict[int, list[float]] = {}
    for i, q in enumerate(tr.query):
        entry = out.setdefault(q, [0.0, 0.0])
        entry[0] += own[i]
        if tr.parent[i] < 0:
            entry[1] += tr.end[i] - tr.start[i]
    return {q: (s, d) for q, (s, d) in out.items()}
