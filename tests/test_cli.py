import concurrent.futures
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tss import (
    Graph, Instance, cli, gen_random, is_perfect_target_set, oracle_min_perfect_tss,
    oracle_tss_decision, parse_instance, write_instance,
)
from tss.cli import _answer, _build_parser, run
from tss.degree_ratio import ratio_violator
from tss.stats import Stats

from helpers import complete_instance, path_instance

ROOT = Path(__file__).resolve().parent.parent
K3 = "p tss 3 3\nt 1 2\nt 2 2\nt 3 2\ne 1 2\ne 1 3\ne 2 3\nq 2 3\n"
# thresholds 1 keep the degree/3 cap, so every solve and perfect algorithm accepts it
K3_THR1 = "p tss 3 3\nt 1 1\nt 2 1\nt 3 1\ne 1 2\ne 1 3\ne 2 3\nq 1 3\n"
SOLVE_ALGOS = ("oracle", "bounded", "third", "sliced")
PERFECT_ALGOS = ("oracle", "thr2", "thr3", "dual", "sliced")
P3 = "p tss 3 2\nt 1 1\nt 2 2\nt 3 1\ne 1 2\ne 2 3\nq 1 3\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_oracle_yes(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    assert run(["solve", path, "--algo", "oracle"]) == 0
    assert capsys.readouterr().out.strip() == "YES size=2 set=1,2"


def test_solve_oracle_no(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    assert run(["solve", path, "--algo", "oracle", "--k", "1", "--l", "3"]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_solve_target_beyond_n_is_no(tmp_path, capsys):
    path = _write(tmp_path, "k3t1.tss", K3_THR1)
    for algo in SOLVE_ALGOS + ("auto",):
        assert run(["solve", path, "--algo", algo, "--k", "3", "--l", "4"]) == 1
        assert capsys.readouterr().out.strip() == "NO", algo


def test_solve_algorithms_agree(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    for algo in ("oracle", "bounded", "auto"):
        assert run(["solve", path, "--algo", algo]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("YES size=2")


def test_solve_stats_lines(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    assert run(["solve", path, "--algo", "bounded", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "br1_apps=" in out and "dp_states=" in out
    # every algorithm prints the whole schema, sorted, after its answer line
    path = _write(tmp_path, "k3t1.tss", K3_THR1)
    expected = sorted(Stats().as_dict())
    for command, algos in (("solve", SOLVE_ALGOS), ("perfect", PERFECT_ALGOS)):
        for algo in algos:
            assert run([command, path, "--algo", algo, "--stats"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split("=")[0] for line in lines[1:]] == expected, (command, algo)


def test_solve_json_stable_keys(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    assert run(["solve", path, "--algo", "oracle", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == [
        "answer", "size", "witness", "activated", "algorithm", "elapsed_ms", "stats",
    ]
    assert record["answer"] == "YES"
    assert record["witness"] == [1, 2]
    assert record["activated"] == 3
    # one stats schema for every algorithm with --stats, and {} without it; every
    # value is an int, never a bool
    schema = [
        "rr1_moves", "bound_prunes", "br1_apps", "br1_children", "br2_leaves", "leaf_seeds",
        "stage2_covers", "quota_branches", "member_branches", "stage2_leaves", "dp_states",
        "rr3_moves", "r4_apps", "r4_children", "r5_apps", "r5_children", "part1_max_size",
        "part1_found", "leaf_bruteforces", "dual_nodes", "dual_peels", "branch_nodes",
        "leaf_nodes", "leaf_subsets", "emitted",
    ]
    assert list(Stats().as_dict()) == schema
    path = _write(tmp_path, "k3t1.tss", K3_THR1)
    for command, algos in (("solve", SOLVE_ALGOS), ("perfect", PERFECT_ALGOS)):
        for algo in algos:
            for flags, keys in (([], []), (["--stats"], schema)):
                assert run([command, path, "--algo", algo, "--json", *flags]) == 0
                stats = json.loads(capsys.readouterr().out)["stats"]
                assert list(stats) == keys, (command, algo, flags)
                assert all(type(value) is int for value in stats.values())
    # part 1 answers a 20-vertex path of thresholds 1, and part1_found reads 1, not true
    path = _write(tmp_path, "path20.tss", write_instance(path_instance((1,) * 20)))
    assert run(["perfect", path, "--algo", "thr2", "--json", "--stats"]) == 0
    found = json.loads(capsys.readouterr().out)["stats"]["part1_found"]
    assert type(found) is int and found == 1


def test_bounded_stats_count_stage2_covers(tmp_path, capsys):
    # gamma=0 sends a 4-regular draw through stage 2, whose cover enumeration
    # reports its counters into the solver's stats
    inst = gen_random("regular", 7, "const", 0, degree=4, thr_param=2)
    path = _write(tmp_path, "r7.tss", write_instance(inst))
    argv = ["solve", path, "--algo", "bounded", "--gamma", "0.0", "--k", "2", "--l", "7",
            "--stats", "--json"]
    assert run(argv) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["emitted"] == stats["stage2_covers"] > 0
    assert stats["leaf_subsets"] >= stats["leaf_nodes"] > 0


def test_dual_stats_count_nodes(tmp_path, capsys):
    path = _write(tmp_path, "k3t1.tss", K3_THR1)
    assert run(["perfect", path, "--algo", "dual", "--stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["dual_nodes"] > 0


def test_solve_without_query_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "noq.tss", "p tss 1 0\nt 1 0\n")
    assert run(["solve", path]) == 2
    assert "no query" in capsys.readouterr().err


def test_enum_mpvc_count_only(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    # at t=1100 the soft leaf bound (2^t - 1)^(n/t) no longer fits in a float
    for t in ("3", "1100"):
        assert run(["enum-mpvc", path, "--t", t, "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == "5"


def test_enum_mpvc_count_only_on_a_deep_edgeless_graph(tmp_path, capsys):
    text = "p tss 1000 0\n" + "".join(f"t {v} 1\n" for v in range(1, 1001))
    path = _write(tmp_path, "iso.tss", text)
    assert run(["enum-mpvc", path, "--t", "1", "--count-only"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_enum_mpvc_lines(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["enum-mpvc", path, "--t", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == ["", "1", "1,3", "2", "3"]
    assert lines == ["", "3", "1", "1,3", "2"]  # the emission order


def test_enum_mpvc_degree_violation(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["enum-mpvc", path, "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert "degree" in captured.err
    assert captured.out == ""


def test_enum_mpvc_stats_within_soft_leaf_budget(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["enum-mpvc", path, "--t", "3", "--count-only", "--stats"]) == 0
    captured = capsys.readouterr()
    assert "leaf_nodes=" in captured.out
    assert "warning" not in captured.err
    lines = captured.out.splitlines()
    assert [line.split("=")[0] for line in lines[1:]] == sorted(Stats().as_dict())
    assert "emitted=5" in lines


def test_simulate(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["simulate", path, "--x", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "round 0: 2"
    assert out[1] == "round 1: 1,3"
    assert out[2] == "activated 3/3 rounds 1"


def test_perfect_solvers_agree(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    sizes = set()
    for algo in ("oracle", "thr2", "dual", "auto"):
        assert run(["perfect", path, "--algo", algo]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        sizes.add(line.split()[1])
    assert sizes == {"size=2"}


def test_gen_deterministic_and_parseable(tmp_path, capsys):
    argv = ["gen", "--model", "gnp", "--n", "8", "--p", "0.4",
            "--thr-model", "ratio_third", "--seed", "11"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.n == 8


def test_gen_to_file(tmp_path):
    out = tmp_path / "gen.tss"
    assert run(["gen", "--model", "regular", "--n", "6", "--degree", "2",
                "--thr-model", "const", "--thr-value", "1", "--seed", "3",
                "-o", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert all(inst.graph.degree(v) == 2 for v in range(6))


def test_reduce_emits_reparseable_file(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["reduce", "--from-clique", path, "--k", "2"]) == 0
    text = capsys.readouterr().out
    assert "# origin 4 edge 1 2" in text
    inst = parse_instance(text)
    assert inst.n == 5
    assert inst.query == (2, 3)


def test_reduce_oversized_target_needs_force(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["reduce", "--from-clique", path, "--k", "3"]) == 0
    text = capsys.readouterr().out
    assert text.rstrip().endswith("q 3 6")
    try:
        parse_instance(text)
        raised = False
    except Exception:
        raised = True
    assert raised
    assert parse_instance(text, force=True).query == (3, 5)


def test_gadget_command(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["gadget", path, "--t", "2"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.n == 3 + 6
    assert set(inst.thr) == {2}


def test_construct_command(tmp_path, capsys):
    text = "p tss 4 3\nt 1 1\nt 2 1\nt 3 1\nt 4 1\ne 1 2\ne 2 3\ne 3 4\n"
    path = _write(tmp_path, "path4.tss", text)
    assert run(["construct", path, "--seed", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("size=1 set=")


def test_construct_peels_deeper_than_the_recursion_limit(tmp_path, capsys):
    # a caterpillar: a 520-vertex spine with two leaves per spine vertex and
    # thresholds 1; each peel takes one spine vertex and leaves one part
    spine = 520
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + 2 * i + j) for i in range(spine) for j in range(2)]
    inst = Instance(Graph(3 * spine, edges), (1,) * (3 * spine))
    path = _write(tmp_path, "caterpillar.tss", write_instance(inst))
    assert run(["construct", path]) == 0
    ids = ",".join(map(str, range(1, spine + 1)))  # the spine, peeled from its first vertex
    assert capsys.readouterr().out.strip() == f"size={spine} set={ids}"


def test_flags_the_chosen_solver_ignores_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "k3t1.tss", K3_THR1)
    for argv in (["solve", path, "--gamma", "0.0"],
                 ["solve", path, "--algo", "oracle", "--gamma", "0.0"],
                 ["solve", path, "--algo", "sliced", "--gamma", "0.5"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "--algo bounded" in err, argv
    # the solvers work out the bounds t and d from the instance, so no command takes them
    for argv in (["solve", path, "--algo", "bounded", "--t", "2"],
                 ["perfect", path, "--algo", "dual", "--d", "1"],
                 ["bench", path, "--algo", "enum-mpvc", "--t", "3"],
                 ["bench", path, "--algo", "dual", "--d", "1"],
                 ["construct", path, "--bound045"]):
        assert run(argv) == 2
        assert capsys.readouterr().out == "", argv
    assert run(["solve", path, "--algo", "bounded", "--gamma", "0.0"]) == 0


def test_verify_command(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    assert run(["verify", path, "--x", "1,2"]) == 0
    assert capsys.readouterr().out.startswith("VALID")
    assert run(["verify", path, "--x", "3", "--k", "1", "--l", "3"]) == 1
    assert capsys.readouterr().out.startswith("INVALID")


def test_verify_rejects_negative_flags(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    for flag in ("--k", "--l"):
        assert run(["verify", path, "--x", "1", flag, "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "budget and target must be non-negative" in err


def test_bench_failing_row_prints_nothing(tmp_path, capsys):
    # the header comes with the rows, so a row that fails leaves stdout empty
    path = _write(tmp_path, "k4t3.tss", write_instance(complete_instance(4, 3)))
    assert run(["bench", path, "--algo", "thr2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_bench_csv(tmp_path, capsys):
    k3 = _write(tmp_path, "k3.tss", K3)
    p3 = _write(tmp_path, "p3.tss", P3)
    assert run(["bench", k3, p3, "--algo", "oracle,bounded,thr2,enum-mpvc"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "instance,n,m,algo,answer,size,leaves,dp_states,ms"
    assert len(lines) == 1 + 2 * 4
    cells = [line.split(",") for line in lines[1:]]
    assert {row[3] for row in cells} == {"oracle", "bounded", "thr2", "enum-mpvc"}
    for row in cells:
        assert row[4] in ("YES", "NO")


def test_bench_jobs_output_identical(tmp_path, capsys):
    k3 = _write(tmp_path, "k3.tss", K3)
    p3 = _write(tmp_path, "p3.tss", P3)
    assert run(["bench", k3, p3, "--algo", "oracle,thr2"]) == 0
    seq = [line.rsplit(",", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert run(["bench", k3, p3, "--algo", "oracle,thr2", "--jobs", "2"]) == 0
    par = [line.rsplit(",", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert seq == par


def test_bench_jobs_capped_at_row_count(tmp_path, capsys, monkeypatch):
    # a pool starts all its workers at the first task, so bench must not ask for
    # more workers than it has rows; a fake pool records what it is asked for
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    k3 = _write(tmp_path, "k3.tss", K3)
    p3 = _write(tmp_path, "p3.tss", P3)
    assert run(["bench", k3, "--algo", "oracle", "--jobs", "64"]) == 0
    assert asked == []
    assert run(["bench", k3, p3, "--algo", "oracle", "--jobs", "64"]) == 0
    assert asked == [2]
    assert len(capsys.readouterr().out.splitlines()) == (1 + 1) + (1 + 2)


def test_bench_reverifies_witness(tmp_path, monkeypatch):
    # bench rows go through the same re-verification as solve and perfect
    monkeypatch.setattr(cli, "solve_perfect_thr2", lambda inst, stats=None: frozenset())
    path = _write(tmp_path, "k3.tss", K3)
    with pytest.raises(RuntimeError, match="re-verification"):
        run(["bench", path, "--algo", "thr2"])


def test_auto_routing(tmp_path, capsys):
    # solve and perfect both send auto to the bit-sliced ascending search,
    # whatever the thresholds
    cases = [
        (["solve"], K3_THR1, "sliced"),
        (["solve"], K3, "sliced"),
        (["perfect"], write_instance(complete_instance(3, 2)), "sliced"),
        (["perfect"], write_instance(complete_instance(4, 3)), "sliced"),
        (["perfect"], write_instance(complete_instance(5, 4)), "sliced"),
    ]
    for i, (command, text, expected) in enumerate(cases):
        path = _write(tmp_path, f"auto{i}.tss", text)
        assert run([*command, path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == expected, (command, text)


def test_auto_decision_leaves_unreachable_vertex_free(tmp_path, capsys):
    # vertex 3 is isolated with threshold 1, so it activates only as a seed;
    # a decision query below n need not activate it, and forcing it into the
    # seed would spend the whole budget on it and answer NO
    text = "p tss 3 1\nt 1 1\nt 2 1\nt 3 1\ne 1 2\nq 1 2\n"
    path = _write(tmp_path, "iso.tss", text)
    assert run(["solve", path, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["algorithm"] == "sliced" and record["witness"] == [1]
    inst = parse_instance(text)
    assert sorted(v + 1 for v in oracle_tss_decision(inst, 1, 2)) == [1]


def test_auto_perfect_drops_the_forced_closure(tmp_path, capsys):
    # on the path 1-2-3-4-5 with thresholds 2,1,2,2,1, vertex 1 is forced
    # (thr > deg) and activates 2, so the search runs over 3, 4 and 5 alone:
    # from the counting bound's level, one extra seed, it tests {3}, then {4}
    text = "p tss 5 4\nt 1 2\nt 2 1\nt 3 2\nt 4 2\nt 5 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"
    path = _write(tmp_path, "path.tss", text)
    assert run(["perfect", path, "--stats", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["algorithm"] == "sliced" and record["witness"] == [1, 4]
    assert record["stats"]["leaf_seeds"] == 2
    assert oracle_min_perfect_tss(parse_instance(text)) == frozenset({0, 3})


@st.composite
def _queries(draw):
    """An instance with n <= 8 and thresholds <= 3, about half of them under the degree/3
    cap, plus a query (k, l)."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, kept in zip(pairs, keep) if kept])
    thr = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        thr = [min(t, -(-g.degree(v) // 3)) for v, t in enumerate(thr)]
    return Instance(g, tuple(thr)), draw(st.integers(0, n)), draw(st.integers(0, n + 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_queries())
def test_answers_are_monotone_in_k_and_l(query):
    # YES stays YES with more budget or a lower target; NO stays NO with less
    # budget or a higher target
    inst, k, l = query
    solvers = [("oracle", None), ("bounded", 0.0), ("bounded", None), ("sliced", None)]
    if ratio_violator(inst) is None:
        solvers.append(("third", None))
    for algo, gamma in solvers:
        def yes(k, l):
            return _answer(inst, algo, k, l, None, gamma=gamma)[0] is not None

        if yes(k, l):
            assert yes(k + 1, l) and (l == 0 or yes(k, l - 1)), (algo, gamma)
        else:
            assert not yes(k, l + 1) and (k == 0 or not yes(k - 1, l)), (algo, gamma)


def test_solve_completes_a_deep_stage3_table(tmp_path, capsys):
    # 1,000 isolated threshold-1 vertices reach stage 3 with a free part deeper
    # than the recursion limit; the table is walked without recursion
    path = _write(tmp_path, "iso.tss", write_instance(Instance(Graph(1000, []), (1,) * 1000)))
    assert run(["solve", path, "--algo", "bounded", "--k", "5", "--l", "5"]) == 0
    assert capsys.readouterr().out.startswith("YES size=5 ")


def test_force_flag_clamps_query(tmp_path, capsys):
    text = "p tss 2 1\nt 1 1\nt 2 1\ne 1 2\nq 9 9\n"
    path = _write(tmp_path, "big.tss", text)
    assert run(["solve", path, "--algo", "oracle"]) == 2
    assert run(["solve", path, "--algo", "oracle", "--force"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("YES")


def test_bad_inputs_exit_2(tmp_path, capsys):
    assert run(["solve", "no_such_file.tss"]) == 2
    assert run(["solve", str(tmp_path)]) == 2
    bad = _write(tmp_path, "bad.tss", "p tss 1 0\nt 1 0\ne 1 1\n")
    assert run(["solve", str(bad)]) == 2
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    # no 3-regular graph on 5 vertices exists: n*d is odd
    assert run(["gen", "--model", "regular", "--n", "5", "--degree", "3",
                "--thr-model", "const", "--seed", "1"]) == 2
    assert "n*d must be even" in capsys.readouterr().err
    # flags that no command reads are not accepted
    k3 = _write(tmp_path, "k3.tss", K3)
    for argv in (["solve", k3, "--jobs", "2"], ["solve", k3, "--seed", "1"],
                 ["perfect", k3, "--jobs", "2"], ["perfect", k3, "--seed", "1"],
                 ["bench", k3, "--seed", "1"]):
        assert run(argv) == 2
    # bench takes its query as solve does: flags, else the file's
    noq = _write(tmp_path, "noq.tss", "p tss 1 0\nt 1 0\n")
    capsys.readouterr()
    assert run(["bench", noq, "--algo", "bounded"]) == 2
    assert "no query" in capsys.readouterr().err


def test_dual_answers_a_deep_path(tmp_path, capsys):
    # dual's branch-and-bound keeps its nodes on a stack, so a 1,100-vertex path
    # with thr = deg (dual 0), far deeper than the default recursion limit of
    # 1,000, is answered: the minimum seed takes every second vertex. Its
    # tables grow linearly in n, so the run stays within 2 MB.
    n = 1100
    inst = path_instance((1,) + (2,) * (n - 2) + (1,))
    path = _write(tmp_path, "path.tss", write_instance(inst))
    tracemalloc.start()
    try:
        assert run(["perfect", path, "--algo", "dual", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert len(witness) == n // 2
    assert is_perfect_target_set(inst, [v - 1 for v in witness])


def test_deep_search_exits_2_with_diagnostic(tmp_path, capsys, monkeypatch):
    # a search that passes the recursion limit ends with a diagnostic, not a traceback
    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr(cli, "solve_dual_perfect", too_deep)
    path = _write(tmp_path, "k3.tss", K3)
    assert run(["perfect", path, "--algo", "dual"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "recursion limit" in err


def test_cross_algorithm_agreement_on_generated_corpus(tmp_path, capsys):
    # every applicable solver must report the same YES/NO and perfect minimum
    for seed in range(6):
        gen_path = str(tmp_path / f"c{seed}.tss")
        assert run(["gen", "--model", "gnp", "--n", "7", "--p", "0.4",
                    "--thr-model", "uniform", "--thr-value", "2",
                    "--seed", str(seed), "-o", gen_path]) == 0
        inst = parse_instance(Path(gen_path).read_text())
        k, l = inst.n // 2, inst.n - 1
        answers = set()
        for algo in ("oracle", "bounded"):
            code = run(["solve", gen_path, "--algo", algo,
                        "--k", str(k), "--l", str(l)])
            capsys.readouterr()
            answers.add(code)
        assert len(answers) == 1
        sizes = set()
        for algo in ("oracle", "thr2", "dual", "auto"):
            assert run(["perfect", gen_path, "--algo", algo]) == 0
            sizes.add(capsys.readouterr().out.split()[1])
        assert len(sizes) == 1


def test_python_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "tss.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)

    done = cli("solve", "samples/triangle.tss", "--algo", "oracle")
    assert (done.returncode, done.stdout) == (0, "YES size=2 set=1,2\n")
    done = cli("gen", "--model", "regular", "--n", "5", "--degree", "3",
               "--thr-model", "const", "--seed", "1")
    assert done.returncode == 2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_ends_quietly(unbuffered):
    """A reader that stops early is not an input error: no diagnostic, exit 141."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "tss.cli", "perfect", "samples/triangle.tss", "--algo", "dual",
             "--stats"], cwd=ROOT, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_gone_mid_write_ends_quietly(unbuffered):
    """A reader that leaves after 10 bytes of a 600 KB write gives exit 141, unbuffered too:
    the rest of the output is lost, which must not read as success."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "tss.cli", "gen", "--model", "gnp", "--n", "1500", "--p", "0.05",
         "--thr-model", "const", "--thr-value", "1", "--seed", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (head, proc.wait(timeout=60), err) == (b"p tss 1500", 141, b"")


def test_huge_threshold_builds_no_wide_integer(tmp_path, capsys):
    # log2(2^t - 1) as a t-bit integer would take about 125 GB at t = 10^12
    path = _write(tmp_path, "wide.tss",
                  "p tss 3 2\nt 1 1\nt 2 1000000000000\nt 3 1\ne 1 2\ne 2 3\nq 1 3\n")
    start = time.perf_counter()
    assert run(["solve", path, "--algo", "bounded", "--json"]) == 0
    elapsed = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out)["witness"] == [2]
    assert elapsed < 0.1


def test_parser_reuse_leaks_no_values(tmp_path, capsys):
    """The parser is built once per process; each query must parse as if on a fresh one."""
    path = _write(tmp_path, "k3.tss", K3)
    queries = [
        ["solve", path, "--algo", "bounded", "--k", "1", "--l", "3", "--stats"],
        ["perfect", path, "--algo", "thr2"],
        ["solve", path, "--algo", "oracle"],
    ]
    reused = []
    for argv in queries:
        reused.append((run(argv), capsys.readouterr().out))
    for argv, seen in zip(queries, reused):
        _build_parser.cache_clear()
        assert (run(argv), capsys.readouterr().out) == seen
    assert [code for code, _ in reused] == [1, 0, 0]
