import json
import os
import subprocess
import sys
from pathlib import Path

from tss import gen_random, parse_instance, write_instance
from tss.cli import _build_parser, run
from tss.stats import Stats

ROOT = Path(__file__).resolve().parent.parent
K3 = "p tss 3 3\nt 1 2\nt 2 2\nt 3 2\ne 1 2\ne 1 3\ne 2 3\nq 2 3\n"
# thresholds 1 keep the degree/3 cap, so every solve and perfect algorithm accepts it
K3_THR1 = "p tss 3 3\nt 1 1\nt 2 1\nt 3 1\ne 1 2\ne 1 3\ne 2 3\nq 1 3\n"
SOLVE_ALGOS = ("oracle", "bounded", "third")
PERFECT_ALGOS = ("oracle", "thr2", "thr3", "dual")
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


def test_solve_algorithms_agree(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    for algo in ("oracle", "bounded", "auto"):
        assert run(["solve", path, "--algo", algo]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("YES size=2")


def test_solve_stats_lines(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    assert run(["solve", path, "--algo", "bounded", "--t", "2", "--stats"]) == 0
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
    # one stats schema for every algorithm with --stats, and {} without it
    path = _write(tmp_path, "k3t1.tss", K3_THR1)
    for command, algos in (("solve", SOLVE_ALGOS), ("perfect", PERFECT_ALGOS)):
        for algo in algos:
            for flags, keys in (([], []), (["--stats"], list(Stats().as_dict()))):
                assert run([command, path, "--algo", algo, "--json", *flags]) == 0
                stats = json.loads(capsys.readouterr().out)["stats"]
                assert list(stats) == keys, (command, algo, flags)
                assert all(type(value) is int for value in stats.values())


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


def test_enum_mpvc_lines(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["enum-mpvc", path, "--t", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == ["", "1", "1,3", "2", "3"]


def test_enum_mpvc_degree_violation(tmp_path, capsys):
    path = _write(tmp_path, "p3.tss", P3)
    assert run(["enum-mpvc", path, "--t", "2"]) == 2
    assert "degree" in capsys.readouterr().err


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
    assert run(["construct", path, "--bound045", "--seed", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("size=1 set=")


def test_verify_command(tmp_path, capsys):
    path = _write(tmp_path, "k3.tss", K3)
    assert run(["verify", path, "--x", "1,2"]) == 0
    assert capsys.readouterr().out.startswith("VALID")
    assert run(["verify", path, "--x", "3", "--k", "1", "--l", "3"]) == 1
    assert capsys.readouterr().out.startswith("INVALID")


def test_bench_csv(tmp_path, capsys):
    k3 = _write(tmp_path, "k3.tss", K3)
    p3 = _write(tmp_path, "p3.tss", P3)
    assert run(["bench", k3, p3, "--algo", "oracle,bounded,thr2,enum-mpvc", "--t", "3"]) == 0
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
    # no simple 7-regular graph on 16 vertices turns up within the retry budget,
    # and 7 is below (n - 1) / 2, so no complement is drawn instead
    assert run(["gen", "--model", "regular", "--n", "16", "--degree", "7",
                "--thr-model", "const", "--seed", "1"]) == 2
    assert "7-regular" in capsys.readouterr().err
    # flags that no command reads are not accepted
    k3 = _write(tmp_path, "k3.tss", K3)
    for argv in (["solve", k3, "--jobs", "2"], ["solve", k3, "--seed", "1"],
                 ["perfect", k3, "--jobs", "2"], ["perfect", k3, "--seed", "1"],
                 ["bench", k3, "--seed", "1"]):
        assert run(argv) == 2


def test_cross_algorithm_agreement_on_generated_corpus(tmp_path, capsys):
    # every applicable solver must report the same YES/NO and perfect minimum
    for seed in range(6):
        gen_path = str(tmp_path / f"c{seed}.tss")
        assert run(["gen", "--model", "gnp", "--n", "7", "--p", "0.4",
                    "--thr-model", "uniform", "--thr-value", "2",
                    "--seed", str(seed), "-o", gen_path]) == 0
        inst = parse_instance(open(gen_path).read())
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
    done = cli("gen", "--model", "regular", "--n", "16", "--degree", "7",
               "--thr-model", "const", "--seed", "1")
    assert done.returncode == 2


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
