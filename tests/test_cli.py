"""End-to-end tests for the command-line interface, run in process."""

import argparse
import json
import re
import shlex
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from qubocut import (
    CSV_HEADER,
    CommunityAssignment,
    Graph,
    PuboPolynomial,
    ReducedInstance,
    brute_force_min,
    maxcut_to_qubo,
    random_regular,
    read_graph,
    write_graph,
    write_membership,
)
from qubocut.cli import _SHARED_FLAGS, STATS_HEADER, build_parser, main
from oracles import enumerate_min


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g12.txt"
    write_graph(random_regular(12, 3, seed=1), path)
    return str(path)


# ---------------------------------------------------------------------------
# generate


def test_generate_single_file(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc, stdout, _ = run_cli(
        capsys, "generate", "--kind", "regular", "--n", "8", "--k", "3",
        "--seed", "1", "--out", str(out),
    )
    assert rc == 0
    assert str(out) in stdout
    g = read_graph(out)
    assert g.num_vertices == 8
    assert g.num_edges == 12
    assert g.edges == random_regular(8, 3, seed=1).edges


def test_generate_directory(tmp_path, capsys):
    out = tmp_path / "batch"
    rc, stdout, _ = run_cli(
        capsys, "generate", "--kind", "regular", "--n", "8", "--k", "3",
        "--seed", "5", "--count", "3", "--out", str(out),
    )
    assert rc == 0
    assert "3 graphs" in stdout
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "regular_n8_k3_s5.txt",
        "regular_n8_k3_s6.txt",
        "regular_n8_k3_s7.txt",
    ]
    for name in names:
        assert read_graph(out / name).num_vertices == 8


@pytest.mark.parametrize("kind", ["er", "erdos"])
def test_generate_erdos_aliases(tmp_path, capsys, kind):
    out = tmp_path / f"{kind}.txt"
    rc, _, _ = run_cli(
        capsys, "generate", "--kind", kind, "--n", "20", "--p", "0.3",
        "--seed", "2", "--out", str(out),
    )
    assert rc == 0
    assert read_graph(out).num_vertices == 20


def test_generate_missing_parameters(tmp_path, capsys):
    rc, _, stderr = run_cli(
        capsys, "generate", "--kind", "regular", "--n", "8",
        "--out", str(tmp_path / "g.txt"),
    )
    assert rc == 2
    assert stderr.startswith("error:")
    rc, _, stderr = run_cli(
        capsys, "generate", "--kind", "regular", "--k", "3",
        "--out", str(tmp_path / "g.txt"),
    )
    assert rc == 2
    assert stderr.startswith("error:") and "--n" in stderr


def test_generate_directory_missing_parameters(tmp_path, capsys, graph_file):
    out = tmp_path / "batch"
    rc, _, stderr = run_cli(
        capsys, "generate", "--kind", "regular", "--n", "8", "--count", "2",
        "--out", str(out),
    )
    assert rc == 2
    assert stderr.startswith("error:") and "--k" in stderr
    assert not out.exists()
    rc, _, stderr = run_cli(
        capsys, "generate", "--graph", graph_file, "--count", "2", "--out", str(out),
    )
    assert rc == 2
    assert stderr.startswith("error:") and "--graph" in stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# stats


def test_stats_csv_header_and_rows(graph_file, capsys):
    rc, stdout, _ = run_cli(capsys, "stats", graph_file, graph_file,
                            "--format", "csv")
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == STATS_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(STATS_HEADER.split(","))
        assert fields[0] == graph_file
        assert int(fields[1]) == 12


def test_stats_json_refinement_fields(graph_file, capsys):
    rc, stdout, _ = run_cli(capsys, "stats", graph_file)
    assert rc == 0
    rows = json.loads(stdout)
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 12 and row["m"] == 18
    assert row["b_refined"] is not None
    assert 0.0 <= row["reduction_refined"] <= 1.0
    assert row["reduction_refined"] >= row["reduction_baseline"] - 1e-12

    rc, stdout, _ = run_cli(capsys, "stats", graph_file, "--no-refine")
    row = json.loads(stdout)[0]
    assert row["b_refined"] is None and row["reduction_refined"] is None


def test_stats_mean_size_matches_community_count(tmp_path, capsys):
    # refinement merges this graph's four communities into three
    path = tmp_path / "g20.txt"
    write_graph(random_regular(20, 3, seed=2), path)
    for extra in ((), ("--no-refine",)):
        rc, stdout, _ = run_cli(capsys, "stats", str(path), *extra)
        assert rc == 0
        row = json.loads(stdout)[0]
        assert row["mean_community_size"] == 20 / row["num_communities"]
    assert row["num_communities"] == 4


# ---------------------------------------------------------------------------
# reduce


def test_reduce_payload_and_output_file(tmp_path, capsys):
    out = tmp_path / "reduced.json"
    rc, stdout, _ = run_cli(
        capsys, "reduce", "--kind", "regular", "--n", "14", "--k", "3",
        "--seed", "3", "--out", str(out),
    )
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["n_original"] == 14
    assert payload["mode"] == "exact"
    assert payload["n_reduced"] == len(payload["var_map"])
    assert payload["score_g"] >= payload["n_reduced"]
    assert all(key.isdigit() for key in payload["degree_histogram"])
    loaded = ReducedInstance.load(out)
    assert list(loaded.var_map) == payload["var_map"]
    assert loaded.poly.num_vars == payload["n_reduced"]


def test_reduce_core_fixed_mode(capsys):
    rc, stdout, _ = run_cli(
        capsys, "reduce", "--kind", "regular", "--n", "14", "--k", "3",
        "--seed", "3", "--mode", "core-fixed",
    )
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["mode"] == "core-fixed"
    assert max(int(k) for k in payload["degree_histogram"]) <= 2


def test_reduce_uses_the_membership_file_as_it_is(graph_file, tmp_path, capsys):
    g = read_graph(graph_file)
    given = CommunityAssignment.from_membership(g, [v % 3 for v in range(12)])
    path = tmp_path / "m.txt"
    write_membership(given, path)
    rc, stdout, _ = run_cli(capsys, "reduce", "--graph", graph_file, "--membership", str(path))
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["var_map"] == given.global_boundary().tolist()
    assert payload["num_communities"] == 3


def test_reduce_membership_refuses_no_refine(graph_file, tmp_path, capsys):
    # the file's partition is never refined, so --no-refine would be ignored
    path = tmp_path / "m.txt"
    write_membership(CommunityAssignment.from_membership(read_graph(graph_file), [0] * 12), path)
    rc, stdout, stderr = run_cli(
        capsys, "reduce", "--graph", graph_file, "--membership", str(path), "--no-refine",
    )
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "--membership" in stderr and "--no-refine" in stderr


# ---------------------------------------------------------------------------
# solve


def test_solve_graph_matches_brute_force(capsys):
    rc, stdout, _ = run_cli(
        capsys, "solve", "--kind", "regular", "--n", "10", "--k", "3",
        "--seed", "5",
    )
    assert rc == 0
    payload = json.loads(stdout)
    poly = maxcut_to_qubo(random_regular(10, 3, seed=5))
    energy, spins = brute_force_min(poly, 24)
    assert payload["energy"] == energy
    assert payload["spins"] == spins.tolist()
    assert payload["method"] == "oracle"


def test_solve_polynomial_file(tmp_path, capsys):
    poly = PuboPolynomial(4, {(): 1.0, (0, 1): -2.0, (2, 3): 1.5})
    path = tmp_path / "poly.json"
    poly.save(path)
    rc, stdout, _ = run_cli(capsys, "solve", "--poly", str(path))
    assert rc == 0
    payload = json.loads(stdout)
    e_min, _ = enumerate_min(poly)
    assert payload["energy"] == e_min


def test_solve_past_63_variables_is_an_error_line(tmp_path, capsys):
    # an 80-variable witness overflows every mask; it used to end in a traceback
    path = tmp_path / "ring.json"
    maxcut_to_qubo(Graph(80, [(i, (i + 1) % 80) for i in range(80)])).save(path)
    rc, stdout, stderr = run_cli(capsys, "solve", "--poly", str(path), "--brute-cap", "100")
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "80 variables exceed 63" in stderr


def test_solve_csv_format(capsys):
    rc, stdout, _ = run_cli(
        capsys, "solve", "--kind", "regular", "--n", "8", "--k", "3",
        "--seed", "2", "--format", "csv",
    )
    assert rc == 0
    energy_str, spin_str = stdout.strip().split(",")
    assert len(spin_str) == 8
    assert set(spin_str) <= {"+", "-"}
    poly = maxcut_to_qubo(random_regular(8, 3, seed=2))
    assert float(energy_str) == brute_force_min(poly, 24)[0]


def test_solve_with_external_solver(tmp_path, capsys):
    from test_wcnf import EXHAUSTIVE_SOLVER

    script = tmp_path / "mocksat.py"
    script.write_text(EXHAUSTIVE_SOLVER, encoding="utf-8")
    cmd = shlex.join([sys.executable, str(script)])
    rc, stdout, _ = run_cli(
        capsys, "solve", "--kind", "regular", "--n", "8", "--k", "3",
        "--seed", "2", "--solver-cmd", cmd,
    )
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["method"] == "wcnf"
    poly = maxcut_to_qubo(random_regular(8, 3, seed=2))
    assert payload["energy"] == brute_force_min(poly, 24)[0]


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_solve_rejects_non_finite_coefficient(tmp_path, capsys, bad):
    path = tmp_path / "poly.json"
    path.write_text(
        '{"num_vars": 2, "terms": [{"vars": [0, 1], "coeff": %s}]}' % bad
    )
    rc, stdout, stderr = run_cli(capsys, "solve", "--poly", str(path))
    assert rc == 2
    assert stdout == ""
    assert "coefficient" in stderr


@pytest.mark.parametrize("term", ["[0.7, 2]", '[0, "2"]', "[true]"])
def test_solve_rejects_non_integer_index(tmp_path, capsys, term):
    path = tmp_path / "poly.json"
    path.write_text('{"num_vars": 3, "terms": [{"vars": %s, "coeff": 1.0}]}' % term)
    rc, stdout, stderr = run_cli(capsys, "solve", "--poly", str(path))
    assert rc == 2
    assert stdout == ""
    assert "must be an integer" in stderr


@pytest.mark.parametrize(
    "term",
    ['{"vars": 5, "coeff": 1.0}', '{"vars": [0], "coeff": [1]}',
     '{"vars": [0], "coeff": null}', '{"vars": [0], "coeff": true}',
     '{"vars": [0], "coeff": "1.5"}'],
    ids=["int-vars", "list-coeff", "null-coeff", "bool-coeff", "string-coeff"],
)
def test_solve_rejects_malformed_term(tmp_path, capsys, term):
    path = tmp_path / "poly.json"
    path.write_text('{"num_vars": 2, "terms": [%s]}' % term)
    rc, stdout, stderr = run_cli(capsys, "solve", "--poly", str(path))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error:") and stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["solve", "--n", "7"], "--n"),
        (["reduce", "--kind", "er", "--p", "0.5"], "--kind --p"),
        (["pipeline", "--k", "5", "--format", "csv"], "--k"),
    ],
    ids=["solve-n", "reduce-kind-p", "pipeline-k"],
)
def test_graph_file_refuses_generator_flags(graph_file, capsys, argv, extra):
    rc, stdout, stderr = run_cli(capsys, *argv, "--graph", graph_file)
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error:") and f"drop {extra}" in stderr


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["solve", "--graph", "GRAPH"], "--graph"),
        (["solve", "--n", "12"], "--n"),
        (["solve", "--kind", "regular", "--n", "12", "--k", "3"], "--n --kind --k"),
        (["solve", "--kind", "er", "--p", "0.5", "--format", "csv"], "--kind --p"),
        (["qaoa", "--graph", "GRAPH", "--budget", "10"], "--graph"),
        (["qaoa", "--kind", "regular", "--n", "12", "--k", "3"], "--n --kind --k"),
    ],
    ids=["solve-graph", "solve-n", "solve-regular", "solve-er", "qaoa-graph", "qaoa-regular"],
)
def test_poly_refuses_graph_flags(graph_file, tmp_path, capsys, argv, extra):
    path = tmp_path / "poly.json"
    PuboPolynomial(2, [((0, 1), 1.0)]).save(path)
    argv = [graph_file if arg == "GRAPH" else arg for arg in argv]
    rc, stdout, stderr = run_cli(capsys, *argv, "--poly", str(path))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error:") and f"drop {extra}" in stderr


def test_solve_without_inputs_is_an_error(capsys):
    rc, _, stderr = run_cli(capsys, "solve")
    assert rc == 2
    assert "error:" in stderr


# ---------------------------------------------------------------------------
# qaoa


def test_qaoa_payload_and_trace(graph_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc, stdout, _ = run_cli(
        capsys, "qaoa", "--graph", graph_file, "--depth", "1", "--budget", "60",
        "--starts", "2", "--seed", "3", "--trace-out", str(trace),
    )
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["p"] == 1
    assert payload["e_min"] is not None
    assert 0.0 < payload["best_ratio"] <= 1.0 + 1e-12
    assert len(payload["best_params"]["gammas"]) == 1
    assert len(payload["best_params"]["betas"]) == 1
    assert payload["evals_used"] <= 60
    lines = trace.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "eval,expectation"
    assert len(lines) == payload["evals_used"] + 1
    best = min(float(ln.split(",")[1]) for ln in lines[1:])
    assert best == pytest.approx(payload["best_expectation"])


def test_qaoa_polynomial_input(tmp_path, capsys):
    poly = maxcut_to_qubo(random_regular(6, 3, seed=0))
    path = tmp_path / "poly.json"
    poly.save(path)
    rc, stdout, _ = run_cli(
        capsys, "qaoa", "--poly", str(path), "--depth", "0", "--budget", "4",
        "--starts", "1",
    )
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["best_expectation"] == pytest.approx(-poly.num_vars * 3 / 4)
    assert payload["evals_used"] == 1


def test_qaoa_requires_input_or_graph(capsys):
    # as for solve, the missing-input message is the graph source's
    rc, _, stderr = run_cli(capsys, "qaoa")
    assert rc == 2
    assert "give --graph FILE or --kind with --n" in stderr


def test_qaoa_draws_a_graph_with_seed(graph_file, capsys):
    # --kind/--n/--k draw the graph with --seed, as solve does; the fixture
    # holds random_regular(12, 3, seed=1)
    argv = ("qaoa", "--depth", "0", "--budget", "4", "--starts", "1", "--seed", "1")
    rc, drawn, _ = run_cli(capsys, *argv, "--kind", "regular", "--n", "12", "--k", "3")
    assert rc == 0
    rc, read, _ = run_cli(capsys, *argv, "--graph", graph_file)
    assert rc == 0
    assert json.loads(drawn) == json.loads(read)


# ---------------------------------------------------------------------------
# pipeline and bench


def test_pipeline_json_payload(capsys):
    rc, stdout, _ = run_cli(
        capsys, "pipeline", "--kind", "regular", "--n", "12", "--k", "3",
        "--seed", "1",
    )
    assert rc == 0
    payload = json.loads(stdout)
    poly = maxcut_to_qubo(random_regular(12, 3, seed=1))
    assert payload["e_min_original"] == brute_force_min(poly, 24)[0]
    assert payload["e_min_reduced"] == payload["e_min_original"]
    assert payload["total_time"] == pytest.approx(
        payload["t_detect"] + payload["t_quench"]
        + payload["t_assemble"] + payload["t_solve"]
    )
    assert payload["mode"] == "exact"


def test_pipeline_csv_format(capsys):
    rc, stdout, _ = run_cli(
        capsys, "pipeline", "--kind", "regular", "--n", "12", "--k", "3",
        "--seed", "1", "--format", "csv",
    )
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "12" and fields[3] == "exact"


@pytest.mark.parametrize(
    "extra",
    [["--backend", "wcnf"], ["--solver-cmd", "/no/such/solver"]],
    ids=["wcnf-without-solver", "solver-without-wcnf"],
)
def test_pipeline_solver_command_goes_with_wcnf(extra, capsys):
    rc, stdout, stderr = run_cli(
        capsys, "pipeline", "--kind", "regular", "--n", "12", "--k", "3",
        "--seed", "1", *extra,
    )
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "solver command" in stderr


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc, stdout, _ = run_cli(
        capsys, "bench", "--kind", "regular", "--k", "3", "--n-list", "8",
        "--count", "2", "--modes", "exact,core-fixed", "--out", str(out),
    )
    assert rc == 0
    assert "wrote 4 rows" in stdout
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    modes = [line.split(",")[3] for line in lines[1:]]
    assert modes.count("exact") == 2 and modes.count("core-fixed") == 2


def test_bench_stdout_and_bad_mode(capsys):
    rc, stdout, _ = run_cli(
        capsys, "bench", "--kind", "regular", "--k", "3", "--n-list", "8",
        "--count", "1",
    )
    assert rc == 0
    assert stdout.splitlines()[0] == CSV_HEADER

    rc, _, stderr = run_cli(
        capsys, "bench", "--kind", "regular", "--k", "3", "--n-list", "8",
        "--count", "1", "--modes", "fancy",
    )
    assert rc == 2
    assert "unknown mode" in stderr


def test_bench_process_pool_writes_the_same_rows(tmp_path, capsys, monkeypatch):
    # --jobs 2 maps the runs through two worker processes; only the stage
    # timings t1..t4 (columns 7-10) may differ from a serial run
    pools = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr("qubocut.cli.ProcessPoolExecutor", Pool)
    rows = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"bench{jobs}.csv"
        rc, _, _ = run_cli(
            capsys, "bench", "--kind", "regular", "--k", "3", "--n-list", "8,10",
            "--count", "2", "--modes", "exact,core-fixed", "--jobs", jobs, "--out", str(out),
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows[jobs] = [line.split(",")[:7] + line.split(",")[11:] for line in lines]
    assert pools == [2]
    assert len(rows["2"]) == 9
    assert rows["2"] == rows["1"]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_bench_jobs_below_one_is_an_error(jobs, capsys):
    rc, stdout, stderr = run_cli(
        capsys, "bench", "--kind", "regular", "--k", "3", "--n-list", "8",
        "--count", "1", "--jobs", jobs,
    )
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "--jobs" in stderr


@pytest.mark.parametrize("command", ["generate --n 8", "bench --n-list 8"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_count_below_one_is_an_error(command, count, tmp_path, capsys):
    out = tmp_path / "out"
    rc, stdout, stderr = run_cli(
        capsys, *command.split(), "--kind", "regular", "--k", "3",
        "--count", count, "--out", str(out),
    )
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "--count" in stderr
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["", ","])
def test_bench_empty_size_list_is_an_error(sizes, tmp_path, capsys):
    # it used to draw no graph, print the CSV header alone and exit 0
    out = tmp_path / "out"
    rc, stdout, stderr = run_cli(
        capsys, "bench", "--kind", "regular", "--k", "3", "--n-list", sizes, "--out", str(out),
    )
    assert rc == 2 and stdout == "" and not out.exists()
    assert stderr.startswith("error:") and "--n-list" in stderr


def test_bench_missing_degree_is_an_error(capsys):
    rc, _, stderr = run_cli(capsys, "bench", "--kind", "regular", "--n-list", "8")
    assert rc == 2
    assert stderr.startswith("error:") and "--k" in stderr


def test_bench_refuses_graph_file(graph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--graph", graph_file, "--k", "3", "--n-list", "8"])
    assert exc.value.code == 2
    assert "--graph" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("generate --kind er --n 12 --p 0.3 --k 3", "--k"),
        ("generate --kind regular --n 12 --k 3 --p 0.9", "--p"),
        ("generate --kind erdos --n 12 --p 0.3 --k 3 --count 2", "--k"),
        ("pipeline --kind er --n 12 --p 0.3 --k 3 --format csv", "--k"),
        ("pipeline --kind regular --n 12 --k 3 --p 0.9", "--p"),
        ("bench --kind er --p 0.3 --k 3 --n-list 8 --count 1", "--k"),
        ("bench --kind regular --k 3 --p 0.9 --n-list 8 --count 1 --jobs 2", "--p"),
    ],
)
def test_generator_flag_the_kind_does_not_read_is_refused(argv, flag, tmp_path, capsys):
    # such a flag used to be dropped silently, or to label an Erdos-Renyi row k = 3
    out = tmp_path / "out"
    extra = [] if argv.startswith("pipeline") else ["--out", str(out)]
    rc, stdout, stderr = run_cli(capsys, *argv.split(), *extra)
    assert rc == 2 and stdout == "" and not out.exists()
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
    assert f"takes no {flag}" in stderr


def test_rows_carry_the_labels_of_what_drew_the_graph(graph_file, capsys):
    # the pipeline leaves the labels empty; pipeline and bench fill them in
    for argv, labels in (
        (["--kind", "er", "--n", "10", "--p", "0.3"], ["er", None]),
        (["--kind", "regular", "--n", "10", "--k", "3"], ["regular", 3]),
        (["--graph", graph_file], ["", None]),
    ):
        rc, stdout, _ = run_cli(capsys, "pipeline", *argv)
        assert rc == 0
        assert [json.loads(stdout)[key] for key in ("graph_kind", "graph_k")] == labels
    for argv, k in ((["--kind", "er", "--p", "0.3"], ""), (["--k", "3", "--jobs", "2"], "3")):
        rc, stdout, _ = run_cli(capsys, "bench", *argv, "--n-list", "8", "--count", "2")
        assert rc == 0
        assert [line.split(",")[1] for line in stdout.splitlines()[1:]] == [k, k]


# ---------------------------------------------------------------------------
# shared flags


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--format", "csv", "--out", "g.txt"],
        ["reduce", "--format", "csv"],
        ["qaoa", "--format", "csv"],
        ["bench", "--format", "json"],
        ["stats", "g.txt", "--brute-cap", "5"],
        ["solve", "--jobs", "2"],
        ["solve", "--caps", "5"],
        ["bench", "--depth", "2"],
        ["bench", "--qaoa-cap", "5"],
        ["bench", "--backend", "qaoa"],
    ],
    ids=[
        "generate-format", "reduce-format", "qaoa-format", "bench-format",
        "stats-brute-cap", "solve-jobs", "solve-caps",
        "bench-depth", "bench-qaoa-cap", "bench-backend-qaoa",
    ],
)
def test_unread_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    # a refused flag is unrecognized; a refused value of a kept flag is not a choice
    expected = "invalid choice" if argv[-1] == "qaoa" else "unrecognized arguments"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduce", "--boundary-cap", "0"], "exceeds cap 0"),
        (["solve", "--brute-cap", "4"], "brute-force cap 4"),
        (["qaoa", "--qaoa-cap", "4"], "statevector cap 4"),
    ],
    ids=["reduce", "solve", "qaoa"],
)
def test_cap_flags_are_read(argv, message, tmp_path, capsys, monkeypatch):
    path = tmp_path / "g8.txt"
    write_graph(random_regular(8, 3, seed=1), path)
    if argv[0] == "qaoa":
        # The statevector cap refuses before any exact minimum runs.
        def forbidden(*args, **kwargs):
            raise AssertionError("_minimum called past the statevector cap")

        monkeypatch.setattr("qubocut.cli._minimum", forbidden)
    rc, _, stderr = run_cli(capsys, *argv, "--graph", str(path))
    assert rc == 2
    assert stderr.startswith("error:") and message in stderr


def test_readme_flag_table_matches_parser():
    # the "## Command line" table lists each subcommand's shared flags
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = {
        name: set(re.findall(r"`(--[a-z-]+)", flags))
        for name, flags in re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    }
    shared = {"--seed"} | {f"--{name}" for name in _SHARED_FLAGS}
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    registered = {
        name: {flag for action in sub._actions for flag in action.option_strings} & shared
        for name, sub in subparsers.choices.items()
    }
    assert documented == registered


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "qubocut" in capsys.readouterr().out
