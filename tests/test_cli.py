"""End-to-end tests for the latin3 command-line interface."""

import json
import subprocess
import sys

import pytest

from latin3.chromatic import STAT_NAMES, chromatic_poly, count_colorings_bruteforce, eval_poly
from latin3 import cli
from latin3.cli import main
from latin3.errors import MAX_SEARCH_DEPTH
from latin3.graphs import build_gn, build_gnpq
from latin3.oracle import count_latin


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- table -------------------------------------------------------------------

def test_table_csv_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--formula", "thm3", "--n", "1..3",
        "--lambda-offset", "0..2", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "n,lambda,formula,value"
    assert lines[3] == "1,3,thm3,6"
    values = [line.split(",")[3] for line in lines[1:]]
    assert values == ["0", "0", "6", "0", "12", "264", "12", "1056", "27480"]


def test_table_plain_single_cell(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--formula", "aps", "--n", "1", "--lambda", "3"
    )
    assert code == 0
    assert out == "1 3 aps 6\n"


def test_table_riordan_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--formula", "riordan", "--n", "4")
    assert code == 0
    assert out == "4 4 riordan 24\n"


def test_table_riordan_rejects_lambda(capsys):
    code, out, err = run_cli(
        capsys, "table", "--formula", "riordan", "--n", "3", "--lambda", "4"
    )
    assert code == 2
    assert out == ""
    assert "riordan" in err


def test_table_json_matches_csv(capsys):
    args = ("table", "--formula", "thm3", "--n", "2..3", "--lambda-offset", "0..1")
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0

    records = json.loads(json_out)
    csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    assert len(records) == len(csv_rows)
    for record, row in zip(records, csv_rows):
        assert isinstance(record["value"], str)
        assert [str(record["n"]), str(record["lambda"]), record["formula"],
                record["value"]] == row


def test_table_defaults_lambda_to_n(capsys):
    code, out, _ = run_cli(capsys, "table", "--formula", "thm3", "--n", "3")
    assert code == 0
    assert out == "3 3 thm3 12\n"


def test_table_prints_counts_past_4300_digits(capsys):
    lam = 10**1100
    code, out, _ = run_cli(
        capsys, "table", "--formula", "thm3", "--n", "2",
        "--lambda", str(lam), "--format", "csv",
    )
    assert code == 0
    value = out.splitlines()[1].split(",")[3]
    # the engine's polynomial shares no code with thm3_g
    expected = eval_poly(chromatic_poly(build_gn(2)), lam)
    assert len(str(expected)) > 4300
    assert value == str(expected)


def test_table_routes_agree(capsys):
    outputs = []
    for formula in ("thm3", "engine", "brute", "latin-oracle"):
        code, out, _ = run_cli(
            capsys,
            "table", "--formula", formula, "--n", "1..2", "--lambda", "3..4",
        )
        assert code == 0
        outputs.append([line.split()[-1] for line in out.splitlines()])
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def test_table_closed_forms_count_zero_below_n_symbols(capsys):
    rows = {}
    for formula in ("aps", "thm3", "engine", "brute", "latin-oracle"):
        code, out, _ = run_cli(
            capsys, "table", "--formula", formula, "--n", "3", "--lambda", "0..4",
        )
        assert code == 0
        rows[formula] = [
            (n, lam, value) for n, lam, _, value in map(str.split, out.splitlines())
        ]
    assert rows["aps"] == rows["thm3"] == rows["engine"] == rows["brute"] == rows["latin-oracle"]
    assert [value for _, _, value in rows["engine"]] == ["0", "0", "0", "12", "1056"]


def test_table_aps_and_thm3_agree_at_a_million_symbols(capsys):
    rows = {}
    for formula in ("aps", "thm3"):
        code, out, _ = run_cli(
            capsys, "table", "--formula", formula, "--n", "3", "--lambda", "1000000",
        )
        assert code == 0
        n, lam, _, value = out.split()
        rows[formula] = (n, lam, value)
    assert rows["aps"] == rows["thm3"]
    assert rows["aps"][2] == str(eval_poly(chromatic_poly(build_gn(3)), 10**6))


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--formula", "thm3", "--n", "0"),
        ("table", "--formula", "thm3", "--n", "3..1"),
        ("table", "--formula", "thm3", "--n", "x..2"),
        ("table", "--formula", "thm3", "--n", "2", "--lambda", "3",
         "--lambda-offset", "1"),
        ("table", "--formula", "thm3", "--n", "2", "--lambda", "-1"),
    ],
)
def test_table_invalid_arguments_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_table_unknown_formula_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--formula", "magic", "--n", "2"])
    assert exc.value.code == 2


def test_table_engine_vertex_limit(capsys):
    code, _, err = run_cli(capsys, "table", "--formula", "engine", "--n", "5")
    assert code == 3
    assert "vert" in err.lower()


def test_table_engine_stats_go_to_stderr_only(capsys):
    argv = ("table", "--formula", "engine", "--n", "2..3", "--lambda-offset", "0..1")
    code, plain_out, plain_err = run_cli(capsys, *argv)
    assert (code, plain_err) == (0, "")
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 0
    assert out == plain_out
    assert err.count("\n") == 1
    # One polynomial per n; the counters are summed over both graphs.
    want: dict = {}
    chromatic_poly(build_gn(2), stats=want)
    chromatic_poly(build_gn(3), stats=want)
    assert json.loads(err) == want


def test_table_latin_oracle_stats_go_to_stderr_only(capsys):
    argv = ("table", "--formula", "latin-oracle", "--n", "1..3", "--lambda-offset", "0..2")
    code, plain_out, plain_err = run_cli(capsys, *argv)
    assert (code, plain_err) == (0, "")
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 0
    assert out == plain_out
    assert err.count("\n") == 1
    # The counters are summed over the table's cells.
    want: dict = {}
    for n in (1, 2, 3):
        for lam in range(n, n + 3):
            count_latin(n, lam, stats=want)
    assert json.loads(err) == want
    assert want["nodes"] > 0 and want["memo_hits"] > 0


def test_table_stats_print_before_a_budget_error(capsys):
    argv = ("table", "--formula", "latin-oracle", "--n", "4", "--lambda", "6",
            "--node-budget", "1000")
    code, plain_out, plain_err = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 3
    assert out == plain_out == ""
    # the counters, filled up to the node past the budget, come first
    counters, error = err.splitlines()
    assert json.loads(counters)["nodes"] == 1001
    assert error == plain_err.strip()
    assert error.startswith("error:") and "node budget of 1000" in error


def test_table_stats_print_before_a_vertex_limit_error(capsys):
    # G(1) and G(2) have 3 and 6 vertices; G(3)'s 9 exceed the limit of 7
    argv = ("table", "--formula", "engine", "--n", "1..3", "--lambda", "3",
            "--max-vertices", "7", "--stats")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    counters, error = err.splitlines()
    want: dict = {}
    chromatic_poly(build_gn(1), stats=want)
    chromatic_poly(build_gn(2), stats=want)
    assert json.loads(counters) == want
    assert error.startswith("error:") and "limit of 7" in error


def test_table_brute_stats_go_to_stderr_only(capsys):
    argv = ("table", "--formula", "brute", "--n", "1..2", "--lambda", "3..4")
    code, plain_out, plain_err = run_cli(capsys, *argv)
    assert (code, plain_err) == (0, "")
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 0
    assert out == plain_out
    # the nodes are summed over the table's cells
    want: dict = {}
    for n in (1, 2):
        for lam in (3, 4):
            count_colorings_bruteforce(build_gn(n), lam, stats=want)
    assert err == json.dumps(want) + "\n"
    assert set(want) == {"nodes"} and want["nodes"] > 0


def test_table_brute_stats_print_before_a_budget_error(capsys):
    argv = ("table", "--formula", "brute", "--n", "2", "--lambda", "4",
            "--node-budget", "500")
    code, plain_out, plain_err = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 3
    assert out == plain_out == ""
    counters, error = err.splitlines()
    assert json.loads(counters) == {"nodes": 501}
    assert error == plain_err.strip()
    assert error == (
        "error: coloring search exceeded the node budget of 500: "
        "visited 501 nodes, completed 108 colorings"
    )


def test_table_stats_needs_the_engine(capsys):
    code, out, err = run_cli(capsys, "table", "--formula", "thm3", "--n", "2", "--stats")
    assert code == 2
    assert out == ""
    assert "--stats needs --formula engine, latin-oracle or brute; thm3 keeps no counters" in err


@pytest.mark.parametrize(
    "formula, flag, value, message",
    [
        ("thm3", "--node-budget", "0",
         "--node-budget needs --formula brute or latin-oracle; thm3 has no node budget"),
        ("engine", "--node-budget", "-1",
         "--node-budget needs --formula brute or latin-oracle; engine has no node budget"),
        ("latin-oracle", "--max-vertices", "-4",
         "--max-vertices needs --formula engine; latin-oracle has no vertex limit"),
        ("brute", "--max-vertices", "14",
         "--max-vertices needs --formula engine; brute has no vertex limit"),
    ],
)
def test_table_rejects_a_cost_flag_its_formula_ignores(capsys, formula, flag, value, message):
    # valid or not, a cost flag the formula never reads is an argument error
    code, out, err = run_cli(
        capsys, "table", "--formula", formula, "--n", "2", flag, value
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_table_brute_node_budget(capsys):
    code, _, err = run_cli(
        capsys,
        "table", "--formula", "brute", "--n", "2", "--lambda", "4",
        "--node-budget", "10",
    )
    assert code == 3
    assert "budget" in err.lower()


@pytest.mark.parametrize(
    "formula, n, budget, progress",
    [
        # G(1) is a triangle: with 3 colors the 10th attempt is the one past
        # a budget of 9, after the colorings (1,2,3) and (1,3,2) were completed.
        ("brute", "1", "9", "visited 10 nodes, completed 2 colorings"),
        # Two columns on 3 symbols: the root state, then the states after the
        # first columns (1,2,3) and (1,3,2), each settled with its 2
        # completions; the state after (2,1,3) is the 4th, one past a budget of 3.
        ("latin-oracle", "2", "3", "visited 4 nodes, completed 4 rectangles"),
    ],
    ids=["brute", "latin-oracle"],
)
def test_table_budget_error_reports_progress(capsys, formula, n, budget, progress):
    code, out, err = run_cli(
        capsys,
        "table", "--formula", formula, "--n", n, "--lambda", "3",
        "--node-budget", budget,
    )
    assert code == 3
    assert out == ""
    assert f"node budget of {budget}: {progress}" in err


@pytest.mark.parametrize(
    "formula, n, lam, message",
    [
        ("latin-oracle", "1200", "1200", "rectangle search needs 1200 levels of recursion"),
        (
            "brute", str(MAX_SEARCH_DEPTH // 3 + 1), "1200",
            f"coloring search of {3 * (MAX_SEARCH_DEPTH // 3 + 1)} vertices may need "
            f"{3 * (MAX_SEARCH_DEPTH // 3 + 1) + 1} levels of recursion",
        ),
    ],
    ids=["latin-oracle", "brute"],
)
def test_table_search_past_the_depth_limit_exits_3(capsys, formula, n, lam, message):
    code, out, err = run_cli(
        capsys, "table", "--formula", formula, "--n", n, "--lambda", lam, "--stats"
    )
    assert code == 3
    assert out == ""
    assert err == f"{{}}\nerror: {message}, past the depth limit of {MAX_SEARCH_DEPTH}\n"


def test_table_searches_keep_their_own_default_budget(capsys, monkeypatch):
    # without --node-budget no budget is passed on, so count_latin keeps its
    # state budget and the colouring search its attempt budget
    calls = []

    def recorded(search):
        def call(*args, **kwargs):
            calls.append(kwargs)
            return search(*args, **kwargs)
        return call

    for name in ("count_latin", "count_colorings_bruteforce"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    for formula in ("latin-oracle", "brute"):
        code, out, _ = run_cli(capsys, "table", "--formula", formula, "--n", "1", "--lambda", "3")
        assert (code, out) == (0, f"1 3 {formula} 6\n")
    run_cli(capsys, "table", "--formula", "latin-oracle", "--n", "1", "--lambda", "3",
            "--node-budget", "5")
    assert calls == [{"stats": None}, {"stats": None}, {"stats": None, "node_budget": 5}]


def test_table_oracle_node_budget(capsys):
    code, _, _ = run_cli(
        capsys,
        "table", "--formula", "latin-oracle", "--n", "4", "--lambda", "5",
        "--node-budget", "100",
    )
    assert code == 3


# --- verify ------------------------------------------------------------------

def test_verify_fast_lane(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n-max", "2", "--skip-engine", "--skip-oracle"
    )
    assert code == 0
    assert "FAIL" not in out
    assert "formula-equivalence" in out
    assert "reduction-identity" not in out  # engine lane was skipped
    assert "derangement-oracle" not in out  # oracle lane was skipped
    assert out.rstrip().endswith("all passed")


def test_verify_engine_lane_includes_surgery(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "1", "--skip-oracle")
    assert code == 0
    assert "PASS surgery-closed-form" in out


@pytest.mark.parametrize("n_max", ["0", "7"])
def test_verify_n_max_out_of_range(capsys, n_max):
    code, out, err = run_cli(capsys, "verify", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_output_is_unchanged_by_optimize_flag(latin3_env):
    # python -O strips asserts, so no invariant may live only in one
    outputs = []
    for flags in (["-O"], []):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "latin3", "verify", "--n-max", "2"],
            capture_output=True, env=latin3_env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_verify_is_deterministic(capsys):
    args = ("verify", "--n-max", "2", "--skip-engine")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second


# --- the process -------------------------------------------------------------

def test_main_is_reentrant_with_one_parser(capsys, tmp_path):
    # every subcommand, an argparse error, a ValueError, --help and a normal
    # call, all run twice in one process: the second run of each call prints
    # and returns exactly what its first did
    graph = write_graph(tmp_path, "3\n0 1\n1 2\n0 2\n")
    calls = [
        ("table", "--formula", "latin-oracle", "--n", "1..2", "--lambda", "3", "--stats"),
        ("table", "--formula", "engine", "--n", "2", "--lambda", "4", "--format", "json"),
        ("verify", "--n-max", "1", "--skip-engine"),
        ("chromatic", graph, "--stats"),
        ("gnpq", "2", "1", "1", "3"),
        ("table", "--formula", "nope", "--n", "1"),
        ("table", "--formula", "thm3", "--n", "0"),
        ("--help",),
        ("table", "--formula", "thm3", "--n", "3"),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [run(argv) for argv in calls]
    assert [run(argv) for argv in calls] == first
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, "SystemExit(2)", 2, "SystemExit(0)", 0]
    assert "invalid choice: 'nope'" in first[5][2]
    assert first[7][1].startswith("usage: latin3")
    assert first[8][1] == "3 3 thm3 12\n"
    assert cli.build_parser() is cli.build_parser()


def test_commands_are_looked_up_on_every_call(capsys, monkeypatch):
    # the parser is built once, but a command bound to its cmd_ name later,
    # as the benchmark's span tracer does, still runs
    run_cli(capsys, "table", "--formula", "thm3", "--n", "1")
    seen = []

    def wrapped(name):
        real = getattr(cli, name)

        def call(args):
            seen.append(name)
            return real(args)
        return call

    for name in ("cmd_table", "cmd_gnpq"):
        monkeypatch.setattr(cli, name, wrapped(name))
    assert run_cli(capsys, "table", "--formula", "thm3", "--n", "3")[:2] == (0, "3 3 thm3 12\n")
    assert run_cli(capsys, "gnpq", "2", "1", "1", "3")[0] == 0
    assert seen == ["cmd_table", "cmd_gnpq"]


def test_parser_is_built_on_the_first_call_not_at_import(latin3_env):
    code = (
        "import latin3.cli as cli\n"
        "print(cli.build_parser.cache_info().currsize)\n"
        "cli.main(['table', '--formula', 'thm3', '--n', '1'])\n"
        "print(cli.build_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=latin3_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == ["0", "1 1 thm3 0", "1"]


# --- chromatic ----------------------------------------------------------------

def write_graph(tmp_path, text):
    target = tmp_path / "graph.txt"
    target.write_text(text)
    return str(target)


def test_chromatic_triangle(capsys, tmp_path):
    path = write_graph(tmp_path, "3\n0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, "chromatic", path)
    assert code == 0
    assert out == "degree=3\n0\n2\n-3\n1\n"


def test_chromatic_stats_go_to_stderr_only(capsys, tmp_path):
    g = build_gn(3)
    text = f"{g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
    path = write_graph(tmp_path, text)
    code, plain_out, plain_err = run_cli(capsys, "chromatic", path)
    assert (code, plain_err) == (0, "")
    code, out, err = run_cli(capsys, "chromatic", path, "--stats")
    assert code == 0
    assert out == plain_out
    assert err.count("\n") == 1
    want: dict = {}
    chromatic_poly(g, stats=want)
    assert json.loads(err) == want


def test_chromatic_edgeless(capsys, tmp_path):
    path = write_graph(tmp_path, "2\n")
    code, out, _ = run_cli(capsys, "chromatic", path)
    assert code == 0
    assert out == "degree=2\n0\n0\n1\n"


def test_chromatic_parse_error(capsys, tmp_path):
    path = write_graph(tmp_path, "3\n0 1 2\n")
    code, out, err = run_cli(capsys, "chromatic", path)
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_chromatic_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "chromatic", str(tmp_path / "nope.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_chromatic_vertex_ceiling_is_adjustable(capsys, tmp_path):
    path = write_graph(tmp_path, "15\n")
    code, _, _ = run_cli(capsys, "chromatic", path)
    assert code == 3
    code, out, _ = run_cli(capsys, "chromatic", path, "--max-vertices", "15")
    assert code == 0
    assert out.splitlines()[0] == "degree=15"


# --- gnpq ---------------------------------------------------------------------

def test_gnpq_deleted_rung(capsys):
    code, out, _ = run_cli(capsys, "gnpq", "1", "1", "0", "3")
    assert code == 0
    assert out == "closed-form: 12\nengine: 12\nEQUAL\n"


def test_gnpq_contracted_rung(capsys):
    code, out, _ = run_cli(capsys, "gnpq", "1", "0", "1", "3")
    assert code == 0
    assert out.splitlines()[-1] == "EQUAL"


def test_gnpq_below_n_symbols(capsys):
    code, out, _ = run_cli(capsys, "gnpq", "3", "1", "2", "2")
    assert code == 0
    assert out == "closed-form: 0\nengine: 0\nEQUAL\n"


def test_gnpq_partial_split_reports_engine_only(capsys):
    code, out, _ = run_cli(capsys, "gnpq", "2", "1", "0", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("closed-form: n/a")
    assert "p+q=1" in lines[0] and "n=2" in lines[0]
    assert lines[1] == "engine: 384"
    assert "EQUAL" not in out


@pytest.mark.parametrize("argv", [("3", "1", "2", "4"), ("3", "1", "0", "4")])
def test_gnpq_stats_go_to_stderr_only(capsys, argv):
    code, plain_out, plain_err = run_cli(capsys, "gnpq", *argv)
    assert (code, plain_err) == (0, "")
    code, out, err = run_cli(capsys, "gnpq", *argv, "--stats")
    assert code == 0
    assert out == plain_out
    assert err.count("\n") == 1
    want: dict = {}
    chromatic_poly(build_gnpq(*map(int, argv[:3])), stats=want)
    assert json.loads(err) == want


def test_gnpq_and_chromatic_stats_print_before_a_vertex_limit_error(capsys, tmp_path):
    # the search never starts, so every counter is printed at zero
    path = write_graph(tmp_path, "15\n")
    for argv in (("gnpq", "4", "0", "0", "5", "--max-vertices", "11"), ("chromatic", path)):
        code, out, err = run_cli(capsys, *argv, "--stats")
        assert code == 3
        assert out == ""
        counters, error = err.splitlines()
        assert json.loads(counters) == dict.fromkeys(STAT_NAMES, 0)
        assert error.startswith("error:") and "exceeding the limit" in error


def test_table_engine_stats_list_every_counter_before_a_vertex_limit_error(capsys):
    # G(5) has 15 vertices, past the default limit of 14
    code, out, err = run_cli(capsys, "table", "--formula", "engine", "--n", "5", "--stats")
    assert code == 3
    assert out == ""
    counters, error = err.splitlines()
    assert json.loads(counters) == dict.fromkeys(STAT_NAMES, 0)
    assert error == "error: graph has 15 vertices, exceeding the limit of 14"


def test_negative_max_vertices_is_an_argument_error(capsys, tmp_path):
    path = write_graph(tmp_path, "3\n0 1\n")
    for argv in (
        ("chromatic", path),
        ("gnpq", "2", "1", "0", "4"),
        ("table", "--formula", "engine", "--n", "2"),
    ):
        code, out, err = run_cli(capsys, *argv, "--max-vertices", "-1")
        assert code == 2, argv
        assert out == ""
        assert err == "error: max_vertices must be >= 0, got -1\n"


def test_gnpq_invalid_split(capsys):
    code, out, err = run_cli(capsys, "gnpq", "2", "2", "1", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [("2", "1", "0", "-1"), ("2", "1", "1", "-1")])
def test_gnpq_rejects_negative_lambda(capsys, argv):
    # both the partial split, which has no closed form, and the full one
    code, out, err = run_cli(capsys, "gnpq", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: lambda must be >= 0, got -1\n"


def test_gnpq_vertex_limit(capsys):
    code, _, _ = run_cli(capsys, "gnpq", "5", "0", "0", "5")
    assert code == 3
