"""End-to-end tests for the latin3 command-line interface."""

import json
import subprocess
import sys

import pytest

from latin3.chromatic import chromatic_poly, eval_poly
from latin3.cli import main
from latin3.graphs import build_gn


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
    for formula in ("aps", "thm3", "engine"):
        code, out, _ = run_cli(
            capsys, "table", "--formula", formula, "--n", "3", "--lambda", "0..4",
        )
        assert code == 0
        rows[formula] = [
            (n, lam, value) for n, lam, _, value in map(str.split, out.splitlines())
        ]
    assert rows["aps"] == rows["thm3"] == rows["engine"]
    assert [value for _, _, value in rows["engine"]] == ["0", "0", "0", "12", "1056"]


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


def test_table_brute_node_budget(capsys):
    code, _, err = run_cli(
        capsys,
        "table", "--formula", "brute", "--n", "2", "--lambda", "4",
        "--node-budget", "10",
    )
    assert code == 3
    assert "budget" in err.lower()


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


def test_gnpq_invalid_split(capsys):
    code, out, err = run_cli(capsys, "gnpq", "2", "2", "1", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_gnpq_vertex_limit(capsys):
    code, _, _ = run_cli(capsys, "gnpq", "5", "0", "0", "5")
    assert code == 3
