"""Tests for ci/checks.py: each check kind reports a seeded fault as FAIL
under the check's name, and the module refuses to run with asserts on."""

import subprocess
import sys
from pathlib import Path

CI = Path(__file__).resolve().parent.parent / "ci"
sys.path.insert(0, str(CI))

import checks  # noqa: E402
from latin3.formulas import riordan_l3  # noqa: E402

BRUTE_23 = "table --formula brute --n 2 --lambda 3"


def fails(row, capsys):
    """Run one check row; it must fail under its own name.  Returns the log."""
    assert checks.run([row]) == [row[0]]
    log = capsys.readouterr().out
    assert log.startswith(f"FAIL {row[0]} ")
    return log


def test_wrong_digest_fails(capsys):
    stream = ([(n,) for n in range(1, 5)], riordan_l3)
    log = fails(("Riordan digest", (checks.digest, "0" * 64, stream)), capsys)
    assert "pinned " + "0" * 64 in log


def test_counter_off_by_one_fails(capsys):
    pin = '{"nodes": 28, "memo_hits": 3, "memo_misses": 13, "components": 0, "cycle": 0, "simplicial": 79, "deletion": 0, "addition": 13}'
    log = fails(("G(4,2,2) counters", (checks.counters, "gnpq 4 2 2 4", pin)), capsys)
    assert '"nodes": 27,' in log


def test_budget_with_wrong_node_count_fails(capsys):
    assert checks.run([("exact", (checks.budget, BRUTE_23, 174, "12 colorings", "2 3 brute 12"))]) == []
    capsys.readouterr()
    log = fails(("Brute budget", (checks.budget, BRUTE_23, 175, "12 colorings", "2 3 brute 12")), capsys)
    assert "budget 174: exit 0" in log


def test_routes_that_differ_on_one_cell_fail(monkeypatch, capsys):
    aps_g = checks.cli.aps_g
    monkeypatch.setattr(checks.cli, "aps_g", lambda n, lam: aps_g(n, lam) + ((n, lam) == (2, 3)))
    row = ("thm3 against aps", (checks.tables, 9, "--n 1..3 --lambda-offset 0..2", "thm3", "aps"))
    log = fails(row, capsys)
    assert "at (4,): thm3 ('2', '3', '12'), aps ('2', '3', '13')" in log


def test_wrong_output_text_fails(capsys):
    log = fails(("riordan row", (checks.output, "table --formula riordan --n 3", "3 3 riordan 3\n")), capsys)
    assert "stdout '3 3 riordan 2\\n'" in log


def test_a_crashing_check_fails_and_the_rest_still_run(capsys):
    rows = [("crash", (divmod, 1, 0)), ("riordan row", (checks.output, "table --formula riordan --n 3", "3 3 riordan 2\n"))]
    assert checks.run(rows) == ["crash"]
    log = capsys.readouterr().out
    assert log.startswith("FAIL crash ") and "ZeroDivisionError" in log and "\nPASS riordan row " in log


def test_refuses_to_run_with_asserts_on():
    result = subprocess.run([sys.executable, str(CI / "checks.py")], capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
    assert "python -O ci/checks.py" in result.stderr
