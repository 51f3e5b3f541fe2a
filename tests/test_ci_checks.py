"""Tests for ci/checks.py: each check kind reports a seeded fault as FAIL
under the check's name, and the module refuses to run with asserts on."""

import subprocess
import sys
from math import factorial
from pathlib import Path

CI = Path(__file__).resolve().parent.parent / "ci"
sys.path.insert(0, str(CI))

import checks  # noqa: E402
from latin3.chromatic import Poly  # noqa: E402
from latin3.errors import BudgetExceededError  # noqa: E402
from latin3.formulas import g_npq_closed, riordan_l3, thm3_g  # noqa: E402

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
    pin = '{"nodes": 28, "memo_hits": 3, "memo_misses": 13, "simplicial": 79, "deletion": 0, "addition": 13}'
    log = fails(("G(4,2,2) counters", (checks.counters, "gnpq 4 2 2 4", pin)), capsys)
    assert '"nodes": 27,' in log


def test_counters_with_wrong_output_fail(capsys):
    assert checks.run([("exact", (checks.counters, BRUTE_23, '{"nodes": 174}', "2 3 brute 12\n"))]) == []
    capsys.readouterr()
    log = fails(("Brute counters", (checks.counters, BRUTE_23, '{"nodes": 174}', "2 3 brute 13\n")), capsys)
    assert "stdout '2 3 brute 12\\n'" in log


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


def test_a_run_that_keeps_every_polynomial_fails_the_memory_row(monkeypatch, capsys):
    # the whole run's part sees reduction-identity's children kept again; the
    # oracle checks' part, which computes no polynomial, still passes
    poly = checks.verify._Run.poly
    monkeypatch.setattr(checks.verify._Run, "poly", lambda run, g, keep=True: poly(run, g))
    assert checks.run([("oracle checks", (checks.memory, 1024, "derangement-oracle", "latin-bridge"))]) == []
    capsys.readouterr()
    log = fails(("Verify memory", (checks.memory, 640)), capsys)
    assert "the whole run peaked at " in log and " KiB, not under 640 KiB" in log


def row(name):
    return next(r for r in checks.CHECKS if r[0] == name)


def bump_lambda5(monkeypatch, graph):
    """Make checks.gnpq_poly add 1 to the lambda^5 coefficient of G(n,p,q)
    for the triple graph; return the engine's own polynomials."""
    real = checks.gnpq_poly

    def off(n, p, q):
        c = list(real(n, p, q).coefficients)
        c[5] += (n, p, q) == graph
        return Poly.of(c)

    monkeypatch.setattr(checks, "gnpq_poly", off)
    return real


def test_an_engine_coefficient_off_by_one_fails_the_gn_row(monkeypatch, capsys):
    # the row's own kind and routes, on its G(7) cells alone
    name, (kind, cells, routes) = row("Engine grounds G(n) to n = 9")
    bump_lambda5(monkeypatch, (7, 0, 0))
    log = fails((name, (kind, [cell for cell in cells if cell[0] == 7], routes)), capsys)
    # lambda^5 adds 7^5 at the first cell
    assert f"at (7, 7): engine {thm3_g(7, 7) + 7**5}, thm3_g {thm3_g(7, 7)}" in log


def test_a_g712_coefficient_off_by_one_fails_both_gnpq_parts(monkeypatch, capsys):
    # each part alone, with its own kind and routes: the closed-form part on
    # G(7,1,2)'s cells, and Theorem 2 at n = 7, where G(7,1,2) first enters
    # at m = 3 with weight C(3, 2) = 3
    name, (kind, cells, routes), (sum_kind, sums, sum_routes) = row(
        "Engine grounds G(n,p,q) and Theorem 2 to n = 7"
    )
    real = bump_lambda5(monkeypatch, (7, 1, 2))
    log = fails((name, (kind, [cell for cell in cells if cell[:3] == (7, 1, 2)], routes)), capsys)
    want = g_npq_closed(7, 1, 2, 7)
    assert f"at (7, 1, 2, 7): engine {want + 7**5}, g_npq_closed {want}" in log
    log = fails((name, (sum_kind, [cell for cell in sums if cell[0] == 7], sum_routes)), capsys)
    gn = real(7, 0, 0)
    c = list(gn.coefficients)
    c[5] += 3
    assert f"at (7, 3): Theorem 2's sum {Poly.of(c)}, P(G(n)) {gn}" in log


def test_a_wrong_pinned_count_at_9_fails_the_oracle_row(monkeypatch, capsys):
    real = checks.count_latin
    monkeypatch.setattr(
        checks, "count_latin", lambda n, lam, pinned: real(n, lam, pinned) + ((n, lam) == (9, 9))
    )
    log = fails(row("Pinned oracle past brute force's reach"), capsys)
    assert f"at (9, 9): falling(lambda, n) * pinned {thm3_g(9, 9) + factorial(9)}, thm3_g {thm3_g(9, 9)}" in log


def test_a_lost_completion_fails_the_mid_search_state_budget_part(monkeypatch, capsys):
    # the row's mid-search part alone, against a search whose budget error
    # reports one rectangle too few
    name, *parts = row("Oracle state budget")
    real = checks.cli.count_latin

    def short(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except BudgetExceededError as exc:
            head, _, tail = str(exc).rpartition("completed ")
            raise BudgetExceededError(f"{head}completed {int(tail.split()[0]) - 1} rectangles") from None

    monkeypatch.setattr(checks.cli, "count_latin", short)
    log = fails((name, parts[-1]), capsys)
    assert "budget 5000: exit 3" in log and "visited 5001 nodes, completed 863562 rectangles" in log
