"""Acceptance gate: the nine cross-checks that certify the library end to end.

Every criterion is exact (integer equality, zero tolerance).  Each test prints
one machine-greppable status line of the form

    ACCEPTANCE <criterion>: PASS|FAIL

directly to the real stdout so the verdicts survive pytest's capture, then
fails loudly with the first offending cell if anything disagreed.
"""

import subprocess
import sys
from functools import lru_cache

import pytest

from latin3.chromatic import chromatic_poly, eval_poly
from latin3.combinatorics import factorial, gen_derangement
from latin3.formulas import aps_g, g_npq_closed, riordan_l3, theorem2_sum, thm3_g
from latin3.graphs import build_gn, build_gnpq, delete_edge, identify
from latin3.oracle import count_injections_forbidden, count_latin
from latin3.verify import DEFAULT_SEED, random_graphs


@pytest.fixture
def check(capfd):
    """Emit the status line outside pytest's capture, then assert."""

    def _check(criterion: str, failures: list) -> None:
        status = "FAIL" if failures else "PASS"
        with capfd.disabled():
            print(f"ACCEPTANCE {criterion}: {status}", flush=True)
        assert not failures, failures[0]

    return _check


@lru_cache(maxsize=None)
def gn_poly(n: int):
    return chromatic_poly(build_gn(n))


def test_01_formula_equivalence(check):
    failures = []
    for n in range(1, 7):
        for lam in range(n, n + 5):
            a, b = thm3_g(n, lam), aps_g(n, lam)
            if a != b:
                failures.append(f"(n={n}, lam={lam}): thm3 {a} != aps {b}")
    check("formula-equivalence", failures)


def test_02_engine_grounding(check):
    cells = [(n, lam) for n in (1, 2, 3) for lam in range(n, n + 4)]
    cells += [(4, 4), (4, 5)]
    failures = []
    for n, lam in cells:
        engine = eval_poly(gn_poly(n), lam)
        for name, value in (("thm3", thm3_g(n, lam)), ("aps", aps_g(n, lam))):
            if engine != value:
                failures.append(
                    f"(n={n}, lam={lam}): engine {engine} != {name} {value}"
                )
    check("engine-grounding", failures)


def test_03_surgery_grounding(check):
    failures = []
    if g_npq_closed(1, 1, 0, 3) != 12:
        failures.append("g(1,1,0,3) != 12 (path on 3 vertices at 3 colors)")
    if g_npq_closed(1, 0, 1, 3) != 6:
        failures.append("g(1,0,1,3) != 6 (single edge at 3 colors)")
    for n in range(1, 4):
        for k in range(n + 1):
            l = n - k
            poly = chromatic_poly(build_gnpq(n, k, l))
            for lam in range(n, 7):
                closed = g_npq_closed(n, k, l, lam)
                engine = eval_poly(poly, lam)
                if closed != engine:
                    failures.append(
                        f"g({n},{k},{l},{lam}): closed {closed} != engine {engine}"
                    )
    check("surgery-grounding", failures)


def test_04_theorem2_identity(check):
    def engine_eval(n, p, q, lam):
        return eval_poly(chromatic_poly(build_gnpq(n, p, q)), lam)

    failures = []
    for n in range(1, 4):
        for lam in range(1, 7):
            reference = eval_poly(gn_poly(n), lam)
            for m in range(1, n + 1):
                total = theorem2_sum(n, m, lam, engine_eval)
                if total != reference:
                    failures.append(
                        f"(n={n}, m={m}, lam={lam}): sum {total} != engine {reference}"
                    )
    check("theorem2-identity", failures)


def test_05_reduction_identity(check):
    graphs = random_graphs(DEFAULT_SEED)
    assert len(graphs) == 50
    failures = []
    for i, g in enumerate(graphs):
        p = chromatic_poly(g)
        for u, v in sorted(g.edges):
            deleted = chromatic_poly(delete_edge(g, u, v))
            contracted = chromatic_poly(identify(g, u, v))
            if p != deleted - contracted:
                failures.append(f"graph #{i} ({g.vertex_count}v), edge ({u},{v})")
    check("reduction-identity", failures)


def test_06_derangement_grounding(check):
    failures = []
    cells = 0
    for lam in range(8):
        for n in range(lam + 1):
            for t in range(n + 1):
                cells += 1
                closed = gen_derangement(lam, n, t)
                oracle = count_injections_forbidden(lam, n, t)
                if closed != oracle:
                    failures.append(
                        f"D({lam},{n},{t}): closed {closed} != oracle {oracle}"
                    )
    if cells != 120:
        failures.append(f"expected 120 grid cells, visited {cells}")
    check("derangement-grounding", failures)


def test_07_latin_bridge(check):
    cells = [(n, lam) for n in range(1, 4) for lam in range(n, 7)]
    cells += [(4, 4), (4, 5)]
    failures = []
    for n, lam in cells:
        counted = count_latin(n, lam)
        closed = thm3_g(n, lam)
        if counted != closed:
            failures.append(f"(n={n}, lam={lam}): oracle {counted} != thm3 {closed}")
    for n in (3, 4):
        free = count_latin(n, n)
        pinned = count_latin(n, n, fixed_first_row=True)
        if free != factorial(n) * pinned:
            failures.append(f"n={n}: {free} != {n}! * {pinned}")
    check("latin-bridge", failures)


def test_08_riordan_consistency(check):
    failures = []
    for n in (3, 4):
        direct = riordan_l3(n)
        oracle = count_latin(n, n, fixed_first_row=True)
        if direct != oracle:
            failures.append(f"n={n}: riordan {direct} != enumeration {oracle}")
    for n in range(3, 21):
        lhs = factorial(n) * riordan_l3(n)
        rhs = thm3_g(n, n)
        if lhs != rhs:
            failures.append(f"n={n}: n!*riordan {lhs} != thm3 {rhs}")
    check("riordan-consistency", failures)


def test_09_determinism(check, latin3_env):
    commands = [
        ("verify", "--n-max", "2"),
        ("table", "--formula", "thm3", "--n", "1..4",
         "--lambda-offset", "0..2", "--format", "csv"),
        ("table", "--formula", "riordan", "--n", "1..6", "--format", "json"),
    ]
    failures = []
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "latin3", *argv],
                capture_output=True,
                check=False,
                env=latin3_env,
            )
            for _ in range(2)
        ]
        if any(r.returncode != 0 for r in runs):
            failures.append(f"{argv}: nonzero exit {[r.returncode for r in runs]}")
        elif runs[0].stdout != runs[1].stdout:
            failures.append(f"{argv}: stdout differs between runs")
    check("determinism", failures)
