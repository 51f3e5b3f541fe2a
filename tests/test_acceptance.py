"""Acceptance gate: the nine cross-checks that certify the library end to end.

Criteria 1-8 are checks of ``latin3.verify``'s registry, run once at
n_max = GATE_N_MAX.  A criterion passes when every check behind it passed
and checked at least the cells ``CRITERIA`` lists, so a narrowed grid fails
it as a wrong value does.  Criterion 9 runs the CLI twice per command.  Every criterion is
exact.  Each test prints one machine-greppable status line of the form

    ACCEPTANCE <criterion>: PASS|FAIL

directly to the real stdout so the verdicts survive pytest's capture, then
fails loudly with the first offending check if anything disagreed.
"""

import subprocess
import sys

import pytest

from latin3.verify import run_verify

GATE_N_MAX = 6

# criterion -> {verify check behind it: the fewest cells it may check at GATE_N_MAX}
CRITERIA = {
    "formula-equivalence": {"formula-equivalence": 95},
    "engine-grounding": {"surgery-closed-form": 207},
    "surgery-grounding": {"surgery-closed-form": 207},
    "theorem2-identity": {"theorem2-m-invariance": 68},
    "reduction-identity": {"reduction-identity": 284},
    "derangement-grounding": {"derangement-oracle": 209},
    "latin-bridge": {"latin-bridge": 20},
    "riordan-consistency": {"latin-bridge": 20, "formula-equivalence": 95},
}


@pytest.fixture
def check(capfd):
    """Emit the status line outside pytest's capture, then assert."""

    def _check(criterion: str, failures: list) -> None:
        status = "FAIL" if failures else "PASS"
        with capfd.disabled():
            print(f"ACCEPTANCE {criterion}: {status}", flush=True)
        assert not failures, failures[0]

    return _check


@pytest.fixture(scope="module")
def gate_results():
    return {r.name: r for r in run_verify(n_max=GATE_N_MAX)}


@pytest.fixture
def criterion(check, gate_results):
    """Judge one criterion by the verify checks behind it."""

    def _criterion(name: str) -> None:
        failures = []
        for check_name, min_cells in CRITERIA[name].items():
            result = gate_results[check_name]
            if not result.passed:
                failures.append(f"{check_name}: {result.detail}")
            elif result.cells < min_cells:
                failures.append(f"{check_name}: {result.cells} cells, want >= {min_cells}")
        check(name, failures)

    return _criterion


def test_01_formula_equivalence(criterion):
    criterion("formula-equivalence")


def test_02_engine_grounding(criterion):
    criterion("engine-grounding")


def test_03_surgery_grounding(criterion):
    criterion("surgery-grounding")


def test_04_theorem2_identity(criterion):
    criterion("theorem2-identity")


def test_05_reduction_identity(criterion):
    criterion("reduction-identity")


def test_06_derangement_grounding(criterion):
    criterion("derangement-grounding")


def test_07_latin_bridge(criterion):
    criterion("latin-bridge")


def test_08_riordan_consistency(criterion):
    criterion("riordan-consistency")


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
