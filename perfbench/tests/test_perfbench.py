"""Tests for the benchmark's own code: tracer, digest, seeding, checker and exit."""

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import latin3  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SQUARE = workloads.WORKLOADS["square"]


def _bindings():
    return {
        (module.__name__, attr): obj
        for module in run.latin3_modules()
        for attr, obj in vars(module).items()
    }


def test_tracer_restores_every_patched_name():
    before = _bindings()
    with Tracer(run.latin3_modules()) as tracer:
        # formulas binds the combinatorics primitives in its own namespace.
        assert latin3.formulas.binom is not before["latin3.formulas", "binom"]
        assert latin3.combinatorics.binom is not before["latin3.combinatorics", "binom"]
        assert latin3.thm3_g is not before["latin3", "thm3_g"]
        with tracer.op(0):
            SQUARE.op((11,))
    assert tracer.layers()["combinatorics.binom"]["calls"] > 0
    run.traced_pass(SQUARE, [(11,), (12,)])  # enters and leaves once per op
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, obj in before.items() if after[key] is not obj] == []


def test_tracer_restores_names_when_an_op_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer(run.latin3_modules()) as tracer, tracer.op(0):
            latin3.thm3_g(0, 0)
    assert all(_bindings()[key] is obj for key, obj in before.items())


def test_self_times_add_up_to_no_more_than_wall_time():
    inputs = [(11,), (16,), (20,)]
    start = time.perf_counter()
    _, failures, _, traced_wall, tracer = run.traced_pass(SQUARE, inputs)
    wall = time.perf_counter() - start
    assert failures == []
    spans = tracer.spans()
    assert all(s["self_s"] >= 0 for s in spans)
    assert sum(s["self_s"] for s in spans) <= traced_wall <= wall
    for layer in tracer.layers().values():
        assert layer["self_s"] <= layer["total_s"] <= wall
    derangement = tracer.layers()["combinatorics.gen_derangement"]
    assert 0 < derangement["distinct_frac"] <= 1


def test_same_seed_gives_same_inputs_and_digest():
    for workload in workloads.WORKLOADS.values():
        rounds = workloads.make_rounds(workload, 7, 2)
        assert rounds == workloads.make_rounds(workload, 7, 2)
        assert rounds != workloads.make_rounds(workload, 8, 2)
        assert rounds[0] != rounds[1]
    inputs = [inp for inp in workloads.make_rounds(SQUARE, 7, 1)[0] if inp[0] <= 20]
    digest = workloads.values_digest(SQUARE.op(inp) for inp in inputs)
    assert digest == workloads.values_digest(SQUARE.op(inp) for inp in inputs)
    traced, _, _, _, _ = run.traced_pass(SQUARE, inputs)
    assert workloads.values_digest(traced) == digest
    assert workloads.values_digest([(1, (2,))]) != workloads.values_digest([((1, 2),)])
    assert workloads.values_digest([(1, 2)]) != workloads.values_digest([(258,)])
    assert workloads.values_digest([None]) != workloads.values_digest([()])


def _corrupt_first(values):
    return (values[0] + 1,) + values[1:]


@pytest.mark.parametrize("workload, inputs", [
    ("square", [(11,), (12,)]),
    ("wide", [(2, 1000), (3, 1200)]),
    ("engine", [("gnpq", (2, 1, 1), (2, 5)), ("random", latin3.complete(4), (3,))]),
])
def test_corrupted_value_counts_as_failed_op(workload, inputs):
    good = workloads.WORKLOADS[workload]
    bad = dataclasses.replace(good, op=lambda inp: _corrupt_first(good.op(inp)))
    assert run.end_to_end(run.measure(good, [inputs]), 0.1)["error_rate"] == 0
    m = run.measure(bad, [inputs])
    assert (m.attempted, len(m.failures)) == (2, 2)
    assert run.end_to_end(m, 0.1)["error_rate"] == 1.0


def test_raising_op_counts_as_failed_op():
    bad = dataclasses.replace(SQUARE, op=lambda inp: latin3.thm3_g(0, 0))
    m = run.measure(bad, [[(11,)]])
    assert len(m.failures) == 1 and m.results == [None]


def test_cli_ops_check_exit_code_and_table_values():
    verify = workloads.WORKLOADS["verify"]
    argv = ("table", "--formula", "latin-oracle", "--n", "1..2", "--lambda-offset", "0..1",
            "--format", "json")
    ok = ("table", argv, ((1, 1), (1, 2), (2, 2), (2, 3)))
    assert verify.check(ok, verify.op(ok)) is None
    missing = ("table", argv, ok[2] + ((2, 4),))
    assert verify.check(missing, verify.op(missing)) is not None
    bad_argv = ("table", argv[:3] + ("--n", "0"), ())
    assert verify.check(bad_argv, verify.op(bad_argv)) == "table --formula latin-oracle --n 0: exit code 2"


def test_costs_divide_by_the_median_reference_around_each_op():
    m = run.Measurement(latencies=[2.0, 6.0], refs=[1.0, 2.0, 4.0])
    assert m.costs == [1.0, 3.0]


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(30)]
    assert run.tail(latencies) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "square", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
