"""Run one latin3 benchmark workload and print its metrics.

    python3 perfbench/run.py --workload square --seed 1 --seconds 20 --trace 0

Run from anywhere in a checkout: the package is imported from the checkout's
``src`` directory, and the run fails (exit code 2, no result) without it.

One process runs one workload as a closed loop with a single caller: the next
op starts only when the previous one has finished and been checked. After an
untimed warm-up, a fixed number of whole rounds is timed: ``--seconds``
divided by the workload's ``round_s``, the time one round took when the
benchmark was defined (at least MIN_ROUNDS). A run therefore times the same
ops on every commit and at every machine speed, so the tail latency is always
taken at the same percentile. ``setup_s`` is the median over SETUP_PROBES
fresh interpreters of the time from process start until latin3 is imported
and the inputs are generated.

Every op is timed in seconds (``ops_per_s``, ``op_p50_ms``, ``op_tail_ms``)
and also in reference units (``ops_per_kref``, ``op_p50_ref``,
``op_tail_ref``): after each op the loop times a fixed stdlib computation, and
an op's cost is its latency divided by the median reference time around it.
The speed of a shared machine drifts by up to a factor of two within minutes;
both kinds of figure are printed, and BENCHMARK.json gates on the reference
units, which that drift does not move.

``values_sha256`` hashes every integer the ops of the first round compute, in
op order. A program change that keeps the results exact keeps the digest.

With ``--trace 1`` the first round is run once more, each op untraced and then
with every public latin3 function wrapped (see tracer.py). The per-layer
metrics come from the traced ops, their digest must equal the untraced one,
and ``trace.overhead_s`` is their wall time minus that of the untraced ops.

The next-to-last stdout line is ``perfbench-summary <json>`` with every figure
of the run, the traced spans included; the last line is the result object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUMMARY_TAG = "perfbench-summary"

SETUP_PROBES = 7
WARMUP_S = 2.0
MIN_ROUNDS = 2
TAIL_BEYOND = 10  # the tail latency has at least this many samples above it
REFERENCE_MODULUS = 10**400
REFERENCE_BIG = 7**4000
REFERENCE_KEYS = 300  # tuple keys the dictionary half of the reference builds and sorts
REF_WINDOW = 1  # an op's cost uses the median reference of the 2*REF_WINDOW+2 timed around it


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)  # values per op, None if the op raised
    failures: list[str] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference seconds before each op and after the last
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def costs(self) -> list[float]:
        """Each op's latency in units of the reference time around it: the
        median of the two references before the op and the two after it, so
        one noisy reference moves nothing."""
        return [
            lat / statistics.median(self.refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 2])
            for i, lat in enumerate(self.latencies)
        ]


def reference_seconds() -> float:
    """Time one call of a fixed stdlib computation.

    It mixes Python-level loops over small big integers with one product and
    quotient of large ones, as the closed forms do, and builds, looks up and
    sorts tuple keys of a dictionary, as the engine's memo and the oracle do.
    It runs no latin3 code, so no change to the program can move it. Timed
    next to every op, it measures how fast the machine is at that moment: on
    a shared machine that speed drifts by a factor of two within minutes, and
    integer arithmetic and dictionary work drift by different amounts, so the
    reference has both and dividing by it removes most of the drift from the
    op costs.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(1, 200):
        acc += math.comb(200 + i, 50) * math.perm(100, i % 40) // (i + 1)
        acc %= REFERENCE_MODULUS
    acc = REFERENCE_BIG * (REFERENCE_BIG + acc) // (REFERENCE_BIG - 1)
    memo: dict[tuple[int, ...], int] = {}
    for i in range(1, REFERENCE_KEYS):
        key = tuple((i * 2654435761 >> shift) & 4095 for shift in (0, 5, 10, 15, 20, 25))
        memo[key] = memo.get(key[::-1], acc & 1) + key[0]
    for key in sorted(memo):
        acc += memo[key]
    return time.perf_counter() - start


def run_op(workload, inp) -> tuple[Optional[tuple], Optional[str], float]:
    """One closed-loop op: compute, then check. Returns (values, failure, seconds)."""
    start = time.perf_counter()
    try:
        values = workload.op(inp)
        failure = workload.check(inp, values)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        values, failure = None, f"{inp!r}: {type(exc).__name__}: {exc}"
    return values, failure, time.perf_counter() - start


def round_count(workload, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def measure(workload, rounds: list[list]) -> Measurement:
    """Run every round, timing each op and the reference after it."""
    m = Measurement(refs=[reference_seconds()])
    start = time.perf_counter()
    for inp in itertools.chain.from_iterable(rounds):
        values, failure, seconds_taken = run_op(workload, inp)
        m.latencies.append(seconds_taken)
        m.refs.append(reference_seconds())
        m.results.append(values)
        if failure is not None:
            m.failures.append(failure)
    m.wall_s = time.perf_counter() - start
    return m


def warm_up(workload, inputs: list) -> None:
    """Untimed ops until WARMUP_S have passed, so caches and clocks settle."""
    start = time.perf_counter()
    for inp in inputs:
        run_op(workload, inp)
        if time.perf_counter() - start >= WARMUP_S:
            break


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    """The six end-to-end metrics in seconds, plus op costs in reference units."""
    ok = m.attempted - len(m.failures)
    costs = m.costs
    return {
        "setup_s": setup_s,
        "ops_per_s": ok / sum(m.latencies),
        "op_p50_ms": statistics.median(m.latencies) * 1e3,
        "op_tail_ms": tail(m.latencies)[0] * 1e3,
        "error_rate": len(m.failures) / m.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_kref": 1e3 * ok / sum(costs),
        "op_p50_ref": statistics.median(costs),
        "op_tail_ref": tail(costs)[0],
        "reference_ms": statistics.median(m.refs) * 1e3,
    }


def setup_probe_seconds(args: argparse.Namespace) -> float:
    """Spawn a fresh interpreter that sets up and reports when it is ready."""
    start = time.monotonic_ns()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return (int(out.split()[-1]) - start) / 1e9


def import_program():
    """Import latin3 from this checkout's src, or exit 2 if it is not there."""
    if not (SRC / "latin3" / "__init__.py").is_file():
        print(f"perfbench: no latin3 package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import latin3
    import workloads

    if Path(latin3.__file__).resolve().parent != SRC / "latin3":
        print(f"perfbench: imported latin3 from {latin3.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def latin3_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "latin3" or name.startswith("latin3.")]


def traced_pass(workload, inputs: list) -> tuple[list, list[str], float, float, Tracer]:
    """Run each op untraced, then traced, so machine speed drifts alike for both.

    Returns the traced values, the traced failures, the untraced and traced
    wall times, and the tracer.
    """
    results, failures, untraced_wall = [], [], 0.0
    tracer = Tracer(latin3_modules())
    for i, inp in enumerate(inputs):
        untraced_wall += run_op(workload, inp)[2]
        with tracer, tracer.op(i):
            values, failure, _ = run_op(workload, inp)
        results.append(values)
        if failure is not None:
            failures.append(failure)
    traced_wall = sum(r["end"] - r["start"] for r in tracer.roots)
    return results, failures, untraced_wall, traced_wall, tracer


def per_layer_value(name: str, layers: dict, overhead_s: float) -> float:
    if name == "trace.overhead_s":
        return overhead_s
    layer, _, stat = name.rpartition(".")
    return layers.get(layer, {}).get(stat, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    rounds = workloads.make_rounds(workload, args.seed, round_count(workload, args.seconds))
    if args.setup_probe:
        print(time.monotonic_ns())
        return 0
    setup = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    warm_up(workload, workloads.warmup_round(workload, args.seed))
    m = measure(workload, rounds)
    first = len(rounds[0])
    e2e = end_to_end(m, statistics.median(setup))
    _, tail_pct, tail_beyond = tail(m.latencies)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "wall_s": m.wall_s,
        "attempted": m.attempted,
        "failed": len(m.failures),
        **e2e,
        "setup_samples_s": setup,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "latency_samples": m.attempted,
        "values_sha256": workloads.values_digest(m.results[:first]),
        "digest_ops": first,
    }
    attempted, failures = m.attempted, list(m.failures)
    correct = not failures

    if args.trace:
        results, traced_failures, untraced_wall, traced_wall, tracer = traced_pass(workload, rounds[0])
        overhead = traced_wall - untraced_wall
        traced_digest = workloads.values_digest(results)
        attempted += len(results)
        failures += traced_failures
        if traced_digest != summary["values_sha256"]:
            print("perfbench: traced and untraced values_sha256 differ", file=sys.stderr)
        correct = not failures and traced_digest == summary["values_sha256"]
        layers = tracer.layers()
        summary["trace"] = {
            "values_sha256": traced_digest,
            "ops": len(results),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "overhead_s": overhead,
            "layers": layers,
            "spans": tracer.spans(),
        }
        metrics = {
            mt["name"]: {"value": per_layer_value(mt["name"], layers, overhead), "unit": mt["unit"]}
            for mt in spec["per_layer"]
        }
    else:
        metrics = {mt["name"]: {"value": e2e[mt["name"]], "unit": mt["unit"]} for mt in spec["end_to_end"]}

    for failure in failures[:5]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(SUMMARY_TAG, json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
