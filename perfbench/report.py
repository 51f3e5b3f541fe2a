"""Run every workload once, traced, and print all end-to-end metrics with units.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--out FILE]

Each workload runs in its own process (run.py with ``--trace 1``), one after
the other. The first table shows the six end-to-end metrics in seconds, the
tail percentile with its sample count, the values digest, and the tracing
overhead; the second the op costs in reference units, which BENCHMARK.json
gates on (see run.py); the third the per-layer metrics that are not zero. With
``--out`` the summaries of all workloads go to FILE as JSON, without the spans
(run.py prints those).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
E2E = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
       ("error_rate", "failed/attempted"), ("peak_rss_mb", "MiB"))
REF = (("ops_per_kref", "1/kref"), ("op_p50_ref", "ref"), ("op_tail_ref", "ref"),
       ("reference_ms", "ms"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def run_workload(name: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-2].split(" ", 1)[1])
    summary["result"] = json.loads(lines[-1])
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    summaries = {}
    for name in names:
        summaries[name] = run_workload(name, args.seed, args.seconds)
        del summaries[name]["trace"]["spans"]

    print(f"{'workload':<9}" + "".join(f"{f'{m} [{u}]':>26}" for m, u in E2E)
          + "  tail  values_sha256     trace overhead")
    for name, s in summaries.items():
        trace = s["trace"]
        print(f"{name:<9}" + "".join(f"{s[m]:>26.6g}" for m, _ in E2E)
              + f"  p{s['op_tail_percentile']:.1f} of {s['latency_samples']}"
              + f"  {s['values_sha256'][:16]}  {trace['overhead_s']:.3f} s"
              + f" ({trace['traced_wall_s']:.3f} s traced, {trace['untraced_wall_s']:.3f} s untraced"
              + f", digests {'equal' if trace['values_sha256'] == s['values_sha256'] else 'DIFFER'})")
    print()
    print(f"{'workload':<9}" + "".join(f"{f'{m} [{u}]':>26}" for m, u in REF))
    for name, s in summaries.items():
        print(f"{name:<9}" + "".join(f"{s[m]:>26.6g}" for m, _ in REF))
    print()
    print(f"{'per-layer metric':<45}{'unit':>6}" + "".join(f"{n:>14}" for n in names))
    for metric in spec["per_layer"]:
        row = [summaries[n]["result"]["metrics"][metric["name"]]["value"] for n in names]
        if any(row):
            print(f"{metric['name']:<45}{metric['unit']:>6}" + "".join(f"{v:>14.6g}" for v in row))

    if args.out:
        args.out.write_text(json.dumps({
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": summaries,
        }, indent=1) + "\n")
    correct = all(s["result"]["correct"] for s in summaries.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
