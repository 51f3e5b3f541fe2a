"""The four benchmark workloads: seeded inputs, one op per input, and its check.

An op calls the latin3 package through attributes looked up at call time
(``latin3.thm3_g``, ``latin3.cli.main``), so the tracer's patches apply to it.
It returns every integer it computed, grouped in tuples. ``check`` compares
those integers without calling the package, so a wrong value from any route
fails the op.

Inputs come in rounds. Every round of a workload has the same composition
(the same strata of n, lambda and graph kind), and the seed draws the values
inside each stratum and the order (the verify command's own seed is fixed per
round, see VERIFY_SEED). Whole rounds therefore cost about the same whatever
the seed, which is what keeps the figures steady between seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import latin3
import latin3.cli
import latin3.verify

Input = tuple
Values = tuple


@dataclass(frozen=True)
class Workload:
    name: str
    round_s: float  # seconds one round took when the benchmark was defined
    make_round: Callable[[random.Random, int], list[Input]]  # (rng, round index)
    op: Callable[[Input], Values]
    check: Callable[[Input, Values], Optional[str]]


def make_rounds(workload: Workload, seed: int, count: int) -> list[list[Input]]:
    """The first ``count`` rounds of inputs; the same seed gives the same rounds."""
    return [
        workload.make_round(random.Random(f"{workload.name}:{seed}:{k}"), k)
        for k in range(count)
    ]


def warmup_round(workload: Workload, seed: int) -> list[Input]:
    """A round drawn apart from the timed ones, for the untimed warm-up."""
    return workload.make_round(random.Random(f"{workload.name}:{seed}:warmup"), -1)


def values_digest(results: Iterable[Optional[Values]]) -> str:
    """sha256 over every integer of every op, in op order; None marks a raised op."""
    h = hashlib.sha256()

    def feed(v: Any) -> None:
        if isinstance(v, int):
            b = v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True)
            h.update(len(b).to_bytes(4, "big") + b)
        else:
            h.update(b"(")
            for x in v:
                feed(x)
            h.update(b")")

    for values in results:
        if values is None:
            h.update(b"!")
        else:
            feed(values)
    return h.hexdigest()


def _horner(coefficients: tuple[int, ...], lam: int) -> int:
    acc = 0
    for c in reversed(coefficients):
        acc = acc * lam + c
    return acc


# --- square: lambda = n, the closed forms at their most expensive -----------


def _square_round(rng: random.Random, _index: int) -> list[Input]:
    # One n from each width-2 stratum of 10..51; with an odd number of strata
    # the median latency falls inside the middle one.
    ns = [10 + 2 * i + rng.randrange(2) for i in range(21)]
    rng.shuffle(ns)
    return [(n,) for n in ns]


def _square_op(inp: Input) -> Values:
    (n,) = inp
    return (latin3.thm3_g(n, n), latin3.aps_g(n, n), latin3.riordan_l3(n))


def _square_check(inp: Input, values: Values) -> Optional[str]:
    (n,) = inp
    thm3, aps, riordan = values
    if thm3 == aps == math.factorial(n) * riordan:
        return None
    return f"g({n},{n}): thm3={thm3} aps={aps} n!*riordan={math.factorial(n) * riordan}"


# --- wide: small n, huge lambda ----------------------------------------------

WIDE_STRATA = 5


def _wide_round(rng: random.Random, _index: int) -> list[Input]:
    # lambda from the middle fifth of each of five log-spaced strata of
    # 10^3..2*10^4; a wider band lets the draws move the tail latency.
    cells = [
        (n, round(1000 * 20 ** ((j + rng.uniform(0.4, 0.6)) / WIDE_STRATA)))
        for n in range(1, 7)
        for j in range(WIDE_STRATA)
    ]
    rng.shuffle(cells)
    return cells


def _wide_op(inp: Input) -> Values:
    n, lam = inp
    return (latin3.aps_g(n, lam), latin3.thm3_g(n, lam))


def _wide_check(inp: Input, values: Values) -> Optional[str]:
    n, lam = inp
    aps, thm3 = values
    return None if aps == thm3 else f"g({n},{lam}): aps={aps} thm3={thm3}"


# --- engine: chromatic polynomials against an independent route --------------


def _random_graph(rng: random.Random, vertices: int, density: float) -> latin3.Graph:
    # A fixed edge count per (vertices, density) keeps the cost of a draw close
    # to its stratum's; the seed draws which edges.
    pairs = [(a, b) for a in range(vertices) for b in range(a + 1, vertices)]
    return latin3.Graph.from_edges(vertices, rng.sample(pairs, round(density * len(pairs))))


# (vertices, density) of the random graphs. None at 10 vertices and density
# 0.7, nor at 11 and 0.5: their cost swings between seeds by 3x, across that
# of G(4,4,0), G(4,2,2) and G(4,3,1), which is the same for every seed and is
# where the tail latency is read, so they would make the tail a draw.
RANDOM_STRATA = (
    (8, 0.3), (8, 0.5), (8, 0.7),
    (9, 0.3), (9, 0.5), (9, 0.7),
    (10, 0.3), (10, 0.5),
    (11, 0.3), (11, 0.7),
)


def _engine_round(rng: random.Random, _index: int) -> list[Input]:
    def lams(n: int) -> tuple[int, ...]:
        return tuple(sorted(rng.sample(range(n, n + 6), 2)))

    ops: list[Input] = [("gn", (n,), lams(n)) for n in (3, 4)]
    ops += [("gnpq", (n, p, n - p), lams(n)) for n in (2, 3, 4) for p in range(n + 1)]
    ops += [("random", _random_graph(rng, v, d), (3,)) for v, d in RANDOM_STRATA]
    rng.shuffle(ops)
    return ops


def _engine_op(inp: Input) -> Values:
    kind, arg, lams = inp
    if kind == "gn":
        graph = latin3.build_gn(*arg)
        refs = tuple(latin3.thm3_g(arg[0], lam) for lam in lams)
    elif kind == "gnpq":
        graph = latin3.build_gnpq(*arg)
        refs = tuple(latin3.g_npq_closed(*arg, lam) for lam in lams)
    else:
        graph = arg
        refs = tuple(latin3.count_colorings_bruteforce(graph, lam) for lam in lams)
    poly = latin3.chromatic_poly(graph)
    return (poly.coefficients, tuple(latin3.eval_poly(poly, lam) for lam in lams), refs)


def _engine_check(inp: Input, values: Values) -> Optional[str]:
    kind, arg, lams = inp
    coefficients, evaluated, refs = values
    horner = tuple(_horner(coefficients, lam) for lam in lams)
    if horner == evaluated == refs:
        return None
    label = arg if kind != "random" else f"{arg.vertex_count} vertices {sorted(arg.edges)}"
    return f"{kind} {label} at {lams}: eval_poly={evaluated} horner={horner} reference={refs}"


# --- verify: the CLI's verify and table commands, in process -----------------

# The seed of round k's verify command is VERIFY_SEED + k, whatever the
# benchmark seed, which draws the table formats and the order of the ops. The
# command's seed picks the 50 random graphs its engine checks run on, and one
# verify op's cost varies by a quarter between seeds; a run holds only four, so
# with drawn seeds they would set the workload's throughput.
VERIFY_SEED = latin3.verify.DEFAULT_SEED
TABLE_FORMATS = ("plain", "csv", "json")
# (--n, --lambda-offset) of the table ops, three that take about 0.35 s, five
# about 0.06 s and six under 0.02 s. Every round runs each once, so all rounds
# have the same composition whatever the seed: the median latency falls
# among the medium ones and the tail among the large ones.
TABLE_TEMPLATES = (
    ("3", "3"), ("4", "1"), ("3..4", "0..1"),
    ("3", "2"), ("2..3", "0..2"), ("1..3", "2"), ("3", "0..2"), ("2", "4..5"),
    ("1..4", "0"), ("2..4", "0"), ("1..2", "0..4"), ("4", "0"), ("1..3", "0..1"), ("2", "0..3"),
)


def _int_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def _verify_round(rng: random.Random, index: int) -> list[Input]:
    ops: list[Input] = [("verify", ("verify", "--n-max", "4", "--seed", str(VERIFY_SEED + index)), ())]
    for n_range, offsets in TABLE_TEMPLATES:
        argv = ("table", "--formula", "latin-oracle", "--n", n_range,
                "--lambda-offset", offsets, "--format", rng.choice(TABLE_FORMATS))
        cells = tuple((n, n + off) for n in _int_range(n_range) for off in _int_range(offsets))
        ops.append(("table", argv, cells))
    rng.shuffle(ops)
    return ops


def _run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = latin3.cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on a bad command line
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _table_rows(fmt: str, text: str) -> tuple[tuple[int, int, int], ...]:
    if fmt == "json":
        return tuple((r["n"], r["lambda"], int(r["value"])) for r in json.loads(text))
    lines = text.splitlines()
    if fmt == "csv":
        rows = [line.split(",") for line in lines[1:]]
    else:
        rows = [line.split() for line in lines]
    return tuple((int(r[0]), int(r[1]), int(r[3])) for r in rows)


def _verify_op(inp: Input) -> Values:
    kind, argv, _ = inp
    code, text = _run_cli(argv)
    if kind == "verify":
        lines = text.splitlines()
        passed = sum(line.startswith("PASS ") for line in lines)
        failed = sum(line.startswith("FAIL ") for line in lines)
        return (code, passed + failed, passed)
    rows = _table_rows(argv[-1], text) if code == 0 else ()
    return (code, rows, tuple(latin3.thm3_g(n, lam) for n, lam, _ in rows))


def _verify_check(inp: Input, values: Values) -> Optional[str]:
    kind, argv, cells = inp
    code = values[0]
    if code != 0:
        return f"{' '.join(argv)}: exit code {code}"
    if kind == "verify":
        _, checks, passed = values
        return None if checks and passed == checks else f"{' '.join(argv)}: {passed}/{checks} passed"
    _, rows, refs = values
    if tuple((n, lam) for n, lam, _ in rows) != cells:
        return f"{' '.join(argv)}: cells {[(n, lam) for n, lam, _ in rows]}, expected {list(cells)}"
    if tuple(v for _, _, v in rows) != refs:
        return f"{' '.join(argv)}: values {rows}, thm3 {refs}"
    return None


# Why each workload was chosen, and the layer it stresses, is recorded in
# BENCHMARK.json.
WORKLOADS = {
    "square": Workload("square", 1.4, _square_round, _square_op, _square_check),
    "wide": Workload("wide", 2.5, _wide_round, _wide_op, _wide_check),
    "engine": Workload("engine", 4.6, _engine_round, _engine_op, _engine_check),
    "verify": Workload("verify", 5.0, _verify_round, _verify_op, _verify_check),
}
