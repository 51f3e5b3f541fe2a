"""Command-line interface: exact rectangle-count tables, identity verification,
chromatic polynomials of arbitrary graphs, and surgered-graph comparisons.

Exit codes: 0 success; 1 identity failure; 2 invalid arguments or input;
3 cost limit (node budget, search depth or vertex ceiling) exceeded.  Data
goes to stdout, diagnostics to stderr; all numbers are exact decimals.  The
argument parser is built once per process, on the first call of main, and
reused after that.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .chromatic import DEFAULT_MAX_VERTICES, chromatic_poly, eval_poly, count_colorings_bruteforce
from .errors import BudgetExceededError, VertexLimitError
from .formulas import aps_g, g_npq_closed, riordan_l3, thm3_g
from .graphs import build_gn, build_gnpq, parse_graph
from .oracle import count_latin
from .verify import DEFAULT_SEED, VerifyConfig, render_report, run_verify

FORMULA_CHOICES = ("riordan", "aps", "thm3", "engine", "brute", "latin-oracle")
FORMAT_CHOICES = ("plain", "csv", "json")
STATS_HELP = "print the engine's counters as one JSON line on stderr"


def _parse_range(text: str) -> tuple[int, int]:
    """Parse 'A' or 'A..B' into an inclusive integer range."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected 'A' or 'A..B'") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _table_cells(args: argparse.Namespace) -> list[tuple[int, int]]:
    n_lo, n_hi = _parse_range(args.n)
    if n_lo < 1:
        raise ValueError(f"n must be >= 1, got {n_lo}")
    if args.formula == "riordan":
        if args.lam is not None or args.lambda_offset is not None:
            raise ValueError(
                "the riordan formula has no lambda parameter; drop --lambda/--lambda-offset"
            )
        return [(n, n) for n in range(n_lo, n_hi + 1)]
    if args.lam is not None and args.lambda_offset is not None:
        raise ValueError("give at most one of --lambda and --lambda-offset")
    if args.lam is not None:
        lam_lo, lam_hi = _parse_range(args.lam)
        if lam_lo < 0:
            raise ValueError(f"lambda must be >= 0, got {lam_lo}")
        return [
            (n, lam)
            for n in range(n_lo, n_hi + 1)
            for lam in range(lam_lo, lam_hi + 1)
        ]
    off_lo, off_hi = _parse_range(args.lambda_offset or "0")
    if off_lo < 0:
        raise ValueError(f"lambda offset must be >= 0, got {off_lo}")
    return [
        (n, n + off) for n in range(n_lo, n_hi + 1) for off in range(off_lo, off_hi + 1)
    ]


def _print_stats(stats: Optional[dict]) -> None:
    if stats is not None:
        print(json.dumps(stats), file=sys.stderr)


def cmd_table(args: argparse.Namespace) -> int:
    if args.stats and args.formula not in ("engine", "latin-oracle", "brute"):
        raise ValueError(
            f"--stats needs --formula engine, latin-oracle or brute; "
            f"{args.formula} keeps no counters"
        )
    if args.node_budget is not None and args.formula not in ("brute", "latin-oracle"):
        raise ValueError(
            f"--node-budget needs --formula brute or latin-oracle; "
            f"{args.formula} has no node budget"
        )
    if args.max_vertices is not None and args.formula != "engine":
        raise ValueError(
            f"--max-vertices needs --formula engine; {args.formula} has no vertex limit"
        )
    # each search keeps its own default budget unless one is given
    budget = {} if args.node_budget is None else {"node_budget": args.node_budget}
    max_vertices = DEFAULT_MAX_VERTICES if args.max_vertices is None else args.max_vertices
    cells = _table_cells(args)
    gn_polys = {}
    stats: Optional[dict] = {} if args.stats else None

    def value(n: int, lam: int) -> int:
        if args.formula == "riordan":
            return riordan_l3(n)
        if args.formula == "aps":
            return aps_g(n, lam)
        if args.formula == "thm3":
            return thm3_g(n, lam)
        if args.formula == "engine":
            if n not in gn_polys:
                gn_polys[n] = chromatic_poly(
                    build_gn(n), max_vertices=max_vertices, stats=stats
                )
            return eval_poly(gn_polys[n], lam)
        if args.formula == "brute":
            return count_colorings_bruteforce(build_gn(n), lam, stats=stats, **budget)
        return count_latin(n, lam, stats=stats, **budget)

    try:
        rows = [(n, lam, args.formula, str(value(n, lam))) for n, lam in cells]
    finally:
        _print_stats(stats)
    if args.format == "csv":
        print("n,lambda,formula,value")
        for n, lam, formula, val in rows:
            print(f"{n},{lam},{formula},{val}")
    elif args.format == "json":
        payload = [
            {"n": n, "lambda": lam, "formula": formula, "value": val}
            for n, lam, formula, val in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        for n, lam, formula, val in rows:
            print(f"{n} {lam} {formula} {val}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = VerifyConfig(
        n_max=args.n_max,
        lambda_offset_max=args.lambda_offset_max,
        include_engine=not args.skip_engine,
        include_oracle=not args.skip_oracle,
        seed=args.seed,
    )
    results = run_verify(cfg)
    sys.stdout.write(render_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_chromatic(args: argparse.Namespace) -> int:
    try:
        text = Path(args.graph_file).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {args.graph_file}: {exc}") from None
    g = parse_graph(text)
    stats: Optional[dict] = {} if args.stats else None
    try:
        poly = chromatic_poly(g, max_vertices=args.max_vertices, stats=stats)
    finally:
        _print_stats(stats)
    print(f"degree={poly.degree}")
    for coefficient in poly.coefficients:
        print(coefficient)
    return 0


def cmd_gnpq(args: argparse.Namespace) -> int:
    if args.lam < 0:
        raise ValueError(f"lambda must be >= 0, got {args.lam}")
    g = build_gnpq(args.n, args.p, args.q)
    stats: Optional[dict] = {} if args.stats else None
    try:
        poly = chromatic_poly(g, max_vertices=args.max_vertices, stats=stats)
    finally:
        _print_stats(stats)
    engine = eval_poly(poly, args.lam)
    code = 0
    if args.p + args.q == args.n:
        closed = g_npq_closed(args.n, args.p, args.q, args.lam)
        print(f"closed-form: {closed}")
        print(f"engine: {engine}")
        print("EQUAL" if closed == engine else "UNEQUAL")
        code = 0 if closed == engine else 1
    else:
        print(f"closed-form: n/a (needs p+q = n; got p+q={args.p + args.q}, n={args.n})")
        print(f"engine: {engine}")
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latin3",
        description="Exact counts of 3 x n Latin rectangles on lambda symbols, "
        "via independent closed forms, a chromatic-polynomial engine, and "
        "brute-force enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a table of counts")
    table.add_argument("--formula", required=True, choices=FORMULA_CHOICES)
    table.add_argument("--n", required=True, help="column count: 'A' or 'A..B'")
    table.add_argument("--lambda", dest="lam", help="absolute symbol count range")
    table.add_argument(
        "--lambda-offset", help="symbol count as offset from n (keeps lambda >= n)"
    )
    table.add_argument("--format", choices=FORMAT_CHOICES, default="plain")
    table.add_argument(
        "--max-vertices", type=int, help="the engine's vertex limit (--formula engine only)"
    )
    table.add_argument(
        "--node-budget", type=int,
        help="the search's node budget, in colour attempts for brute and states "
        "searched for latin-oracle (those formulas only)",
    )
    table.add_argument(
        "--stats", action="store_true",
        help="print the engine's counters, summed over the table's graphs, or "
        "count_latin's nodes (states searched) and memo_hits, or the brute-force "
        "colouring's nodes (colour attempts), summed over its cells, as one JSON "
        "line on stderr (--formula engine, latin-oracle or brute only)",
    )

    verify = sub.add_parser("verify", help="run the identity cross-check matrix")
    verify.add_argument("--n-max", type=int, default=3)
    verify.add_argument("--lambda-offset-max", type=int, default=2)
    verify.add_argument("--skip-engine", action="store_true")
    verify.add_argument("--skip-oracle", action="store_true")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)

    chromatic = sub.add_parser(
        "chromatic", help="chromatic polynomial of a graph in the text format"
    )
    chromatic.add_argument("graph_file")
    chromatic.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    chromatic.add_argument("--stats", action="store_true", help=STATS_HELP)

    gnpq = sub.add_parser(
        "gnpq", help="closed form vs engine on the surgered graph G(n,p,q)"
    )
    gnpq.add_argument("n", type=int)
    gnpq.add_argument("p", type=int)
    gnpq.add_argument("q", type=int)
    gnpq.add_argument("lam", type=int, metavar="lambda")
    gnpq.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    gnpq.add_argument("--stats", action="store_true", help=STATS_HELP)

    return parser


def main(argv=None) -> int:
    # Counts are exact and may have any number of digits; CPython caps
    # int-to-str conversion at 4300 digits by default (3.11, 3.10.7 and later).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    # looked up by name on every call, not kept in the parser, which is built
    # once: a wrapper bound to the name later (the span tracer binds one) runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, VertexLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
