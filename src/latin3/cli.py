"""Command-line interface: exact rectangle-count tables, identity verification,
chromatic polynomials of arbitrary graphs, and surgered-graph comparisons.

Exit codes: 0 success; 1 identity failure; 2 invalid arguments or input;
3 cost limit (node budget, search depth, vertex ceiling or memory) exceeded.  Data
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

from .chromatic import DEFAULT_MAX_VERTICES, Poly, chromatic_poly, eval_poly, count_colorings_bruteforce
from .errors import BudgetExceededError, VertexLimitError
from .formulas import aps_g, g_npq_closed, riordan_l3, thm3_g
from .graphs import Graph, build_gn, build_gnpq, gnpq_vertex_count, parse_graph
from .oracle import count_latin
from .verify import DEFAULT_SEED, render_report, run_verify

FORMAT_CHOICES = ("plain", "csv", "json")
STATS_HELP = "print the engine's counters as one JSON line on stderr"


def _parse_range(text: str, name: str, low: int) -> range:
    """Parse 'A' or 'A..B' into the inclusive range A..B, whose lower end A,
    called name in the message, must be at least low."""
    parts = text.split("..")
    try:
        if len(parts) > 2:
            raise ValueError
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected 'A' or 'A..B'") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    if lo < low:
        raise ValueError(f"{name} must be >= {low}, got {lo}")
    return range(lo, hi + 1)


def _table_cells(args: argparse.Namespace) -> list[tuple[int, int]]:
    """The table's (n, lambda) cells; riordan's are those of offset 0."""
    ns = _parse_range(args.n, "n", 1)
    if args.formula == "riordan":
        if args.lam is not None or args.lambda_offset is not None:
            raise ValueError(
                "the riordan formula has no lambda parameter; drop --lambda/--lambda-offset"
            )
    elif args.lam is not None and args.lambda_offset is not None:
        raise ValueError("give at most one of --lambda and --lambda-offset")
    elif args.lam is not None:
        lams = _parse_range(args.lam, "lambda", 0)
        return [(n, lam) for n in ns for lam in lams]
    offset = "0" if args.lambda_offset is None else args.lambda_offset
    offsets = _parse_range(offset, "lambda offset", 0)
    return [(n, n + off) for n in ns for off in offsets]


def _print_stats(stats: Optional[dict]) -> None:
    if stats is not None:
        print(json.dumps(stats), file=sys.stderr)


def _stand_in(size: int, max_vertices: int) -> Optional[Graph]:
    """Past max_vertices, an edgeless graph of size vertices, else None.  The
    engine refuses a graph by its vertex count alone, so the stand-in draws
    the same error and --stats line as the graph of that size it replaces,
    and the caller never builds that graph."""
    return Graph(size, frozenset()) if size > max_vertices else None


def _routes(stats: Optional[dict], costs: dict) -> dict:
    """The table's formulas, each a value function of (n, lam), over one
    table's stats dict and given cost flags.  G(n) is built once per n, and
    not at all for an engine past its vertex limit.  Routes are called by
    their module-level names, so a wrapper bound later runs."""
    gn = functools.cache(lambda n: build_gn(n))
    limit = costs.get("max_vertices", DEFAULT_MAX_VERTICES)
    engine = functools.cache(
        lambda n: chromatic_poly(_stand_in(3 * n, limit) or gn(n), stats=stats, **costs)
    )
    return {
        "riordan": lambda n, lam: riordan_l3(n),
        "aps": lambda n, lam: aps_g(n, lam),
        "thm3": lambda n, lam: thm3_g(n, lam),
        "engine": lambda n, lam: eval_poly(engine(n), lam),
        "brute": lambda n, lam: count_colorings_bruteforce(gn(n), lam, stats=stats, **costs),
        "latin-oracle": lambda n, lam: count_latin(n, lam, stats=stats, **costs),
    }


FORMULA_CHOICES = tuple(_routes(None, {}))
# Each cost flag of table: the formulas that read it, and what the rest lack.
COST_FLAGS = {
    "stats": (("engine", "latin-oracle", "brute"), "keeps no counters"),
    "node_budget": (("brute", "latin-oracle"), "has no node budget"),
    "max_vertices": (("engine",), "has no vertex limit"),
}


def cmd_table(args: argparse.Namespace) -> int:
    # only the cost flags given are passed on; each search keeps its defaults
    costs = {dest: getattr(args, dest) for dest in COST_FLAGS if getattr(args, dest) is not None}
    for dest in costs:  # in COST_FLAGS order
        readers, lack = COST_FLAGS[dest]
        if args.formula not in readers:
            flag = "--" + dest.replace("_", "-")
            either = ", ".join(readers[:-1]) + " or " + readers[-1] if readers[1:] else readers[0]
            raise ValueError(f"{flag} needs --formula {either}; {args.formula} {lack}")
    cells = _table_cells(args)
    stats: Optional[dict] = {} if costs.pop("stats", False) else None
    value = _routes(stats, costs)[args.formula]
    try:
        rows = [(n, lam, args.formula, str(value(n, lam))) for n, lam in cells]
    finally:
        _print_stats(stats)
    keys = ("n", "lambda", "formula", "value")
    if args.format == "json":
        print(json.dumps([dict(zip(keys, row)) for row in rows], indent=2))
        return 0
    sep = "," if args.format == "csv" else " "
    if args.format == "csv":
        print(*keys, sep=sep)
    for row in rows:
        print(*row, sep=sep)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verify(n_max=args.n_max, seed=args.seed)
    sys.stdout.write(render_report(results))
    return 0 if all(r.passed for r in results) else 1


def _engine_poly(g: Graph, args: argparse.Namespace) -> Poly:
    """chromatic_poly of g under the command's --max-vertices and --stats."""
    stats: Optional[dict] = {} if args.stats else None
    try:
        return chromatic_poly(g, max_vertices=args.max_vertices, stats=stats)
    finally:
        _print_stats(stats)


def cmd_chromatic(args: argparse.Namespace) -> int:
    try:
        text = Path(args.graph_file).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {args.graph_file}: {exc}") from None
    poly = _engine_poly(parse_graph(text), args)
    print(f"degree={poly.degree}")
    for coefficient in poly.coefficients:
        print(coefficient)
    return 0


def cmd_gnpq(args: argparse.Namespace) -> int:
    if args.lam < 0:
        raise ValueError(f"lambda must be >= 0, got {args.lam}")
    size = gnpq_vertex_count(args.n, args.p, args.q)
    g = _stand_in(size, args.max_vertices) or build_gnpq(args.n, args.p, args.q)
    engine = eval_poly(_engine_poly(g, args), args.lam)
    closed = g_npq_closed(args.n, args.p, args.q, args.lam)
    print(f"closed-form: {closed}")
    print(f"engine: {engine}")
    print("EQUAL" if closed == engine else "UNEQUAL")
    return 0 if closed == engine else 1


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
        "--stats", action="store_true", default=None,
        help="print the engine's counters, summed over the table's graphs, or "
        "count_latin's nodes (states searched) and memo_hits, or the brute-force "
        "colouring's nodes (colour attempts), summed over its cells, as one JSON "
        "line on stderr (--formula engine, latin-oracle or brute only)",
    )

    verify = sub.add_parser("verify", help="run the identity cross-check matrix")
    verify.add_argument("--n-max", type=int, default=3)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)

    chromatic = sub.add_parser(
        "chromatic", help="chromatic polynomial of a graph in the text format"
    )
    chromatic.add_argument("graph_file")

    gnpq = sub.add_parser(
        "gnpq", help="closed form vs engine on the surgered graph G(n,p,q)"
    )
    gnpq.add_argument("n", type=int)
    gnpq.add_argument("p", type=int)
    gnpq.add_argument("q", type=int)
    gnpq.add_argument("lam", type=int, metavar="lambda")
    for engine in (chromatic, gnpq):
        engine.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
        engine.add_argument("--stats", action="store_true", help=STATS_HELP)

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
    except MemoryError:
        print("error: ran out of memory", file=sys.stderr)
        return 3
