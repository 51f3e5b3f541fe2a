"""The cross-check matrix: every identity the package promises, run end to end.

``_CHECKS`` is the one registry of these checks.  ``latin3 verify`` and the
acceptance gate (``tests/test_acceptance.py``) both run it through
``run_verify``, which runs every check in registry order.  Each row names a
check and its check function.  n_max (1..6) bounds how far in n a check
reads, and each check stops at its own limit:

* gnpq-structure        -- every G(n,p,q) with n <= 5, at every n_max
* identify-symmetry     -- four fixed graphs, at every n_max
* formula-equivalence   -- n <= n_max, and lambda = n up to n = 20
* surgery-closed-form   -- every G(n,p,q) with n <= min(n_max, 3), then
  G(4) when n_max >= 4
* theorem2-m-invariance -- n <= min(n_max, 3)
* reduction-identity, engine-vs-brute and multiplicativity -- fixed and
  seeded random graphs, at every n_max
* chromatic-shape       -- every _Run.poly polynomial, as it is computed
* derangement-oracle    -- the same 209 cells of Theorem 3's derangement
  band, each read reduced and multiplied back, at every n_max
* latin-bridge          -- lambda = 1..6 for n <= min(n_max, 3), then
  (4, 4) and (4, 5) when n_max >= 4

A check function yields once per cell it checks: None if the cell holds,
else a message naming the counterexample, and the check stops at its first
message.  Each identity has one check, which compares every route of it on
the same cells.  engine-vs-brute gives every graph it reads the memoized
engine, the unmemoized engine and brute force.  latin-bridge streams each
rectangle walk it reads once, counting, order-checking and validating it in
one pass, so it never holds a list of rectangles.  All randomness is
seeded, so a given n_max and seed always produce the same report.

The checks that compare routes in lambda sample one rule, _lams(n) =
n..4n+2.  At lambda >= n every route's count of G(n,p,q) is a polynomial in
lambda of degree 3n - q <= 3n, and 3n + 1 points fix such a polynomial, so
two routes that agree on the sample agree at every lambda >= n.  The two
further points keep lambda = 1..6 in the sample at n = 1.  Theorem 2's sum
reaches below n, so it reads the engine polynomials at lambda = 1..4n+2.
"""

from __future__ import annotations

import functools
import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional

from . import combinatorics as comb
from . import formulas, oracle
from .chromatic import Poly, chromatic_poly, count_colorings_bruteforce, eval_poly
from .graphs import (
    Graph,
    build_gn,
    build_gnpq,
    complete,
    complete_bipartite,
    delete_edge,
    identify,
    line_graph,
)

ENGINE_N_GUARD = 4
FORMULA_N_GUARD = 6
DEFAULT_SEED = 1729
RANDOM_GRAPH_COUNT = 50


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    cells: int = 0  # cells checked, up to and including the first failure


def random_graphs(
    seed: int, count: int = RANDOM_GRAPH_COUNT, min_vertices: int = 3, max_vertices: int = 7
) -> list[Graph]:
    """Seeded random simple graphs (edge probability 1/2), deterministic per seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.randint(min_vertices, max_vertices)
        edges = [
            (a, b) for a in range(v) for b in range(a + 1, v) if rng.random() < 0.5
        ]
        out.append(Graph.from_edges(v, edges))
    return out


class _Run:
    """What the checks of one run_verify call share: n_max, the graph pool
    random_graphs(seed), oracle.injection_counts cached, so each injection
    walk is read once per run however many band cells it grounds, and the
    engine polynomials.  count_latin is not cached: latin-bridge alone reads
    its cells, each once.  poly checks each polynomial's shape for
    chromatic-shape as it computes it, and keeps it unless keep=False:
    theorem2-m-invariance reads surgery's again, and engine-vs-brute and
    multiplicativity the pool's, but no check reads reduction-identity's
    children again."""

    def __init__(self, n_max: int, seed: int) -> None:
        self.n_max, self.pool = n_max, random_graphs(seed)
        self.polys: dict[Graph, Poly] = {}
        self.shapes: list[Optional[str]] = []
        self.injections = functools.cache(oracle.injection_counts)

    def poly(self, g: Graph, keep: bool = True) -> Poly:
        poly = self.polys.get(g)
        if poly is None:
            poly = chromatic_poly(g)
            # a chromatic polynomial has degree v, is monic, has no constant
            # term when v >= 1, and the sign of its lambda^i coefficient is
            # (-1)^(v - i) or 0
            c, v = poly.coefficients, g.vertex_count
            signs = all(x == 0 or (x > 0) == ((v - i) % 2 == 0) for i, x in enumerate(c))
            shaped = poly.degree == v and c[-1] == 1 and (v == 0 or c[0] == 0) and signs
            self.shapes.append(None if shaped else f"a {v}-vertex graph has coefficients {c}")
            if keep:
                self.polys[g] = poly
        return poly


Cells = Iterator[Optional[str]]


def _lams(n: int) -> range:
    """The lambdas a check samples at n: 3n + 3 points from lambda = n, enough
    to fix any polynomial of degree <= 3n on lambda >= n."""
    return range(n, 4 * n + 3)


def _gnpq_structure(run: _Run) -> Cells:
    for n in range(1, 6):
        same = build_gn(n) == line_graph(complete_bipartite(3, n))
        yield None if same else f"n={n}: cell-rule and line-graph constructions differ"
        for p in range(n + 1):
            for q in range(n - p + 1):
                g = build_gnpq(n, p, q)
                yield None if g.vertex_count == 3 * n - q else (
                    f"G({n},{p},{q}) has {g.vertex_count} vertices, want {3 * n - q}"
                )
                # a deleted rung drops one edge; a merge drops its rung and one
                # of its two edges to row 3; two merged cells keep one row edge
                e = 3 * math.comb(n, 2) + 3 * n - p - 2 * q - math.comb(q, 2)
                yield None if g.edge_count == e else (
                    f"G({n},{p},{q}) has {g.edge_count} edges, want {e}"
                )


def _identify_symmetry(run: _Run) -> Cells:
    pool = [complete(3), complete(4), build_gn(2), build_gnpq(2, 1, 0)]
    for gi, g in enumerate(pool):
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                same = identify(g, u, v) == identify(g, v, u)
                yield None if same else f"graph #{gi}: identify({u},{v}) != identify({v},{u})"


def _formula_equivalence(run: _Run) -> Cells:
    # every closed form of g(n, lam) on one list of cells.  aps_g and thm3_g
    # divide by nothing; the paper's literal factorial form does, and must
    # divide exactly and agree with both.  thm3_g pairs each split with its
    # mirror, so it must also equal the plain split sum that g_npq_closed
    # takes at p = q = 0.  At lam = n, n! times Riordan's pinned count joins
    # them, and aps_g and thm3_g meet it there up to n = 20 at every n_max
    n_max = run.n_max
    cells = [(n, lam) for n in range(1, n_max + 1) for lam in _lams(n)]
    for n, lam in cells + [(n, n) for n in range(n_max + 1, 21)]:
        values = {"aps": formulas.aps_g(n, lam), "thm3": formulas.thm3_g(n, lam)}
        if n <= n_max:
            try:
                values["literal"] = formulas.aps_literal(n, lam)
            except ArithmeticError as exc:
                yield str(exc)
                return
            values["g_npq_closed"] = formulas.g_npq_closed(n, 0, 0, lam)
        if lam == n:
            values["n!*riordan"] = math.factorial(n) * formulas.riordan_l3(n)
        yield None if len(set(values.values())) == 1 else (
            f"n={n} lam={lam}: " + " ".join(f"{k}={v}" for k, v in values.items())
        )


def _surgery(run: _Run) -> Cells:
    # every G(n,p,q) with n <= 3, then G(4) = G(4,0,0); each (n, 0, 0) cell
    # is the engine on G(n) against g_npq_closed's split sum, which
    # formula-equivalence ties to thm3_g's paired one
    for n in range(1, min(run.n_max, ENGINE_N_GUARD) + 1):
        splits = [(p, q) for p in range(n + 1) for q in range(n - p + 1)] if n <= 3 else [(0, 0)]
        for p, q in splits:
            poly = run.poly(build_gnpq(n, p, q))
            for lam in _lams(n):
                closed = formulas.g_npq_closed(n, p, q, lam)
                engine = eval_poly(poly, lam)
                yield None if closed == engine else (
                    f"n={n} p={p} q={q} lam={lam}: closed={closed} engine={engine}"
                )


def _theorem2(run: _Run) -> Cells:
    # sum_q (-1)^q C(m, q) P(G(n, m-q, q)) = P(G(n)) for every 1 <= m <= n
    for n in range(1, min(run.n_max, 3) + 1):
        gn_poly = run.poly(build_gn(n))
        polys = {
            (p, q): run.poly(build_gnpq(n, p, q)) for p in range(n + 1) for q in range(n - p + 1)
        }
        for lam in range(1, 4 * n + 3):
            want = eval_poly(gn_poly, lam)
            for m in range(1, n + 1):
                got = 0
                for q in range(m + 1):
                    term = math.comb(m, q) * eval_poly(polys[m - q, q], lam)
                    got += -term if q % 2 else term
                yield None if got == want else f"n={n} m={m} lam={lam}: sum={got} engine={want}"


def _reduction(run: _Run) -> Cells:
    child = functools.partial(run.poly, keep=False)  # no later cell reads one
    for gi, g in enumerate(run.pool):
        whole = run.poly(g)
        for u, v in sorted(g.edges):
            parts = child(delete_edge(g, u, v)) - child(identify(g, u, v))
            yield None if whole == parts else (
                f"random graph #{gi}, edge ({u},{v}): reduction identity fails"
            )


def _engine_vs_brute(run: _Run) -> Cells:
    # three routes on each graph: the memoized engine (the run's shared
    # polynomial) and the unmemoized one as polynomials, then the engine and
    # brute force at lambda = 0..5 on the named graphs and 3 on random ones
    family = [
        ("one-vertex", complete(1)),
        ("edgeless-3", Graph.from_edges(3, [])),
        ("path-4", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])),
        ("cycle-5", Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
        ("k4-minus-edge", delete_edge(complete(4), 0, 1)),
        ("bull", Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])),
        ("triangle-plus-edge", Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])),
        ("prism", build_gn(2)),
        ("g211", build_gnpq(2, 1, 1)),
        ("triangle", complete(3)),
    ]
    graphs = [(name, g, range(6)) for name, g in family]
    small = [i for i, g in enumerate(run.pool) if g.vertex_count <= 6][:10]
    graphs += [(f"random graph #{i}", run.pool[i], (3,)) for i in sorted({*range(10), *small})]
    for name, g, lams in graphs:
        poly, plain = run.poly(g), chromatic_poly(g, memoize=False)
        yield None if poly == plain else (
            f"{name}: memoized={poly.coefficients} unmemoized={plain.coefficients}"
        )
        for lam in lams:
            engine, brute = eval_poly(poly, lam), count_colorings_bruteforce(g, lam)
            yield None if engine == brute else f"{name} lam={lam}: engine={engine} brute={brute}"


def _multiplicativity(run: _Run) -> Cells:
    # the engine has no rule for components: it branches on the union as on
    # any graph, so the product is found, not built in
    small = [g for g in run.pool if g.vertex_count <= 5]
    for i in range(0, min(len(small) - 1, 8), 2):
        g, h = small[i], small[i + 1]
        shift = g.vertex_count
        edges = list(g.edges) + [(u + shift, v + shift) for u, v in h.edges]
        union = Graph.from_edges(g.vertex_count + h.vertex_count, edges)
        same = run.poly(union) == run.poly(g) * run.poly(h)
        yield None if same else f"pair #{i}: union polynomial is not the product"


def _derangement_oracle(run: _Run) -> Cells:
    # every entry e(m, s) = falling(d + s, s) b(m, s) of the reduced band the
    # routes read at n + d <= 7, so the walks ground its divisibility too,
    # then column 0 at (8, 0): the classical derangement numbers D_0..D_8
    bands = [(n, d, n // 2 + 1) for n in range(8) for d in range(8 - n)] + [(8, 0, 1)]
    for n, d, columns in bands:
        for s, column in zip(range(columns), comb.derangement_columns(n, d)):
            for m, reduced in enumerate(column, s):
                band = comb.falling(d + s, s) * reduced
                brute = run.injections(m + d, m)[m - s]
                yield None if band == brute else (
                    f"n={n} d={d} m={m} s={s}: band={band} oracle={brute}"
                )


def _latin_bridge(run: _Run) -> Cells:
    # g(n, lam) by count_latin, thm3_g and falling(lam, n) times the count
    # with the first row pinned to 1..n: relabelling the symbols maps the
    # rectangles with any one first row onto those.  At lam = n, falling(n,
    # n) = n!, so with formula-equivalence's n! * riordan_l3(n) = thm3_g the
    # pinned count is Riordan's.  The free search blows up with lam, so n = 4
    # reads (4, 4) and (4, 5) only.  Where n <= 3 and lam <= 5 the rectangle
    # walk joins them: one pass counts it, checks that each rectangle is
    # greater than the one before and finds the first invalid one, so no
    # list of rectangles is held.  The walk is read to its end even past an
    # invalid rectangle, so the count comes first, then the order, then
    # validity
    n_max = run.n_max
    cells = [(n, lam) for n in range(1, min(n_max, 3) + 1) for lam in range(1, 7)]
    for n, lam in cells + ([(4, 4), (4, 5)] if n_max >= 4 else []):
        want = oracle.count_latin(n, lam)
        values = {
            "count_latin": want,
            "thm3": formulas.thm3_g(n, lam),
            "falling(lam,n)*pinned": comb.falling(lam, n) * oracle.count_latin(n, lam, True),
        }
        read, ordered, bad = 0, True, None
        if n <= 3 and lam <= 5:

            def tally(rects: Iterator[oracle.Rectangle]) -> Iterator[oracle.Rectangle]:
                nonlocal read, ordered
                last = None
                for read, rect in enumerate(rects, 1):
                    if last is not None and not last < rect:
                        ordered = False
                    last = rect
                    yield rect

            walk = tally(islice(oracle.enumerate_latin(n, lam), want + 1))
            bad = oracle.first_invalid(walk, n, lam)
            deque(walk, maxlen=0)
            values["walk"] = read
        if len(set(values.values())) > 1:
            yield f"n={n} lam={lam}: " + " ".join(f"{k}={v}" for k, v in values.items())
        elif not ordered:
            # strictly increasing: sorted, and no rectangle repeated
            yield f"n={n} lam={lam}: output is not in lexicographic order"
        else:
            yield None if bad is None else f"n={n} lam={lam}: invalid rectangle {bad}"


class _Check(NamedTuple):
    name: str
    cells: Callable[[_Run], Cells]


# The registry, in report order.  chromatic-shape must follow every other
# engine check: it reads the shapes of the polynomials they computed.
_CHECKS = (
    _Check("gnpq-structure", _gnpq_structure),
    _Check("identify-symmetry", _identify_symmetry),
    _Check("formula-equivalence", _formula_equivalence),
    _Check("surgery-closed-form", _surgery),
    _Check("theorem2-m-invariance", _theorem2),
    _Check("reduction-identity", _reduction),
    _Check("engine-vs-brute", _engine_vs_brute),
    _Check("multiplicativity", _multiplicativity),
    _Check("chromatic-shape", lambda run: iter(run.shapes)),
    _Check("derangement-oracle", _derangement_oracle),
    _Check("latin-bridge", _latin_bridge),
)


def _run_check(check: _Check, run: _Run) -> CheckResult:
    cells = 0
    for failure in check.cells(run):
        cells += 1
        if failure is not None:
            return CheckResult(check.name, False, failure, cells)
    return CheckResult(check.name, True, "", cells)


def run_verify(*, n_max: int = 3, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every registry check, in order, reading n up to n_max (1..6) and
    drawing the random graphs from seed."""
    if not 1 <= n_max <= FORMULA_N_GUARD:
        raise ValueError(f"n_max must be in 1..{FORMULA_N_GUARD}, got {n_max}")
    run = _Run(n_max, seed)
    return [_run_check(check, run) for check in _CHECKS]


def render_report(results: list[CheckResult]) -> str:
    """One PASS/FAIL line per check plus a summary tail line."""
    lines = [
        f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}" for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} checks, " + (f"{failed} failed" if failed else "all passed"))
    return "\n".join(lines) + "\n"
