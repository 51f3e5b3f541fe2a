"""The cross-check matrix: every identity the package promises, run end to end.

Checks are grouped in three lanes so callers can trade coverage for speed:

* fast lane    -- closed forms and graph construction only; no search
* engine lane  -- everything involving the deletion-contraction engine
* oracle lane  -- everything grounded in brute-force enumeration

Each check reports its first counterexample, if any.  All randomness is
seeded, so a given configuration always produces the same report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

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
class VerifyConfig:
    n_max: int = 3
    lambda_offset_max: int = 2
    include_engine: bool = True
    include_oracle: bool = True
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, failure: Optional[str]) -> CheckResult:
    return CheckResult(name, failure is None, failure or "")


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


def _disjoint_union(g: Graph, h: Graph) -> Graph:
    shift = g.vertex_count
    edges = list(g.edges) + [(u + shift, v + shift) for u, v in h.edges]
    return Graph.from_edges(g.vertex_count + h.vertex_count, edges)


def _fast_checks(cfg: VerifyConfig) -> list[CheckResult]:
    out = []

    def binom_symmetry() -> Optional[str]:
        for n in range(31):
            for k in range(n + 1):
                if comb.binom(n, k) != comb.binom(n, n - k):
                    return f"binom({n},{k}) != binom({n},{n - k})"
        return None

    def pascal() -> Optional[str]:
        for a in range(-10, 11):
            for b in range(11):
                lhs = comb.gen_binom(a, b)
                rhs = (comb.gen_binom(a - 1, b - 1) if b else 0) + comb.gen_binom(a - 1, b)
                if lhs != rhs:
                    return f"gen_binom({a},{b}) breaks the Pascal identity"
        return None

    def t0_falling() -> Optional[str]:
        for lam in range(13):
            for n in range(lam + 1):
                if comb.gen_derangement(lam, n, 0) != comb.falling(lam, n):
                    return f"gen_derangement({lam},{n},0) != falling({lam},{n})"
        return None

    def gn_construction() -> Optional[str]:
        for n in range(1, 6):
            if build_gn(n) != line_graph(complete_bipartite(3, n)):
                return f"n={n}: product and line-graph constructions differ"
        return None

    def gnpq_structure() -> Optional[str]:
        for n in range(1, 6):
            if build_gnpq(n, 0, 0) != build_gn(n):
                return f"G({n},0,0) != G({n})"
            for p in range(n + 1):
                for q in range(n - p + 1):
                    g = build_gnpq(n, p, q)
                    if g.vertex_count != 3 * n - q:
                        return f"G({n},{p},{q}) has {g.vertex_count} vertices, want {3 * n - q}"
        return None

    def identify_symmetry() -> Optional[str]:
        pool = [complete(3), complete(4), build_gn(2), build_gnpq(2, 1, 0)]
        for gi, g in enumerate(pool):
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    if identify(g, u, v) != identify(g, v, u):
                        return f"graph #{gi}: identify({u},{v}) != identify({v},{u})"
        return None

    def aps_divisibility() -> Optional[str]:
        # aps_g divides by nothing; the paper's literal factorial form does,
        # and must divide exactly and agree with it
        for n in range(1, min(cfg.n_max, FORMULA_N_GUARD) + 1):
            for off in range(cfg.lambda_offset_max + 1):
                lam = n + off
                try:
                    literal = formulas.aps_literal(n, lam)
                except ArithmeticError as exc:
                    return str(exc)
                fast = formulas.aps_g(n, lam)
                if fast != literal:
                    return f"n={n} lam={lam}: aps={fast} literal={literal}"
        return None

    def formula_equivalence() -> Optional[str]:
        for n in range(1, min(cfg.n_max, FORMULA_N_GUARD) + 1):
            for off in range(cfg.lambda_offset_max + 1):
                lam = n + off
                a, b = formulas.thm3_g(n, lam), formulas.aps_g(n, lam)
                if a != b:
                    return f"n={n} lam={lam}: thm3={a} aps={b}"
        return None

    def riordan_bridge() -> Optional[str]:
        for n in range(2, 21):
            lhs = comb.factorial(n) * formulas.riordan_l3(n)
            rhs = formulas.thm3_g(n, n)
            if lhs != rhs:
                return f"n={n}: n!*riordan={lhs} thm3={rhs}"
        return None

    out.append(_result("binom-symmetry", binom_symmetry()))
    out.append(_result("pascal-gen-binom", pascal()))
    out.append(_result("derangement-t0-falling", t0_falling()))
    out.append(_result("gn-construction", gn_construction()))
    out.append(_result("gnpq-structure", gnpq_structure()))
    out.append(_result("identify-symmetry", identify_symmetry()))
    out.append(_result("aps-divisibility", aps_divisibility()))
    out.append(_result("formula-equivalence", formula_equivalence()))
    out.append(_result("riordan-bridge", riordan_bridge()))
    return out


def _engine_checks(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    pool = random_graphs(cfg.seed)
    # every engine output produced below, kept for the shape check at the end
    shaped: list[tuple[Graph, Poly]] = []

    def engine_poly(g: Graph) -> Poly:
        poly = chromatic_poly(g)
        shaped.append((g, poly))
        return poly

    def closed_forms() -> Optional[str]:
        for n in range(1, min(cfg.n_max, ENGINE_N_GUARD) + 1):
            poly = engine_poly(build_gn(n))
            top = min(cfg.lambda_offset_max, 3 if n <= 3 else 1)
            for off in range(top + 1):
                lam = n + off
                engine = eval_poly(poly, lam)
                t3 = formulas.thm3_g(n, lam)
                ap = formulas.aps_g(n, lam)
                if not engine == t3 == ap:
                    return f"n={n} lam={lam}: engine={engine} thm3={t3} aps={ap}"
        return None

    def surgery() -> Optional[str]:
        for n in range(1, min(cfg.n_max, 3) + 1):
            for l in range(n + 1):
                k = n - l
                poly = engine_poly(build_gnpq(n, k, l))
                for lam in range(n, 7):
                    closed = formulas.g_npq_closed(n, k, l, lam)
                    engine = eval_poly(poly, lam)
                    if closed != engine:
                        return (
                            f"n={n} k={k} l={l} lam={lam}: closed={closed} engine={engine}"
                        )
        return None

    def theorem2() -> Optional[str]:
        cache: dict[tuple[int, int, int], Poly] = {}

        def engine_eval(n: int, p: int, q: int, lam: int) -> int:
            key = (n, p, q)
            if key not in cache:
                cache[key] = chromatic_poly(build_gnpq(n, p, q))
            return eval_poly(cache[key], lam)

        for n in range(1, min(cfg.n_max, 3) + 1):
            gn_poly = chromatic_poly(build_gn(n))
            for lam in range(1, 7):
                want = eval_poly(gn_poly, lam)
                for m in range(1, n + 1):
                    got = formulas.theorem2_sum(n, m, lam, engine_eval)
                    if got != want:
                        return f"n={n} m={m} lam={lam}: sum={got} engine={want}"
        return None

    def reduction() -> Optional[str]:
        for gi, g in enumerate(pool):
            whole = engine_poly(g)
            for u, v in sorted(g.edges):
                parts = chromatic_poly(delete_edge(g, u, v)) - chromatic_poly(identify(g, u, v))
                if whole != parts:
                    return f"random graph #{gi}, edge ({u},{v}): reduction identity fails"
        return None

    def memo_transparency() -> Optional[str]:
        for gi, g in enumerate([complete(3), build_gn(2)] + pool[:10]):
            if chromatic_poly(g, memoize=True) != chromatic_poly(g, memoize=False):
                return f"graph #{gi}: memoized and unmemoized results differ"
        return None

    def engine_vs_brute() -> Optional[str]:
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
        ]
        for name, g in family:
            poly = engine_poly(g)
            for lam in range(6):
                engine = eval_poly(poly, lam)
                brute = count_colorings_bruteforce(g, lam)
                if engine != brute:
                    return f"{name} lam={lam}: engine={engine} brute={brute}"
        for gi, g in enumerate([g for g in pool if g.vertex_count <= 6][:10]):
            if eval_poly(chromatic_poly(g), 3) != count_colorings_bruteforce(g, 3):
                return f"random graph #{gi} lam=3: engine and brute force differ"
        return None

    def multiplicativity() -> Optional[str]:
        small = [g for g in pool if g.vertex_count <= 5]
        for i in range(0, min(len(small) - 1, 8), 2):
            g, h = small[i], small[i + 1]
            if chromatic_poly(_disjoint_union(g, h)) != chromatic_poly(g) * chromatic_poly(h):
                return f"pair #{i}: union polynomial is not the product"
        return None

    def shape() -> Optional[str]:
        for g, poly in shaped:
            c = poly.coefficients
            v = g.vertex_count
            if poly.degree != v:
                return f"degree {poly.degree} != vertex count {v}"
            if c[-1] != 1:
                return f"leading coefficient {c[-1]} != 1 on a {v}-vertex graph"
            if v >= 1 and c[0] != 0:
                return f"nonzero constant term {c[0]} on a {v}-vertex graph"
            for i, coeff in enumerate(c):
                expected_sign = -1 if (v - i) % 2 else 1
                if coeff and (1 if coeff > 0 else -1) != expected_sign:
                    return f"coefficient of lambda^{i} breaks sign alternation"
        return None

    out.append(_result("engine-closed-forms", closed_forms()))
    out.append(_result("surgery-closed-form", surgery()))
    out.append(_result("theorem2-m-invariance", theorem2()))
    out.append(_result("reduction-identity", reduction()))
    out.append(_result("memo-transparency", memo_transparency()))
    out.append(_result("engine-vs-brute", engine_vs_brute()))
    out.append(_result("multiplicativity", multiplicativity()))
    out.append(_result("chromatic-shape", shape()))
    return out


def _oracle_checks(cfg: VerifyConfig) -> list[CheckResult]:
    out = []

    def derangement_oracle() -> Optional[str]:
        for lam in range(8):
            for n in range(lam + 1):
                for t in range(n + 1):
                    formula = comb.gen_derangement(lam, n, t)
                    brute = oracle.count_injections_forbidden(lam, n, t)
                    if formula != brute:
                        return f"lam={lam} n={n} t={t}: formula={formula} oracle={brute}"
        return None

    def classical_derangements() -> Optional[str]:
        for n in range(9):
            formula = comb.gen_derangement(n, n, n)
            brute = oracle.count_injections_forbidden(n, n, n)
            if formula != brute:
                return f"n={n}: formula={formula} oracle={brute}"
        return None

    def latin_bridge() -> Optional[str]:
        cells = [
            (n, lam)
            for n in range(1, min(cfg.n_max, 3) + 1)
            for lam in range(n, 7)
        ]
        if cfg.n_max >= 4:
            cells += [(4, 4), (4, 5)]
        for n, lam in cells:
            counted = oracle.count_latin(n, lam)
            formula = formulas.thm3_g(n, lam)
            if counted != formula:
                return f"n={n} lam={lam}: enumeration={counted} thm3={formula}"
        return None

    def first_row_factor(ns: list[int]) -> Optional[str]:
        for n in ns:
            free = oracle.count_latin(n, n, False)
            pinned = oracle.count_latin(n, n, True)
            if free != comb.factorial(n) * pinned:
                return f"n={n}: free={free} n!*pinned={comb.factorial(n) * pinned}"
        return None

    def riordan_oracle() -> Optional[str]:
        for n in range(1, min(cfg.n_max, 4) + 1):
            formula = formulas.riordan_l3(n)
            counted = oracle.count_latin(n, n, True)
            if formula != counted:
                return f"n={n}: riordan={formula} enumeration={counted}"
        return None

    def enumeration_consistency() -> Optional[str]:
        for n in range(1, min(cfg.n_max, 3) + 1):
            for lam in range(1, 6):
                want = oracle.count_latin(n, lam)
                rects = oracle.enumerate_latin(n, lam, want + 1)
                if len(rects) != want:
                    return f"n={n} lam={lam}: enumerated {len(rects)}, counted {want}"
                if rects != sorted(rects):
                    return f"n={n} lam={lam}: output is not in lexicographic order"
                for r in rects:
                    if not oracle.is_latin_rectangle(r, n, lam):
                        return f"n={n} lam={lam}: invalid rectangle {r}"
        return None

    out.append(_result("derangement-oracle", derangement_oracle()))
    out.append(_result("classical-derangements", classical_derangements()))
    out.append(_result("latin-bridge", latin_bridge()))
    first_row_ns = [n for n in (3, 4) if n <= cfg.n_max]
    if first_row_ns:
        out.append(_result("latin-first-row", first_row_factor(first_row_ns)))
    out.append(_result("riordan-oracle", riordan_oracle()))
    out.append(_result("enumeration-consistency", enumeration_consistency()))
    return out


def run_verify(cfg: VerifyConfig) -> list[CheckResult]:
    """Run all applicable check suites and return their results in a fixed order."""
    if cfg.n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {cfg.n_max}")
    if cfg.n_max > FORMULA_N_GUARD:
        raise ValueError(
            f"n_max={cfg.n_max} exceeds the guard of {FORMULA_N_GUARD}; "
            "the closed forms are cheap but the cross-check lanes are not"
        )
    if cfg.lambda_offset_max < 0:
        raise ValueError(f"lambda_offset_max must be >= 0, got {cfg.lambda_offset_max}")
    results = _fast_checks(cfg)
    if cfg.include_engine:
        results.extend(_engine_checks(cfg))
    if cfg.include_oracle:
        results.extend(_oracle_checks(cfg))
    return results


def render_report(results: list[CheckResult]) -> str:
    """One PASS/FAIL line per check plus a summary tail line."""
    lines = [
        f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}" for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    if failed:
        lines.append(f"{len(results)} checks, {failed} failed")
    else:
        lines.append(f"{len(results)} checks, all passed")
    return "\n".join(lines) + "\n"
