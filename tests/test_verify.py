"""Tests for the self-check harness itself: check order, failure paths,
determinism, report rendering.  The identities the harness checks are
covered in depth by the other test modules; here we only need small, fast
configurations."""

import math
import tracemalloc
from collections import Counter

import pytest

from latin3 import combinatorics as comb
from latin3 import formulas, graphs, oracle, verify
from latin3.chromatic import Poly
from latin3.verify import CheckResult, render_report, run_verify


def names(results):
    return [r.name for r in results]


def failures(results):
    return [(r.name, r.detail, r.cells) for r in results if not r.passed]


def test_every_check_passes_at_minimal_size():
    results = run_verify(n_max=1)
    assert results, "harness produced no checks"
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert "surgery-closed-form" in names(results)
    assert "latin-bridge" in names(results)


def test_first_row_check_covers_every_bridge_cell():
    # latin-bridge checks free = falling(lam, n) * pinned on each cell it
    # counts, from n_max = 1 on: lam = 1..6 for each n <= 3, then (4, 4) and
    # (4, 5)
    for n_max, cells in ((1, 6), (2, 12), (4, 20)):
        results = {r.name: r for r in run_verify(n_max=n_max)}
        assert results["latin-bridge"].passed
        assert results["latin-bridge"].cells == cells


def test_formula_equivalence_fails_when_aps_literal_raises(monkeypatch):
    message = "aps_literal(1, 1): lam! * sum / ((lam-n)!)^3 leaves remainder 1"

    def raising(n, lam):
        raise ArithmeticError(message)

    monkeypatch.setattr(formulas, "aps_literal", raising)
    results = run_verify(n_max=1)
    assert failures(results) == [("formula-equivalence", message, 1)]


def test_formula_equivalence_names_the_literal_and_aps_g_values(monkeypatch):
    # aps_g is read by formula-equivalence alone, and its first cell, at
    # lambda = n, names every route
    real = formulas.aps_g
    monkeypatch.setattr(formulas, "aps_g", lambda n, lam: real(n, lam) + 1)
    results = run_verify(n_max=1)
    assert failures(results) == [
        (
            "formula-equivalence",
            "n=1 lam=1: aps=1 thm3=0 literal=0 g_npq_closed=0 n!*riordan=0",
            1,
        ),
    ]


def test_formula_equivalence_fails_on_aps_g_wrong_past_lambda_6(monkeypatch):
    # lambda = 9 > 6 lies in n = 2's sample 2..10, so a route wrong only there
    # is caught
    real = formulas.aps_g
    monkeypatch.setattr(
        formulas, "aps_g", lambda n, lam: real(n, lam) + ((n, lam) == (2, 9))
    )
    results = {r.name: r for r in run_verify(n_max=6)}
    check = results["formula-equivalence"]
    assert not check.passed
    assert check.detail.startswith("n=2 lam=9: ")
    assert check.cells == 6 + 8


def test_surgery_fails_on_g_npq_closed_wrong_past_lambda_6(monkeypatch):
    real = formulas.g_npq_closed
    monkeypatch.setattr(
        formulas,
        "g_npq_closed",
        lambda n, p, q, lam: real(n, p, q, lam) + ((n, p, q, lam) == (2, 1, 0, 9)),
    )
    results = {r.name: r for r in run_verify(n_max=6)}
    check = results["surgery-closed-form"]
    assert not check.passed
    assert check.detail.startswith("n=2 p=1 q=0 lam=9: ")
    assert [r.name for r in results.values() if not r.passed] == ["surgery-closed-form"]


def test_g_npq_closed_wrong_only_on_one_plain_cell(monkeypatch):
    # G(3) = G(3,0,0) at lambda = 7: surgery compares the cell with the
    # engine, and formula-equivalence with thm3_g's paired sum, which reads
    # no g_npq_closed; no other check reads g_npq_closed
    real = formulas.g_npq_closed
    monkeypatch.setattr(
        formulas,
        "g_npq_closed",
        lambda n, p, q, lam: real(n, p, q, lam) + ((n, p, q, lam) == (3, 0, 0, 7)),
    )
    results = run_verify(n_max=4)
    g = real(3, 0, 0, 7)
    assert failures(results) == [
        (
            "formula-equivalence",
            f"n=3 lam=7: aps={g} thm3={g} literal={g} g_npq_closed={g + 1}",
            6 + 9 + 5,
        ),
        (
            "surgery-closed-form",
            f"n=3 p=0 q=0 lam=7: closed={g + 1} engine={g}",
            3 * 6 + 6 * 9 + 5,
        ),
    ]


def test_check_order_and_what_a_wrong_thm3_g_fails(monkeypatch):
    # Every check that reads thm3_g fails, and no other: surgery reads
    # g_npq_closed's split sum, not thm3_g's paired one.  The
    # engine polynomials are shared across checks, so this also shows that no
    # check compares a shared value with itself.  The report keeps all 11
    # checks in registry order, failed ones included.
    real = formulas.thm3_g
    monkeypatch.setattr(formulas, "thm3_g", lambda n, lam: real(n, lam) + 1)
    results = run_verify(n_max=4)
    assert names(results) == [
        "gnpq-structure",
        "identify-symmetry",
        "formula-equivalence",
        "surgery-closed-form",
        "theorem2-m-invariance",
        "reduction-identity",
        "engine-vs-brute",
        "multiplicativity",
        "chromatic-shape",
        "derangement-oracle",
        "latin-bridge",
    ]
    assert {r.name for r in results if not r.passed} == {"formula-equivalence", "latin-bridge"}


def test_surgery_fails_on_an_engine_wrong_only_on_g4(monkeypatch):
    # G(4) = G(4,0,0) is surgery's last cell, after the 192 of n <= 3.  The
    # lambda^1 coefficient grows in size with its sign kept, so the
    # polynomial keeps a chromatic polynomial's shape.
    real, g4 = verify.chromatic_poly, graphs.build_gn(4)

    def wrong(g, **kw):
        c = list(real(g, **kw).coefficients)
        c[1] -= g == g4
        return Poly.of(c)

    monkeypatch.setattr(verify, "chromatic_poly", wrong)
    results = run_verify(n_max=4)
    assert failures(results) == [
        ("surgery-closed-form", "n=4 p=0 q=0 lam=4: closed=576 engine=572", 193)
    ]


def test_engine_vs_brute_fails_on_an_unmemoized_engine_wrong_on_one_graph(monkeypatch):
    # the unmemoized engine's lambda^1 coefficient of the triangle, the tenth
    # named graph, is one too small; no other check calls that engine
    real, k3 = verify.chromatic_poly, graphs.complete(3)

    def wrong(g, memoize=True, **kw):
        c = list(real(g, memoize=memoize, **kw).coefficients)
        c[1] -= not memoize and g == k3
        return Poly.of(c)

    monkeypatch.setattr(verify, "chromatic_poly", wrong)
    results = run_verify(n_max=1)
    assert failures(results) == [
        ("engine-vs-brute", "triangle: memoized=(0, 2, -3, 1) unmemoized=(0, 1, -3, 1)", 9 * 7 + 1)
    ]


def test_latin_bridge_fails_on_a_wrong_pinned_count(monkeypatch):
    # (2, 3) is the bridge's ninth cell, after n = 1's six, (2, 1) and (2, 2)
    real = oracle.count_latin
    monkeypatch.setattr(
        oracle,
        "count_latin",
        lambda n, lam, pinned=False: real(n, lam, pinned) + (pinned and (n, lam) == (2, 3)),
    )
    results = run_verify(n_max=2)
    assert failures(results) == [
        (
            "latin-bridge",
            "n=2 lam=3: count_latin=12 thm3=12 falling(lam,n)*pinned=18 walk=12",
            9,
        )
    ]


@pytest.mark.parametrize(
    "n, routes, cells",
    [
        # (4, 4) follows the 27 cells of n <= 3, and latin-bridge, which reads
        # no riordan_l3, holds its pinned count there
        (4, "aps={g} thm3={g} literal={g} g_npq_closed={g}", 6 + 9 + 12 + 1),
        # past n_max = 4 the check still reads lambda = n up to n = 20:
        # (15, 15) follows the 42 cells of n <= 4 and the 10 of n = 5..14
        (15, "aps={g} thm3={g}", 42 + 10 + 1),
    ],
    ids=["4", "15"],
)
def test_formula_equivalence_fails_on_riordan_wrong_only_at_one_n(monkeypatch, n, routes, cells):
    real = formulas.riordan_l3
    monkeypatch.setattr(formulas, "riordan_l3", lambda m: real(m) + (m == n))
    results = run_verify(n_max=4)
    g = formulas.thm3_g(n, n)
    detail = f"n={n} lam={n}: {routes.format(g=g)} n!*riordan={g + math.factorial(n)}"
    assert failures(results) == [("formula-equivalence", detail, cells)]


def test_gnpq_structure_fails_on_a_surgery_that_keeps_the_rungs(monkeypatch):
    # G(n,0,q) has the 3n - q vertices of G(n,p,q).  gnpq-structure tells it
    # apart by its p extra rung edges alone, and the two engine checks that
    # read G(1,1,0) by its polynomial: at lambda = 2 the triangle G(1,0,0)
    # has 0 colourings, the path G(1,1,0) 2 and the edge G(1,0,1) 2
    monkeypatch.setattr(verify, "build_gnpq", lambda n, p, q: graphs.build_gnpq(n, 0, q))
    results = run_verify(n_max=1)
    assert failures(results) == [
        ("gnpq-structure", "G(1,1,0) has 3 edges, want 2", 7),
        # after the 12 cells of G(1,0,0) and G(1,0,1), and G(1,1,0) at lambda = 1
        ("surgery-closed-form", "n=1 p=1 q=0 lam=2: closed=2 engine=0", 14),
        ("theorem2-m-invariance", "n=1 m=1 lam=2: sum=-2 engine=0", 2),
    ]


def test_gnpq_structure_fails_on_a_line_graph_wrong_only_at_5(monkeypatch):
    # G(5) is built twice, from the cell rule and as the line graph of
    # K_{3,5}, the one K_{3,n} with 8 vertices; gnpq-structure's first cell
    # at n = 5, after the 72 of n <= 4, compares the two
    real = graphs.line_graph

    def wrong(g):
        return graphs.delete_edge(real(g), 0, 1) if g.vertex_count == 8 else real(g)

    monkeypatch.setattr(verify, "line_graph", wrong)
    results = run_verify(n_max=4)
    assert failures(results) == [
        (
            "gnpq-structure",
            "n=5: cell-rule and line-graph constructions differ",
            72 + 1,
        ),
    ]


def test_chromatic_shape_fails_on_unsigned_coefficients(monkeypatch):
    # |c_i| keeps the degree, the leading 1 and the zero constant term, so
    # only the sign rule can catch it
    real = verify.chromatic_poly
    monkeypatch.setattr(
        verify, "chromatic_poly", lambda g, **kw: Poly.of(map(abs, real(g, **kw).coefficients))
    )
    results = {r.name: r for r in run_verify(n_max=1)}
    shape = results["chromatic-shape"]
    assert not shape.passed
    assert shape.detail == "a 3-vertex graph has coefficients (0, 2, 3, 1)"


def test_chromatic_shape_checks_a_child_no_check_keeps(monkeypatch):
    # random graph #2's first identify child is compared by reduction-identity
    # and dropped: no other check reads it, so the run never keeps it, and
    # chromatic-shape must still see its unsigned coefficients
    run = verify._Run(1, verify.DEFAULT_SEED)
    child = graphs.identify(run.pool[2], *min(run.pool[2].edges))
    real = verify.chromatic_poly
    unsigned = Poly.of(map(abs, real(child).coefficients))
    monkeypatch.setattr(verify, "chromatic_poly", lambda g, **kw: unsigned if g == child else real(g, **kw))
    results = [verify._run_check(check, run) for check in verify._CHECKS]
    assert child not in run.polys
    assert [(name, detail) for name, detail, _ in failures(results)] == [
        ("reduction-identity", "random graph #2, edge (0,1): reduction identity fails"),
        ("chromatic-shape", "a 6-vertex graph has coefficients (0, 0, 2, 7, 9, 5, 1)"),
    ]


def _edit_walk(monkeypatch, edit):
    """Make oracle.enumerate_latin, the walk latin-bridge reads, yield
    edit(rects, n, lam) in place of its rectangles."""
    real = oracle.enumerate_latin

    def edited(n, lam):
        return iter(edit(list(real(n, lam)), n, lam))

    monkeypatch.setattr(oracle, "enumerate_latin", edited)


def test_enumeration_consistency_fails_on_a_repeated_rectangle(monkeypatch):
    # a repeat in place of a missing rectangle keeps the length, the order
    # and every rectangle valid; only latin-bridge's strict increase catches it
    _edit_walk(monkeypatch, lambda rects, n, lam: rects[:1] + rects[:-1])
    results = run_verify(n_max=1)
    assert failures(results) == [
        ("latin-bridge", "n=1 lam=3: output is not in lexicographic order", 3)
    ]


def _invalid_first(rects, n, lam):
    # row 2 of the first rectangle becomes all 0s: invalid, and still below
    # the second rectangle
    return rects and [rects[0][:2] + ((0,) * n,)] + rects[1:]


@pytest.mark.parametrize(
    "edit, detail",
    [
        (lambda rects, n, lam: rects[:-1], "n=1 lam=3: {routes} walk=5"),
        # past the last rectangle and above it, so only the count can fail;
        # reading want + 1 rectangles is what sees it
        (
            lambda rects, n, lam: rects and rects + [((lam + 1,) * n,) * 3],
            "n=1 lam=3: {routes} walk=7",
        ),
        # the walk goes on past the invalid first rectangle, so the count holds
        (_invalid_first, "n=1 lam=3: invalid rectangle ((1,), (2,), (0,))"),
        # a short count outranks an invalid rectangle, as the messages are ordered
        (
            lambda rects, n, lam: _invalid_first(rects, n, lam)[:-1],
            "n=1 lam=3: {routes} walk=5",
        ),
    ],
    ids=["dropped", "extra", "invalid", "invalid-and-short"],
)
def test_enumeration_consistency_fails_on_a_faulty_walk(monkeypatch, edit, detail):
    # (1, 3) is latin-bridge's third cell, and its first with rectangles
    _edit_walk(monkeypatch, edit)
    results = run_verify(n_max=1)
    routes = "count_latin=6 thm3=6 falling(lam,n)*pinned=6"
    assert failures(results) == [("latin-bridge", detail.format(routes=routes), 3)]


@pytest.mark.parametrize("name", ["latin-bridge", "derangement-oracle"])
def test_oracle_checks_stream_their_walks(name):
    # with the run's counts filled by a first latin-bridge, neither check may
    # hold its walk: a list of (3, 5)'s 27,480 rectangles would take about
    # 2.2 MiB, and injection chunks of 4,096 about 1.2 MiB
    run = verify._Run(3, verify.DEFAULT_SEED)
    checks = {check.name: check for check in verify._CHECKS}
    assert verify._run_check(checks["latin-bridge"], run).passed
    tracemalloc.start()
    try:
        result = verify._run_check(checks[name], run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result
    assert peak < 512 * 1024, f"{name} peaked at {peak // 1024} KiB"


def test_a_whole_run_keeps_only_the_polynomials_a_later_check_reads():
    # reduction-identity's 568 delete and identify children are checked and
    # dropped; a run that kept them all peaked at about 905 KiB
    tracemalloc.start()
    try:
        results = run_verify(n_max=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results), failures(results)
    assert peak < 640 * 1024, f"run_verify(n_max=4) peaked at {peak // 1024} KiB"


@pytest.mark.parametrize(
    "cell, detail, cells",
    [
        # F_1 = falling(3, 1) = 3 at d = 2, so b(4, 1) one too big reads
        # e(4, 1) three too big
        ((2, 4, 1), "n=5 d=2 m=4 s=1: band=216 oracle=213", 146),
        # D_8, the last cell read, is read only from column 0 at (8, 0)
        ((0, 8, 0), "n=8 d=0 m=8 s=0: band=14834 oracle=14833", 209),
    ],
    ids=["e(4,1)-at-d2", "D8"],
)
def test_derangement_oracle_fails_on_one_wrong_band_entry(monkeypatch, cell, detail, cells):
    # the entry b(m, s) at d is one too big in every band that holds it; the
    # routes bind derangement_columns themselves, so only the check reading
    # it through verify's name can fail
    real = comb.derangement_columns

    def wrong(n, d=0):
        for s, column in enumerate(real(n, d)):
            yield [e + ((d, m, s) == cell) for m, e in enumerate(column, s)]

    monkeypatch.setattr(verify.comb, "derangement_columns", wrong)
    results = run_verify(n_max=1)
    assert failures(results) == [("derangement-oracle", detail, cells)]


def test_oracle_checks_count_each_cell_once(monkeypatch):
    # latin-bridge alone reads count_latin's cells, and derangement-oracle
    # the injection walks, each one once however many band cells it grounds
    calls = {"count_latin": Counter(), "injection_counts": Counter()}
    for name in calls:
        real = getattr(oracle, name)

        def counted(*args, _real=real, _calls=calls[name]):
            _calls[args] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, counted)
    results = run_verify(n_max=4)
    assert all(r.passed for r in results)
    # the 20 latin-bridge cells, free and pinned
    assert len(calls["count_latin"]) == 40
    # every (lam, n) with n <= lam <= 7, and (8, 8)
    assert len(calls["injection_counts"]) == 37
    for counter in calls.values():
        assert set(counter.values()) == {1}


def test_runs_are_deterministic():
    first = render_report(run_verify(n_max=2))
    second = render_report(run_verify(n_max=2))
    assert first == second


@pytest.mark.parametrize(
    "cfg",
    [
        {"n_max": 0},
        {"n_max": 7},
    ],
)
def test_config_validation(cfg):
    with pytest.raises(ValueError, match=rf"^n_max must be in 1\.\.6, got {cfg['n_max']}$"):
        run_verify(**cfg)


def test_render_report_formats_failures():
    results = [
        CheckResult("good", True),
        CheckResult("bad", False, "n=2: 1 != 2"),
    ]
    report = render_report(results)
    lines = report.splitlines()
    assert lines[0] == "PASS good"
    assert lines[1] == "FAIL bad: n=2: 1 != 2"
    assert report.endswith("2 checks, 1 failed\n")


def test_render_report_all_passed_summary():
    report = render_report([CheckResult("only", True)])
    assert report == "PASS only\n1 checks, all passed\n"
