"""Tests for the deletion-contraction chromatic engine."""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from latin3.chromatic import (
    Poly,
    _chrom,
    _pick_edge,
    chromatic_poly,
    count_colorings_bruteforce,
    eval_poly,
)
from latin3.errors import BudgetExceededError, VertexLimitError
from latin3.graphs import Graph, build_gn, build_gnpq, complete, delete_edge, identify
from latin3.verify import random_graphs


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# A small zoo exercising components, cliques, trees, cycles, and the general
# recursion. g211 is the 5-vertex graph the surgery path produces first.
FIXED_FAMILY = [
    complete(1),
    Graph.from_edges(3, []),
    path(4),
    cycle(5),
    delete_edge(complete(4), 0, 1),
    Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),  # bull
    Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    build_gn(2),  # the 3-prism
    build_gnpq(2, 1, 1),
]


def test_poly_normalization():
    assert Poly.of([0, 2, -3, 1, 0, 0]).coefficients == (0, 2, -3, 1)
    assert Poly.of([]).coefficients == (0,)
    assert Poly.of([0]).degree == 0
    with pytest.raises(ValueError):
        Poly((1, 0))
    with pytest.raises(ValueError):
        Poly(())


def test_poly_arithmetic():
    x_plus = Poly((1, 1))
    x_minus = Poly((-1, 1))
    assert (x_plus * x_minus).coefficients == (-1, 0, 1)
    assert (x_plus - x_minus).coefficients == (2,)
    assert (x_plus + x_minus).coefficients == (0, 2)


def test_eval_poly():
    k3 = chromatic_poly(complete(3))
    assert eval_poly(k3, 3) == 6
    assert eval_poly(k3, 0) == 0
    assert eval_poly(Poly.of([7]), 0) == 7


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    st.integers(-10, 10),
)
def test_eval_poly_matches_power_sum(coeffs, x):
    expected = sum(c * x**i for i, c in enumerate(coeffs))
    assert eval_poly(Poly.of(coeffs), x) == expected


def test_base_cases():
    assert chromatic_poly(Graph.from_edges(3, [])).coefficients == (0, 0, 0, 1)
    assert chromatic_poly(complete(3)).coefficients == (0, 2, -3, 1)
    assert chromatic_poly(Graph.from_edges(0, [])).coefficients == (1,)
    assert chromatic_poly(path(4)).coefficients == Poly.of([0, -1, 3, -3, 1]).coefficients


def test_k4_against_bruteforce():
    poly = chromatic_poly(complete(4))
    assert eval_poly(poly, 4) == 24
    assert count_colorings_bruteforce(complete(4), 4) == 24


@pytest.mark.parametrize("g", FIXED_FAMILY, ids=lambda g: f"{g.vertex_count}v{g.edge_count}e")
def test_engine_matches_bruteforce(g):
    poly = chromatic_poly(g)
    for lam in range(6):
        assert eval_poly(poly, lam) == count_colorings_bruteforce(g, lam)


def test_prism_values():
    poly = chromatic_poly(build_gn(2))
    assert poly.degree == 6
    assert eval_poly(poly, 3) == 12


def test_deletion_contraction_identity_random():
    for g in random_graphs(seed=7, count=12, max_vertices=6):
        p = chromatic_poly(g)
        for u, v in sorted(g.edges):
            deleted = chromatic_poly(delete_edge(g, u, v))
            contracted = chromatic_poly(identify(g, u, v))
            assert p.coefficients == (deleted - contracted).coefficients


def test_memoization_is_transparent():
    # G(4,2,2) (10 vertices) and an 11-vertex graph run the memo on larger graphs
    graphs = random_graphs(seed=11, count=8, max_vertices=6)
    graphs.append(build_gnpq(4, 2, 2))
    graphs += random_graphs(seed=13, count=1, min_vertices=11, max_vertices=11)
    for g in graphs:
        with_memo = chromatic_poly(g, memoize=True)
        without = chromatic_poly(g, memoize=False)
        assert with_memo == without


def test_memo_shared_by_graphs_refinement_cannot_split():
    # The cube Q3 and the Wagner graph are non-isomorphic, 3-regular and
    # vertex-transitive, so color refinement leaves each one a single class and
    # the memo key rests on the tie-break alone.
    cube = Graph.from_edges(8, [(v, v ^ (1 << k)) for v in range(8) for k in range(3)])
    wagner = Graph.from_edges(
        8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    )
    memo: dict = {}
    for g in (cube, wagner):
        shared = _chrom(g.adjacency_masks(), memo)
        assert Poly.of(shared) == chromatic_poly(g, memoize=False)
    assert chromatic_poly(cube) != chromatic_poly(wagner)


def test_shape_invariants():
    for g in random_graphs(seed=13, count=15, max_vertices=7):
        coeffs = chromatic_poly(g).coefficients
        assert len(coeffs) == g.vertex_count + 1
        assert coeffs[-1] == 1
        if g.vertex_count > 0:
            assert coeffs[0] == 0
        # nonzero coefficients alternate in sign starting from the top
        for i, c in enumerate(coeffs):
            if c != 0:
                assert c * (-1) ** (g.vertex_count - i) > 0


def test_disconnected_graph_multiplies():
    tri_plus_edge = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    product = chromatic_poly(complete(3)) * chromatic_poly(complete(2))
    assert chromatic_poly(tri_plus_edge) == product


def test_vertex_limit():
    with pytest.raises(VertexLimitError):
        chromatic_poly(build_gn(5))
    big = Graph.from_edges(15, [])
    with pytest.raises(VertexLimitError):
        chromatic_poly(big)
    assert chromatic_poly(big, max_vertices=15).degree == 15


def test_pick_edge_rejects_edgeless_adjacency():
    assert _pick_edge((0b10, 0b01)) == (0, 1)
    with pytest.raises(ValueError):
        _pick_edge((0, 0, 0))


def test_pick_edge_rejects_edgeless_adjacency_under_optimize(latin3_env):
    # python -O strips asserts, so the check must be an explicit raise
    code = (
        "from latin3.chromatic import _pick_edge\n"
        "try:\n    _pick_edge((0, 0, 0))\n"
        "except ValueError:\n    print('ValueError')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, env=latin3_env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "ValueError"


def test_bruteforce_edge_cases():
    assert count_colorings_bruteforce(complete(3), 2) == 0
    assert count_colorings_bruteforce(Graph.from_edges(0, []), 5) == 1
    with pytest.raises(ValueError):
        count_colorings_bruteforce(complete(3), -1)
    with pytest.raises(BudgetExceededError):
        count_colorings_bruteforce(build_gn(2), 4, node_budget=10)
