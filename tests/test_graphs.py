"""Tests for graph construction, surgery, and the text format."""

import itertools

import pytest
from hypothesis import given, strategies as st

from latin3.errors import GraphParseError
from latin3.graphs import (
    Graph,
    build_gn,
    build_gnpq,
    complete,
    complete_bipartite,
    delete_edge,
    gnpq_vertex_count,
    identify,
    line_graph,
    parse_graph,
)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@st.composite
def graphs(draw, max_vertices: int = 8):
    n = draw(st.integers(2, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def test_from_edges_normalizes_and_dedupes():
    g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.edge_count == 2
    assert g.has_edge(2, 0)
    masks = g.adjacency_masks()
    assert masks[2] == 0b011  # vertex 2's neighbours are 0 and 1
    assert masks[0].bit_count() == 1


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 0)}))  # unnormalized pair
    with pytest.raises(ValueError):
        Graph(-1, frozenset())
    with pytest.raises(ValueError, match="complete: n must be >= 0"):
        complete(-1)
    with pytest.raises(ValueError, match="build_gn: n must be >= 1"):
        build_gn(0)


def test_adjacency_masks():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.adjacency_masks() == (0b010, 0b101, 0b010)


def test_complete_bipartite_counts():
    assert complete_bipartite(1, 1).edge_count == 1
    g = complete_bipartite(3, 2)
    assert (g.vertex_count, g.edge_count) == (5, 6)
    assert complete_bipartite(3, 4).edge_count == 12
    with pytest.raises(ValueError):
        complete_bipartite(0, 2)


def test_line_graph_small():
    assert line_graph(path(3)) == complete(2)
    assert line_graph(complete(3)) == complete(3)
    lg = line_graph(complete_bipartite(3, 2))
    assert (lg.vertex_count, lg.edge_count) == (6, 9)
    assert lg == build_gn(2)


def test_build_gn_counts_and_labeled_equality():
    assert build_gn(1) == complete(3)
    for n in range(1, 6):
        g = build_gn(n)
        assert g.vertex_count == 3 * n
        assert g.edge_count == 3 * n * (n - 1) // 2 + 3 * n
        assert g == line_graph(complete_bipartite(3, n))


def test_gn_labeling():
    # cell (row i, column j), 0-based, is vertex i*n + j: two cells are
    # adjacent iff they share a row or a column
    for n in range(1, 5):
        g = build_gn(n)
        cells = [(i, j) for i in range(3) for j in range(n)]
        assert [i * n + j for i, j in cells] == list(range(g.vertex_count))
        for a, (i, j) in enumerate(cells):
            for b, (k, l) in enumerate(cells):
                if a < b:
                    assert g.has_edge(a, b) == (i == k or j == l)


def test_delete_edge():
    p = delete_edge(complete(3), 0, 1)
    assert p.edges == frozenset({(0, 2), (1, 2)})
    assert delete_edge(complete(2), 0, 1).edge_count == 0
    assert delete_edge(build_gn(2), 0, 2).edge_count == 8  # prism minus a rung
    with pytest.raises(ValueError):
        delete_edge(path(3), 0, 2)


def test_identify_small():
    assert identify(complete(2), 0, 1) == Graph(1, frozenset())
    assert identify(complete(3), 1, 2) == complete(2)
    leaves = identify(path(3), 0, 2)
    assert (leaves.vertex_count, leaves.edge_count) == (2, 1)


def test_identify_map_is_compact():
    # prism: merging 1 and 4 lands at 1 and moves 5 down to 4, so the five
    # vertices left are 0..4 and every one keeps an edge
    merged = identify(build_gn(2), 1, 4)
    assert merged == Graph.from_edges(
        5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    )
    assert {v for e in merged.edges for v in e} == set(range(5))


def test_identify_rejects_bad_vertices():
    with pytest.raises(ValueError):
        identify(complete(3), 1, 1)
    with pytest.raises(ValueError):
        identify(complete(3), 0, 5)


@given(graphs(), st.data())
def test_identify_symmetric(g, data):
    u = data.draw(st.integers(0, g.vertex_count - 1))
    v = data.draw(
        st.integers(0, g.vertex_count - 1).filter(lambda x: x != u)
    )
    assert identify(g, u, v) == identify(g, v, u)


def test_build_gnpq_counts():
    for n in range(1, 6):
        for p in range(n + 1):
            for q in range(n - p + 1):
                assert build_gnpq(n, p, q).vertex_count == 3 * n - q
                assert gnpq_vertex_count(n, p, q) == 3 * n - q


def test_build_gnpq_equals_delete_and_identify():
    # the one-pass build against the surgery done edge by edge: delete the
    # rungs of columns 1..p, then merge columns p+q..p+1, right to left
    for n in range(1, 7):
        for p in range(n + 1):
            for q in range(n - p + 1):
                g = build_gn(n)
                for j in range(p):
                    g = delete_edge(g, j, n + j)
                for j in reversed(range(p, p + q)):
                    g = identify(g, j, n + j)
                assert build_gnpq(n, p, q) == g, (n, p, q)


def test_build_gnpq_smallest_cases():
    p3 = build_gnpq(1, 1, 0)
    assert (p3.vertex_count, p3.edge_count) == (3, 2)
    assert build_gnpq(1, 0, 1) == complete(2)


def test_build_gnpq_rejects_bad_split():
    for build in (build_gnpq, gnpq_vertex_count):
        with pytest.raises(ValueError):
            build(2, 2, 1)
        with pytest.raises(ValueError):
            build(1, -1, 1)
        with pytest.raises(ValueError):
            build(0, 0, 0)


def test_gnpq_labeling_structure():
    g = build_gnpq(3, 1, 2)
    x1_1, y2, y3, x2_1 = 0, 1, 2, 3
    x3 = {j: 3 + j for j in (1, 2, 3)}
    # x1_2, x2_2, x1_3 and x2_3 became y2 and y3, so these seven cells are
    # all of the vertices
    assert sorted([x1_1, y2, y3, x2_1, *x3.values()]) == list(range(g.vertex_count))
    # the deleted column keeps both cells; merged vertices inherit row edges
    assert g.has_edge(y2, x1_1) and g.has_edge(y2, x2_1)
    assert g.has_edge(y2, y3)
    assert g.has_edge(y2, x3[2]) and g.has_edge(y3, x3[3])
    assert not g.has_edge(x1_1, x2_1)  # rung was deleted
    rows = [(x1_1, y2, y3), (x2_1, y2, y3), tuple(x3.values())]
    columns = [(x1_1, x3[1]), (x2_1, x3[1]), (y2, x3[2]), (y3, x3[3])]
    row_edges = [(a, b) for row in rows for a, b in itertools.combinations(row, 2)]
    assert g == Graph.from_edges(7, row_edges + columns)


def test_parse_graph_basic():
    text = "# a triangle\n3\n\n0 1\n1 2\n0 2\n"
    assert parse_graph(text) == complete(3)


def test_parse_graph_collapses_duplicates():
    assert parse_graph("2\n0 1\n1 0\n") == complete(2)


def test_format_parse_round_trip_fixed():
    for g in (complete(4), build_gn(2), Graph.from_edges(5, []), build_gnpq(2, 1, 1)):
        text = f"{g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
        assert parse_graph(text) == g


@given(graphs())
def test_format_parse_round_trip_random(g):
    # edges in set order, each written with its larger endpoint first
    text = f"{g.vertex_count}\n" + "".join(f"{v} {u}\n" for u, v in g.edges)
    assert parse_graph(text) == g


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("x\n", 1),
        ("3\n0 1 2\n", 2),
        ("3\n0 a\n", 2),
        ("# c\n3\n\n1 1\n", 4),
        ("2\n0 2\n", 2),
        ("-1\n", 1),
        ("3 4\n", 1),
    ],
)
def test_parse_graph_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line_number == line
