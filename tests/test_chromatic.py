"""Tests for the chromatic engine and its brute-force oracle."""

import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from latin3 import chromatic
from latin3.chromatic import (
    STAT_NAMES,
    Poly,
    _branch_pair,
    _chrom,
    _decode,
    _memo_key,
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


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    st.integers(-10, 10),
)
def test_poly_arithmetic_matches_evaluation(p, q, x):
    # unequal lengths, and sums, differences and products that cancel down
    # to a lower degree, all come back normalised as Poly.of leaves them
    a, b = Poly.of(p), Poly.of(q)
    for result, expected in (
        (a + b, eval_poly(a, x) + eval_poly(b, x)),
        (a - b, eval_poly(a, x) - eval_poly(b, x)),
        (a * b, eval_poly(a, x) * eval_poly(b, x)),
    ):
        assert eval_poly(result, x) == expected
        assert result.degree == 0 or result.coefficients[-1] != 0


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
    # vertex-transitive, so the memo key's ordering pass (one round of color
    # refinement, from degrees) leaves each one a single class and the key
    # rests on the tie-break alone.  The key is exact but not canonical, so
    # sharing one memo must still give each graph its own polynomial.  Both
    # have 12 edges, so one evaluation point 2**14 serves the shared memo.
    cube = Graph.from_edges(8, [(v, v ^ (1 << k)) for v in range(8) for k in range(3)])
    wagner = Graph.from_edges(
        8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    )
    s = 12 + 2
    memo: dict = {}
    for g in (cube, wagner):
        shared = _chrom(g.adjacency_masks(), s, memo, dict.fromkeys(STAT_NAMES, 0))
        assert _decode(shared, s, 8) == chromatic_poly(g, memoize=False)
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


def _union(*graphs: Graph) -> Graph:
    edges, shift = [], 0
    for g in graphs:
        edges += [(a + shift, b + shift) for a, b in g.edges]
        shift += g.vertex_count
    return Graph.from_edges(shift, edges)


def test_disconnected_graph_multiplies():
    # no rule splits components: the branchings alone must find
    # P(G u H) = P(G) P(H), also with several non-trivial components
    cases = [
        ((complete(3), complete(2)), 14),
        ((build_gn(3), build_gn(3)), 18),
        ((cycle(4), cycle(5)), 14),
        ((complete(4), complete(4), complete(2)), 14),
    ]
    for (parts, limit), memoize in itertools.product(cases, (True, False)):
        product = Poly((1,))
        for g in parts:
            product = product * chromatic_poly(g, memoize=memoize)
        union = _union(*parts)
        assert chromatic_poly(union, max_vertices=limit, memoize=memoize) == product, (parts, memoize)


def test_vertex_limit():
    with pytest.raises(VertexLimitError):
        chromatic_poly(build_gn(5))
    big = Graph.from_edges(15, [])
    with pytest.raises(VertexLimitError):
        chromatic_poly(big)
    assert chromatic_poly(big, max_vertices=15).degree == 15


def _degrees(adj):
    return [m.bit_count() for m in adj]


def _adjacency(n, edges):
    return Graph.from_edges(n, edges).adjacency_masks()


def _branch_pair_of(n, edges):
    adj = _adjacency(n, edges)
    return _branch_pair(adj, _degrees(adj))


def test_branch_pair_adds_on_a_fill_below_the_least_degree():
    # the 4-cycle: every fill is 1, below the degree 2, and the tie goes to
    # vertex 0, whose neighbours 1 and 3 are the missing pair
    assert _branch_pair_of(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == (1, 3)
    # K4 minus the edge 2-3: 0's lowest neighbour 1 sees 2 and 3, so the
    # pair is 2-3, not one of 1's
    assert _branch_pair_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]) == (2, 3)
    # the wheel with its hub at 0: the hub's fill is 5, each rim vertex's 1,
    # so the least fill beats the lowest index, and rim vertex 1 misses 2-5
    rim = [(v, v % 5 + 1) for v in range(1, 6)]
    assert _branch_pair_of(6, [(0, v) for v in range(1, 6)] + rim) == (2, 5)
    # the octahedron, parts {0, 1}, {2, 3}, {4, 5}: every fill is 2, below the
    # degree 4, so the scan runs on past vertex 0, and 0's first missing
    # pair is 2-3
    octahedron = [(a, b) for a, b in itertools.combinations(range(6), 2) if a // 2 != b // 2]
    assert _branch_pair_of(6, octahedron) == (2, 3)


def test_branch_pair_deletes_at_a_least_degree_vertex():
    # star with its center at 0: the center's fill, 6, is not below the
    # least degree 1; the leaf 1 is the least-degree vertex, and the pair
    # comes back as (min, max)
    assert _branch_pair_of(5, [(0, v) for v in range(1, 5)]) == (0, 1)
    # path 3-1-0-2: fill 1 is not below degree 1; the endpoints 2 and 3 have
    # degree 1, and 2 wins the tie
    assert _branch_pair_of(4, [(3, 1), (1, 0), (0, 2)]) == (0, 2)
    # the bowtie, triangles 0-1-2 and 1-3-4: only the centre 1 has a fill, 4;
    # of 0's neighbours 1 (degree 4) and 2 (degree 2), the least-degree one
    # is taken, not the lowest index
    assert _branch_pair_of(5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (3, 4)]) == (0, 2)
    # K_{3,3}: every fill is 3, not below the degree 3, so vertex 0 and its
    # lowest neighbour 3
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert _branch_pair_of(6, k33) == (0, 3)


def test_engine_node_counts_stay_bounded():
    # A node is one recursion call, which removes every simplicial vertex it
    # can.  Choosing addition or deletion by fill-in, G(4) takes 119 nodes,
    # G(5) 275, G(4,1,1) 37 and G(4,2,2) 27; the density test took 131, 309,
    # 105 and 75 (G(4) took 394 when each removal was a node of its own, and
    # 4,668 at the edge of greatest endpoint degree sum).
    for g, bound in (
        (build_gn(4), 125),
        (build_gn(5), 290),
        (build_gnpq(4, 1, 1), 45),
        (build_gnpq(4, 2, 2), 35),
    ):
        stats: dict = {}
        chromatic_poly(g, max_vertices=15, stats=stats)
        assert stats["nodes"] <= bound, (g.vertex_count, stats)


def _random_tree_edges(rng, n):
    return [(v, rng.randrange(v)) for v in range(1, n)]


def test_paths_trees_and_cliques_take_one_node():
    # the root removes every vertex by the simplicial rule, one after another
    rng = random.Random(31)
    for g in (path(7), Graph.from_edges(10, _random_tree_edges(rng, 10)), complete(6)):
        stats: dict = {}
        chromatic_poly(g, stats=stats)
        assert stats["nodes"] == 1, stats
        assert stats["simplicial"] == g.vertex_count, stats


def _bridge_side(rng):
    # a seeded bipartite graph between vertices 0..3 and three or four more,
    # redrawn until vertex 0 has degree 2 and neighbours of degree >= 4, and
    # every other vertex degree >= 3.  Having no triangle, a vertex of degree
    # d has C(d, 2) >= d non-adjacent pairs among its neighbours.
    while True:
        k = rng.randint(3, 4)
        pairs = [(a, b) for a in range(4) for b in range(4, 4 + k)]
        g = Graph.from_edges(4 + k, rng.sample(pairs, rng.randint(9, len(pairs))))
        masks = g.adjacency_masks()
        degrees = _degrees(masks)
        hub = [degrees[v] for v in range(4 + k) if masks[0] >> v & 1]
        if len(hub) == 2 and min(hub) >= 4 and min(degrees[1:]) >= 3:
            return g


@pytest.mark.parametrize("memoize", [True, False])
def test_bridge_multiplies_the_sides(memoize):
    # P(G1 + bridge + G2) = P(G1) P(G2) (lambda - 1) / lambda, the bridge
    # joining the two sides' vertices 0.  Those have degree 3, the least, and
    # every vertex has at least as many missing pairs among its neighbours as
    # its degree, so the root deletes at vertex 0, and its least-degree
    # neighbour is the bridge's far end: the deletion disconnects the graph,
    # and the recursion below it must still multiply the sides out right.
    rng = random.Random(47)
    for _ in range(10):
        g1, g2 = _bridge_side(rng), _bridge_side(rng)
        n1 = g1.vertex_count
        e2 = [(a + n1, b + n1) for a, b in g2.edges]
        joined = Graph.from_edges(n1 + g2.vertex_count, [*g1.edges, *e2, (0, n1)])
        stats: dict = {}
        p = chromatic_poly(joined, max_vertices=16, memoize=memoize, stats=stats)
        p1 = chromatic_poly(g1, memoize=memoize)
        p2 = chromatic_poly(g2, memoize=memoize)
        assert p * Poly((0, 1)) == p1 * p2 * Poly((-1, 1)), sorted(joined.edges)
        assert stats["deletion"] > 0, stats


def test_memo_shared_across_relabelings():
    # one memo across a graph and seeded relabelings of it: whatever the
    # relabeling does to the keys, every call returns the unmemoized polynomial
    # (a relabeling keeps the edge count, so one evaluation point per graph)
    rng = random.Random(53)
    graphs = [build_gn(3), build_gnpq(3, 1, 1)]
    graphs += random_graphs(seed=59, count=3, min_vertices=9, max_vertices=10)
    stats: dict = dict.fromkeys(STAT_NAMES, 0)
    for g in graphs:
        want = chromatic_poly(g, memoize=False)
        s = g.edge_count + 2
        memo: dict = {}
        for _ in range(6):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            relabeled = Graph.from_edges(g.vertex_count, [(perm[a], perm[b]) for a, b in g.edges])
            value = _chrom(relabeled.adjacency_masks(), s, memo, stats)
            assert _decode(value, s, g.vertex_count) == want
    assert stats["memo_hits"] > 0, stats


def test_negative_max_vertices_is_a_value_error():
    stats: dict = {}
    with pytest.raises(ValueError, match="max_vertices must be >= 0, got -1"):
        chromatic_poly(complete(2), max_vertices=-1, stats=stats)
    assert stats == dict.fromkeys(STAT_NAMES, 0)
    assert chromatic_poly(Graph.from_edges(0, []), max_vertices=0).coefficients == (1,)


def test_stats_hold_every_counter_after_a_vertex_limit_error():
    stats: dict = {}
    with pytest.raises(VertexLimitError):
        chromatic_poly(build_gn(5), stats=stats)
    assert stats == dict.fromkeys(STAT_NAMES, 0)


def test_recursion_past_python_limit_is_a_budget_error():
    # each level of C600's first branch removes one vertex, so the
    # recursion passes the default limit of 1000 frames long before the end
    cycle = Graph.from_edges(600, [(v, (v + 1) % 600) for v in range(600)])
    stats: dict = {}
    with pytest.raises(BudgetExceededError, match=r"recursion limit: visited \d+ nodes"):
        chromatic_poly(cycle, max_vertices=600, stats=stats)
    assert set(stats) == set(STAT_NAMES)
    assert stats["nodes"] > 0


def _fills(adj):
    """Each vertex's fill, the non-adjacent pairs among its neighbours, by
    pairs of vertices; shares no code with the engine."""
    n = len(adj)
    return [
        sum(
            1
            for a, b in itertools.combinations(range(n), 2)
            if adj[w] >> a & 1 and adj[w] >> b & 1 and not adj[a] >> b & 1
        )
        for w in range(n)
    ]


def test_branch_pair_follows_fills_and_degrees():
    # against fills counted pair by pair: addition on a pair of neighbours
    # that the lowest least-fill vertex misses when that fill is below the
    # least degree, else deletion on an edge at the lowest least-degree
    # vertex, to a neighbour of least degree.  _branch meets no isolated
    # vertex, so graphs with one are skipped.
    rules = set()
    for g in random_graphs(seed=67, count=40, min_vertices=4, max_vertices=9):
        adj = g.adjacency_masks()
        fills, degrees = _fills(adj), _degrees(adj)
        positive = [f for f in fills if f]
        if not positive or not min(degrees):
            continue
        u, v = _branch_pair(adj, degrees)
        assert u < v, sorted(g.edges)
        if min(positive) < min(degrees):
            rules.add("addition")
            w = fills.index(min(positive))
            assert adj[w] >> u & 1 and adj[w] >> v & 1, sorted(g.edges)
            assert not adj[u] >> v & 1, sorted(g.edges)
        else:
            rules.add("deletion")
            w = degrees.index(min(degrees))
            assert w in (u, v) and adj[u] >> v & 1, sorted(g.edges)
            other = v if w == u else u
            assert degrees[other] == min(degrees[x] for x in range(len(adj)) if adj[w] >> x & 1)
    assert rules == {"addition", "deletion"}


def test_branch_pair_rejects_all_simplicial_adjacency():
    # a clique, an edgeless graph and a triangle beside an edge: every vertex
    # is simplicial, so no pair is missing
    triangle_and_edge = _adjacency(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    for adj in ((0b110, 0b101, 0b011), (0, 0, 0), triangle_and_edge):
        with pytest.raises(ValueError):
            _branch_pair(adj, _degrees(adj))


def test_branch_pair_rejects_a_clique_under_optimize(latin3_env):
    # python -O strips asserts, so the check must be an explicit raise
    code = (
        "from latin3.chromatic import _branch_pair\n"
        "try:\n    _branch_pair((0b110, 0b101, 0b011), [2, 2, 2])\n"
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
    with pytest.raises(ValueError, match="node_budget must be >= 1, got 0"):
        count_colorings_bruteforce(complete(3), 3, node_budget=0)
    with pytest.raises(BudgetExceededError):
        count_colorings_bruteforce(build_gn(2), 4, node_budget=10)
    # The triangle on 3 colors: the 10th attempt is the one past a budget of
    # 9, after the colorings (1,2,3) and (1,3,2) were completed.
    with pytest.raises(BudgetExceededError, match="visited 10 nodes, completed 2 colorings"):
        count_colorings_bruteforce(complete(3), 3, node_budget=9)


def test_bruteforce_searches_past_800_vertices():
    # The search is a loop, not a recursion, so it has no depth limit: it
    # colors graphs well past the 800 levels count_latin is allowed.
    assert count_colorings_bruteforce(path(1600), 2) == 2
    assert count_colorings_bruteforce(path(1600), 1) == 0
    # G(267) has 801 vertices; on 2 colors vertex 2 closes a triangle of row 1
    assert count_colorings_bruteforce(build_gn(267), 2) == 0
    # a triangle closed at vertex 800 of the long path leaves no 2-coloring
    g = Graph.from_edges(1600, set(path(1600).edges) | {(798, 800)})
    assert count_colorings_bruteforce(g, 2) == 0


def test_bruteforce_stats_count_every_attempt():
    # Two isolated vertices on 3 colors: 3 attempts for the first, then 3
    # for the second under each of its colors.
    stats: dict = {}
    assert count_colorings_bruteforce(Graph.from_edges(2, []), 3, stats=stats) == 9
    assert stats == {"nodes": 12}
    # the triangle's nodes are added to what the dict holds, also when the
    # budget stops the search
    with pytest.raises(BudgetExceededError, match="visited 10 nodes"):
        count_colorings_bruteforce(complete(3), 3, node_budget=9, stats=stats)
    assert stats == {"nodes": 22}


def _bruteforce_scanning_neighbors(g, lam, node_budget=10**9, stats=None):
    """count_colorings_bruteforce as it was before the neighbor bitmask: each
    attempt scans the earlier neighbors' colors one by one."""
    n = g.vertex_count
    earlier = [[w for w in range(v) if g.has_edge(v, w)] for v in range(n)]
    colors = [0] * n
    count = 0
    nodes = 0

    def fill(v):
        nonlocal count, nodes
        if v == n:
            count += 1
            return
        for c in range(1, lam + 1):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"coloring search exceeded the node budget of {node_budget}: "
                    f"visited {nodes} nodes, completed {count} colorings"
                )
            if all(colors[w] != c for w in earlier[v]):
                colors[v] = c
                fill(v + 1)
        colors[v] = 0

    try:
        fill(0)
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
    return count


def _outcome(search, g, lam, node_budget=10**9):
    """(value or error text, stats) of one brute-force search."""
    stats: dict = {}
    try:
        return search(g, lam, node_budget=node_budget, stats=stats), stats
    except BudgetExceededError as err:
        return str(err), stats


# (vertices, density) of the random graphs of the engine benchmark
ENGINE_STRATA = (
    (8, 0.3), (8, 0.5), (8, 0.7), (9, 0.3), (9, 0.5),
    (9, 0.7), (10, 0.3), (10, 0.5), (11, 0.3), (11, 0.7),
)


def test_bruteforce_bitmask_keeps_every_outcome():
    rng = random.Random(1)
    for vertices, density in ENGINE_STRATA:
        pairs = list(itertools.combinations(range(vertices), 2))
        g = Graph.from_edges(vertices, rng.sample(pairs, round(density * len(pairs))))
        for lam in range(5):
            want = _outcome(_bruteforce_scanning_neighbors, g, lam)
            assert _outcome(count_colorings_bruteforce, g, lam) == want, (sorted(g.edges), lam)
            if lam > 3:
                continue
            # every budget up to one past the search's N nodes at lam <= 2;
            # at lam = 3, where N reaches 5,000, about 25 spread over 1..N+1
            nodes = want[1]["nodes"]
            step = 1 if lam < 3 else max(1, nodes // 24)
            for budget in sorted({*range(1, nodes + 2, step), nodes, nodes + 1} - {0}):
                want_b = _outcome(_bruteforce_scanning_neighbors, g, lam, budget)
                got = _outcome(count_colorings_bruteforce, g, lam, budget)
                assert got == want_b, (sorted(g.edges), lam, budget)


def _bare_dc(n, edges):
    """P(G) by bare deletion-contraction on a vertex count and a frozenset of
    edges (any labels): no shortcut, no memo, shares no code with the engine."""
    if not edges:
        return (0,) * n + (1,)
    e = min(edges)
    u, v = e
    rest = edges - {e}
    relabel = {v: u}
    merged = frozenset(
        tuple(sorted((relabel.get(a, a), relabel.get(b, b)))) for a, b in rest
    )
    deleted, contracted = _bare_dc(n, rest), _bare_dc(n - 1, merged) + (0,)
    return tuple(x - y for x, y in zip(deleted, contracted))


def test_every_graph_on_five_vertices_matches_bare_deletion_contraction():
    pairs = list(itertools.combinations(range(5), 2))
    stats: dict = {}
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        g = Graph.from_edges(5, edges)
        want = Poly.of(_bare_dc(5, edges))
        assert chromatic_poly(g, stats=stats) == want, sorted(edges)
        assert chromatic_poly(g, memoize=False) == want, sorted(edges)
    # every rule but deletion fired: on five vertices every graph that
    # branches has a vertex whose fill is below the least degree
    rules = ("simplicial", "addition")
    assert all(stats[name] > 0 for name in rules), stats


PETERSEN = Graph.from_edges(
    10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


def _seeded_graphs():
    rng = random.Random(2024)
    out = []
    for vertices in range(7, 11):
        pairs = list(itertools.combinations(range(vertices), 2))
        for density in (0.35, 0.6, 0.7, 0.8, 0.9):
            out.append(Graph.from_edges(vertices, rng.sample(pairs, round(density * len(pairs)))))
    # the Petersen graph, 3-regular with 3 missing pairs around every vertex,
    # which the engine branches on by deletion
    out.append(PETERSEN)
    # K_8 minus a perfect matching; the fan on 8 vertices (a path plus an apex),
    # whose vertices become simplicial one after another
    out.append(Graph.from_edges(8, [p for p in itertools.combinations(range(8), 2) if p[1] != p[0] + 4]))
    out.append(Graph.from_edges(8, [(i, i + 1) for i in range(6)] + [(i, 7) for i in range(7)]))
    return out


@pytest.mark.parametrize("memoize", [True, False])
def test_seeded_graphs_match_bruteforce(memoize):
    stats: dict = {}
    for g in _seeded_graphs():
        poly = chromatic_poly(g, memoize=memoize, stats=stats)
        for lam in (3, 4):
            assert eval_poly(poly, lam) == count_colorings_bruteforce(g, lam), sorted(g.edges)
    assert stats["addition"] > 0 and stats["deletion"] > 0, stats


def test_cocktail_party_and_fan_hand_values():
    cocktail, fan = _seeded_graphs()[-2:]
    # the four non-adjacent pairs of K_8 minus a matching need four colors,
    # so with four colors each pair takes one: 4! colorings
    assert [eval_poly(chromatic_poly(cocktail), lam) for lam in (3, 4)] == [0, 24]
    # apex, then each path vertex joins an edge: lambda (lambda-1) (lambda-2)^6
    want = Poly((0, 1)) * Poly((-1, 1))
    for _ in range(6):
        want = want * Poly((-2, 1))
    assert chromatic_poly(fan) == want


def test_stats_repeat_exactly():
    first: dict = {}
    second: dict = {}
    chromatic_poly(build_gn(3), stats=first)
    chromatic_poly(build_gn(3), stats=second)
    assert list(first) == list(STAT_NAMES)
    assert first == second
    assert first["nodes"] > 0


def test_stats_count_every_memo_lookup(monkeypatch):
    # every _branch call looks the graph up in the memo, so the hits and
    # misses add up to those calls; the full key is built only in a
    # bucket (sorted degrees) that some graph has reached before
    branches = []
    keys = []
    real_branch, real_key = chromatic._branch, chromatic._memo_key

    def counted_branch(adj, s, memo, stats):
        branches.append(adj)
        return real_branch(adj, s, memo, stats)

    def counted_key(adj, degrees):
        keys.append(adj)
        return real_key(adj, degrees)

    monkeypatch.setattr(chromatic, "_branch", counted_branch)
    monkeypatch.setattr(chromatic, "_memo_key", counted_key)
    stats: dict = {}
    chromatic_poly(build_gn(4), stats=stats)
    lookups = stats["memo_hits"] + stats["memo_misses"]
    assert lookups == len(branches) == 89, stats
    # 52 of G(4)'s 89 lookups land in a bucket no graph has reached yet, and
    # build no key (the other 37 build theirs, plus 17 buckets' first graphs)
    assert len(keys) == 54 < lookups
    # each miss stores one memo entry; branching by fill-in leaves G(4)'s
    # memo with 59 entries
    assert stats["memo_misses"] < 200
    assert stats["addition"] > 0 and stats["simplicial"] > 0

    keys.clear()
    branches.clear()
    unmemoized: dict = {}
    chromatic_poly(build_gn(3), memoize=False, stats=unmemoized)
    assert branches and keys == []
    assert unmemoized["memo_hits"] == unmemoized["memo_misses"] == 0


def test_lazy_memo_keeps_every_counter():
    # The two-level memo changes which full keys are built and nothing else:
    # over G(1..5), every G(n,p,q) with n <= 4 and p + q <= n, and a seeded
    # random pool, the summed counters are those of the one-level memo, and
    # every polynomial is the unmemoized one.  A bucket that dropped its
    # first graph on keying would miss where the one-level memo hit.
    graphs = [build_gn(n) for n in range(1, 6)]
    graphs += [
        build_gnpq(n, p, q) for n in range(1, 5) for p in range(n + 1) for q in range(n + 1 - p)
    ]
    graphs += random_graphs(1729)
    assert len(graphs) == 89
    total = dict.fromkeys(STAT_NAMES, 0)
    for g in graphs:
        poly = chromatic_poly(g, max_vertices=15, stats=total)
        assert poly == chromatic_poly(g, max_vertices=15, memoize=False), sorted(g.edges)
    assert total == {
        "nodes": 1399, "memo_hits": 291, "memo_misses": 655, "simplicial": 3298,
        "deletion": 19, "addition": 636,
    }


def _falling_poly(n):
    out = Poly((1,))
    for j in range(n):
        out = out * Poly((-j, 1))
    return out


def _assert_whitney_bound(g, poly):
    # |a_i| <= C(E, v - i): the bound the engine's one-integer evaluation at
    # 2**(E + 2) rests on
    v, e = g.vertex_count, g.edge_count
    for i, c in enumerate(poly.coefficients):
        assert abs(c) <= math.comb(e, v - i), (sorted(g.edges), i, c)


@pytest.mark.parametrize("memoize", [True, False])
def test_forests_reach_whitney_bound_exactly(memoize):
    # a forest with c components and E edges has P = lambda^c (lambda - 1)^E,
    # so |a_{v-k}| = C(E, k): every coefficient sits on the bound itself
    path14 = path(14)
    star = Graph.from_edges(14, [(0, v) for v in range(1, 14)])
    forest = Graph.from_edges(14, [(i, i + 1) for i in range(6)] + [(7, v) for v in range(8, 14)])
    for g in (path14, star, forest):
        e = g.edge_count
        components = g.vertex_count - e
        poly = chromatic_poly(g, memoize=memoize)
        want = Poly((0,) * components + (1,))
        for _ in range(e):
            want = want * Poly((-1, 1))
        assert poly == want, sorted(g.edges)
        for k in range(e + 1):
            assert abs(poly.coefficients[g.vertex_count - k]) == math.comb(e, k)


def test_complete_graphs_decode_to_the_falling_factorial():
    for n in range(15):
        poly = chromatic_poly(complete(n))
        assert poly == _falling_poly(n), n
        _assert_whitney_bound(complete(n), poly)


def test_dense_fourteen_vertex_graphs_decode_with_and_without_memo():
    # K_14 minus a perfect matching: each of the 7 non-adjacent pairs shares a
    # color or not, and all color classes are distinct otherwise, so
    # P = sum_j C(7, j) falling(lambda, 14 - j)
    cocktail = Graph.from_edges(
        14, [p for p in itertools.combinations(range(14), 2) if p[1] != p[0] + 7]
    )
    want = Poly((0,))
    for j in range(8):
        want = want + Poly((math.comb(7, j),)) * _falling_poly(14 - j)
    rng = random.Random(61)
    pairs = list(itertools.combinations(range(14), 2))
    dense = Graph.from_edges(14, rng.sample(pairs, 80))
    for g in (cocktail, dense):
        stats: dict = {}
        with_memo = chromatic_poly(g, stats=stats)
        assert with_memo == chromatic_poly(g, memoize=False), sorted(g.edges)
        _assert_whitney_bound(g, with_memo)
        assert stats["addition"] > 0, stats
    assert chromatic_poly(cocktail) == want


def test_decode_reads_balanced_digits():
    # P(lambda) = lambda^3 - 3 lambda^2 + 2 lambda at lambda = 2**4, and a
    # digit of exactly -2**(s-1), the lowest one a digit may hold
    assert _decode(16**3 - 3 * 16**2 + 2 * 16, 4, 3) == Poly((0, 2, -3, 1))
    assert _decode(16**2 - 8, 4, 2) == Poly((-8, 0, 1))
    assert _decode(1, 2, 0) == Poly((1,))


def _reference_key(adj):
    """The memo key's ordering as a sort on (degree, negated neighbor counts
    per degree class) tuples, and the relabeled edge set it induces."""
    n = len(adj)
    nbrs = [[u for u in range(n) if adj[v] >> u & 1] for v in range(n)]
    degrees = [len(x) for x in nbrs]
    classes = sorted(set(degrees))
    sig = [(degrees[v], [-sum(degrees[u] == c for u in nbrs[v]) for c in classes]) for v in range(n)]
    order = sorted(range(n), key=sig.__getitem__)
    pos = {v: i for i, v in enumerate(order)}
    return n, frozenset((pos[v], pos[u]) for v in range(n) for u in nbrs[v])


def _key_edges(key):
    n, code = key
    return n, frozenset((i, j) for i in range(n) for j in range(n) if code >> (i * n + j) & 1)


def _swap_two_edges(rng, g):
    # a degree-preserving double edge swap: ab, cd -> ac, bd
    edges = sorted(g.edges)
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            return Graph.from_edges(g.vertex_count, (g.edges - {(a, b), (c, d)}) | {(a, c), (b, d)})


def test_memo_key_is_exact_past_four_bit_counts():
    # On 17-20 vertices a neighbor count within one degree class reaches 16
    # and needs a fifth bit per field: K_n minus a perfect matching and one
    # more edge has a degree class of n - 2 or more vertices.  The key must be
    # the matrix relabeled by the reference ordering, so relabelings of one
    # graph and degree-preserving swaps of it (different graphs, same degrees)
    # never share a key unless their matrices agree.
    rng = random.Random(67)
    inputs = []
    for n in range(17, 21):
        pairs = list(itertools.combinations(range(n), 2))
        sparse = Graph.from_edges(n, rng.sample(pairs, round(0.3 * len(pairs))))
        near_complete = Graph.from_edges(
            n, [p for p in pairs if p[1] != p[0] + n // 2 and p != (0, 1)]
        )
        for base in (sparse, near_complete):
            for g in (base, _swap_two_edges(rng, base)):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    inputs.append(
                        Graph.from_edges(n, [(perm[a], perm[b]) for a, b in g.edges]).adjacency_masks()
                    )
    keys = [_memo_key(adj, _degrees(adj)) for adj in inputs]
    refs = [_reference_key(adj) for adj in inputs]
    assert len(set(keys)) < len(keys)  # some relabelings do share a key
    for key, ref in zip(keys, refs):
        assert _key_edges(key) == ref
    for i, j in itertools.combinations(range(len(inputs)), 2):
        assert (keys[i] == keys[j]) == (refs[i] == refs[j])
