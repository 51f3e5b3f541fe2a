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
    _chrom,
    _decode,
    _memo_key,
    _pick_edge,
    _pick_non_edge,
    chromatic_poly,
    count_colorings_bruteforce,
    eval_poly,
)
from latin3.errors import MAX_SEARCH_DEPTH, BudgetExceededError, VertexLimitError
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
        shared = _chrom(g.adjacency_masks(), s, memo)
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


def _adjacency(n, edges):
    return Graph.from_edges(n, edges).adjacency_masks()


def test_pick_edge_takes_a_least_degree_vertex():
    # star with its center at 0: the leaf 1 is the least-degree vertex, and
    # the pair comes back as (min, max)
    assert _pick_edge(_adjacency(5, [(0, v) for v in range(1, 5)])) == (0, 1)
    # path 3-1-0-2: the endpoints 2 and 3 have degree 1; 2 wins the tie
    assert _pick_edge(_adjacency(4, [(3, 1), (1, 0), (0, 2)])) == (0, 2)
    # 0, 2 and 4 tie at degree 2, so u = 0; of its neighbors 1 (degree 3)
    # and 2 (degree 2), the least-degree one is taken, not the lowest index
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    assert _pick_edge(_adjacency(5, edges)) == (0, 2)
    # an isolated vertex is skipped; around the 4-cycle 1-2-3-4 every degree
    # ties, so the lowest indices win
    assert _pick_edge(_adjacency(5, [(1, 2), (2, 3), (3, 4), (4, 1)])) == (1, 2)


def test_engine_node_counts_stay_bounded():
    # A node is one recursion call, which removes every simplicial vertex it
    # can: G(4) takes 131 nodes and G(5) 309 (394 and 759 when each removal
    # was a node of its own; the greatest-degree-sum edge took G(4) in 4,668).
    stats: dict = {}
    chromatic_poly(build_gn(4), stats=stats)
    assert stats["nodes"] <= 165, stats
    stats = {}
    chromatic_poly(build_gn(5), max_vertices=15, stats=stats)
    assert stats["nodes"] <= 390, stats


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


def _cycle_with_chords(rng):
    # a 4- to 6-cycle plus seeded chords, redrawn until no vertex is simplicial
    while True:
        k = rng.randint(4, 6)
        pairs = list(itertools.combinations(range(k), 2))
        edges = [(i, (i + 1) % k) for i in range(k)] + rng.sample(pairs, rng.randint(0, k - 3))
        g = Graph.from_edges(k, edges)
        masks = g.adjacency_masks()
        neighbours = [[u for u in range(k) if masks[v] >> u & 1] for v in range(k)]
        if not any(
            all(g.has_edge(a, b) for a, b in itertools.combinations(neighbours[v], 2))
            for v in range(k)
        ):
            return g


@pytest.mark.parametrize("memoize", [True, False])
def test_bridge_multiplies_the_sides(memoize):
    # P(G1 + bridge + G2) = P(G1) P(G2) (lambda - 1) / lambda.  G1 is a side
    # H1 plus a vertex 0 hung from it, and the bridge joins 0 to the side G2.
    # Vertex 0 has degree 2, the least, and no vertex is simplicial, so the
    # root deletes one of 0's edges, both bridges: the deletion disconnects the
    # graph, and the split there must still multiply out right.
    rng = random.Random(47)
    for _ in range(10):
        h1, g2 = _cycle_with_chords(rng), _cycle_with_chords(rng)
        n1 = h1.vertex_count + 1
        e1 = [(a + 1, b + 1) for a, b in h1.edges] + [(0, rng.randint(1, h1.vertex_count))]
        e2 = [(a + n1, b + n1) for a, b in g2.edges]
        bridge = (0, n1 + rng.randrange(g2.vertex_count))
        joined = Graph.from_edges(n1 + g2.vertex_count, e1 + e2 + [bridge])
        stats: dict = {}
        p = chromatic_poly(joined, memoize=memoize, stats=stats)
        p1 = chromatic_poly(Graph.from_edges(n1, e1), memoize=memoize)
        p2 = chromatic_poly(g2, memoize=memoize)
        assert p * Poly((0, 1)) == p1 * p2 * Poly((-1, 1)), sorted(joined.edges)
        assert stats["deletion"] > 0 and stats["components"] > 0, stats


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


def test_pick_non_edge_rejects_complete_adjacency():
    assert _pick_non_edge((0b010, 0b101, 0b010)) == (0, 2)
    with pytest.raises(ValueError):
        _pick_non_edge((0b110, 0b101, 0b011))


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
    # The triangle on 3 colors: the 10th attempt is the one past a budget of
    # 9, after the colorings (1,2,3) and (1,3,2) were completed.
    with pytest.raises(BudgetExceededError, match="visited 10 nodes, completed 2 colorings"):
        count_colorings_bruteforce(complete(3), 3, node_budget=9)


def test_bruteforce_refuses_a_search_past_the_depth_limit():
    # The search stacks one level per vertex colored and one more, so a
    # graph of MAX_SEARCH_DEPTH vertices is one level too deep unless a
    # clique of lam + 1 vertices among its first vertices stops it sooner.
    limit = MAX_SEARCH_DEPTH
    n = limit // 3 + 1  # G(n) has 3n > limit vertices and no clique past n
    gn = build_gn(n)
    stats: dict = {}
    with pytest.raises(
        BudgetExceededError,
        match=rf"^coloring search of {3 * n} vertices may need {3 * n + 1} levels "
        rf"of recursion, past the depth limit of {limit}$",
    ):
        count_colorings_bruteforce(gn, 1200, stats=stats)
    assert stats == {}
    # on 2 colors vertex 2 closes a triangle of row 1, so the search stops there
    assert count_colorings_bruteforce(gn, 2) == 0
    # a path on limit - 1 vertices takes exactly limit levels, one more is refused
    assert count_colorings_bruteforce(path(limit - 1), 2) == 2
    with pytest.raises(BudgetExceededError, match=f"past the depth limit of {limit}$"):
        count_colorings_bruteforce(path(limit), 2)
    assert count_colorings_bruteforce(path(limit), 1) == 0
    # a triangle closed at vertex limit - 1 stops a long path at limit levels;
    # closed one vertex later it comes too late
    for last, runs in ((limit - 1, True), (limit, False)):
        g = Graph.from_edges(2 * limit, set(path(2 * limit).edges) | {(last - 2, last)})
        if runs:
            assert count_colorings_bruteforce(g, 2) == 0
        else:
            with pytest.raises(BudgetExceededError, match="depth limit"):
                count_colorings_bruteforce(g, 2)


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
    # every rule but deletion fired: on five vertices the only sparse connected
    # graph without a simplicial vertex is the 5-cycle
    rules = ("components", "cycle", "simplicial", "addition")
    assert all(stats[name] > 0 for name in rules), stats


def _seeded_graphs():
    rng = random.Random(2024)
    out = []
    for vertices in range(7, 11):
        pairs = list(itertools.combinations(range(vertices), 2))
        for density in (0.35, 0.6, 0.7, 0.8, 0.9):
            out.append(Graph.from_edges(vertices, rng.sample(pairs, round(density * len(pairs)))))
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
    lookups = []
    real = chromatic._memo_key

    def counted(adj):
        lookups.append(adj)
        return real(adj)

    monkeypatch.setattr(chromatic, "_memo_key", counted)
    stats: dict = {}
    chromatic_poly(build_gn(4), stats=stats)
    assert stats["memo_hits"] + stats["memo_misses"] == len(lookups)
    # each miss stores one memo entry; branching at a least-degree vertex
    # leaves G(4)'s memo with 65 entries
    assert stats["memo_misses"] < 200
    assert stats["addition"] > 0 and stats["simplicial"] > 0

    lookups.clear()
    unmemoized: dict = {}
    chromatic_poly(build_gn(3), memoize=False, stats=unmemoized)
    assert lookups == []
    assert unmemoized["memo_hits"] == unmemoized["memo_misses"] == 0


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
    keys = [_memo_key(adj) for adj in inputs]
    refs = [_reference_key(adj) for adj in inputs]
    assert len(set(keys)) < len(keys)  # some relabelings do share a key
    for key, ref in zip(keys, refs):
        assert _key_edges(key) == ref
    for i, j in itertools.combinations(range(len(inputs)), 2):
        assert (keys[i] == keys[j]) == (refs[i] == refs[j])
