"""Chromatic polynomials from first principles.

The engine computes P(G, lambda) exactly by applying, to each graph it
meets, the first of these rules that fits:

* no vertices: P = 1;
* several components: P is the product over the components;
* a simplicial vertex v, whose d neighbors are pairwise adjacent:
  P(G) = (lambda - d) P(G - v).  Cliques and trees reduce to nothing by
  this rule alone, and an isolated vertex, a component of its own, is the
  case d = 0;
* a cycle: P = (lambda-1)^n + (-1)^n (lambda-1);
* a dense graph, with more than half of the possible edges: addition-
  contraction on a non-edge uv, P(G) = P(G + uv) + P(G / uv);
* otherwise deletion-contraction on an edge uv, P(G) = P(G - uv) - P(G / uv).

The deleted edge is taken at a vertex of least degree (R. C. Read, "An
introduction to chromatic polynomials", J. Combin. Theory 4 (1968), reduces
graphs by eliminating low-degree vertices).  A few deletions there make that
vertex simplicial, so the recursion runs close to a vertex-elimination order:
G(4) takes 131 recursion nodes (394 when each simplicial vertex took a node of
its own), where the edge of greatest endpoint degree sum took 4,668 such nodes.

One recursion node removes every simplicial vertex it can, in passes over
its vertices, and multiplies in their linear factors at the end.  A vertex
stays simplicial when others are removed, so the set removed does not depend
on the order.  The node looks for components only at the root and after an
edge deletion: removing a simplicial vertex, contracting and adding an edge
keep a connected graph connected.

The recursion does not carry polynomials.  Each node returns one int, the
value of P at lambda = X = 2**s, where s = E + 2 and E is the root's edge
count, so the rules are integer operations: + and - for addition and
deletion, * for components, (P << s) - d*P for a simplicial vertex of degree
d.  By Whitney's broken-circuit theorem (H. Whitney, Bull. AMS 38 (1932))
the coefficients a_i of the root's P satisfy |a_i| <= C(E, v - i) <= 2**E,
below X / 2, so chromatic_poly reads them back exactly as the v + 1 balanced
base-X digits of that one int.

An optional per-call memo, keyed on the graph relabeled by one ordering pass
(see _memo_key), maps each graph that reaches one of the two branching rules
to its value at X.  None of this affects the result, which is what the tests pin
down against brute force and against a bare deletion-contraction.

count_colorings_bruteforce is the grounding oracle: a deliberately naive
backtracking count over explicit color assignments that shares no logic with
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import MAX_SEARCH_DEPTH, BudgetExceededError, VertexLimitError
from .graphs import Graph

Coeffs = tuple[int, ...]

DEFAULT_MAX_VERTICES = 14


@dataclass(frozen=True)
class Poly:
    """Dense integer polynomial in lambda; coefficients[i] multiplies lambda**i."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("Poly needs at least one coefficient")
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise ValueError("Poly coefficients must not end in zero; use Poly.of")

    @classmethod
    def of(cls, coefficients: Iterable[int]) -> "Poly":
        """Build a Poly, stripping trailing zero coefficients."""
        c = list(coefficients)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return cls(tuple(c) if c else (0,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.of(_add(self.coefficients, other.coefficients))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly.of(_sub(self.coefficients, other.coefficients))

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly.of(_mul(self.coefficients, other.coefficients))


def eval_poly(p: Poly, lam: int) -> int:
    """Evaluate p at an integer point by Horner's rule; exact."""
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * lam + c
    return acc


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    la, lb = len(a), len(b)
    return tuple(
        (a[i] if i < la else 0) + (b[i] if i < lb else 0) for i in range(max(la, lb))
    )


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    la, lb = len(a), len(b)
    return tuple(
        (a[i] if i < la else 0) - (b[i] if i < lb else 0) for i in range(max(la, lb))
    )


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _induced(adj: Coeffs, keep: list[int]) -> Coeffs:
    """Adjacency masks of the subgraph induced on `keep`, reindexed to 0..len-1."""
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        m = 0
        for w in _bits(adj[v]):
            if w in pos:
                m |= 1 << pos[w]
        rows.append(m)
    return tuple(rows)


def _components(adj: Coeffs) -> list[list[int]]:
    n = len(adj)
    seen = 0
    comps = []
    for start in range(n):
        if seen >> start & 1:
            continue
        comp = 0
        frontier = 1 << start
        while frontier:
            comp |= frontier
            grown = 0
            for v in _bits(frontier):
                grown |= adj[v]
            frontier = grown & ~comp
        seen |= comp
        comps.append(list(_bits(comp)))
    return comps


def _delete(adj: Coeffs, u: int, v: int) -> Coeffs:
    rows = list(adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return tuple(rows)


def _add_edge(adj: Coeffs, u: int, v: int) -> Coeffs:
    rows = list(adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return tuple(rows)


def _drop(adj: Coeffs, gone: int) -> Coeffs:
    """Remove the vertices in the mask gone, highest first: their rows go,
    and every other vertex keeps its relative order, its bits shifting down
    past them."""
    rows = list(adj)
    while gone:
        v = gone.bit_length() - 1
        gone ^= 1 << v
        del rows[v]
        low = (1 << v) - 1
        rows = [(m & low) | (m >> 1 & ~low) for m in rows]
    return tuple(rows)


def _contract(adj: Coeffs, u: int, v: int) -> Coeffs:
    """Merge v into u (u < v) and drop index v, collapsing parallel edges.

    u and v need not be adjacent; an edge between them is dropped.
    """
    bu, bv = 1 << u, 1 << v
    rows = tuple(m | bu if m & bv else m for m in adj)
    return _drop(rows[:u] + ((adj[u] | adj[v]) & ~(bu | bv),) + rows[u + 1:], bv)


def _memo_key(adj: Coeffs) -> tuple[int, int]:
    """Exact memo key: the adjacency matrix relabeled into one ordering pass.

    Vertices are sorted once by (degree, sorted degrees of the neighbors),
    ties going to the lower index.  The ordering is a single round of color
    refinement from the degree coloring, not refinement run until it is
    stable.  Two vertices of equal degree compare by their sorted neighbor
    degrees exactly as by their neighbor counts per degree class, lowest
    class first, negated, so each vertex's sort key is one int: its degree,
    then one w-bit field per degree class holding 2**w - 1 - count, where
    w = n.bit_length(), so 2**w > n > any count.  The rows are packed into
    one int in that order, and the relabeled matrix is gathered from it
    column by column, n shifts and masks in all.  Equal keys mean the graphs
    are identical after relabeling, so they share a value.  The key is exact
    but not canonical: isomorphic graphs whose orderings differ (a tie
    broken differently) simply miss the memo.
    """
    n = len(adj)
    degrees = [m.bit_count() for m in adj]
    classes: dict[int, int] = {}
    for v, d in enumerate(degrees):
        classes[d] = classes.get(d, 0) | 1 << v
    class_masks = [classes[d] for d in sorted(classes)]
    w = n.bit_length()
    top = (1 << w) - 1
    signatures = []
    for d, m in zip(degrees, adj):
        sig = d
        for k in class_masks:
            sig = sig << w | top - (m & k).bit_count()
        signatures.append(sig)
    order = sorted(range(n), key=signatures.__getitem__)
    rows = 0
    for v in reversed(order):
        rows = rows << n | adj[v]
    # column: bit 0 of every n-bit row; rows >> v & column is old column v,
    # which the relabeling moves to column i
    column = ((1 << n * n) - 1) // ((1 << n) - 1) if n else 0
    code = 0
    for i, v in enumerate(order):
        code |= (rows >> v & column) << i
    return n, code


def _pick_edge(adj: Coeffs) -> tuple[int, int]:
    """Deterministic edge choice at a least-degree vertex.

    u is a non-isolated vertex of least degree and v its neighbor of least
    degree, ties going to the lowest index; the pair comes back as
    (min, max).  Each deletion at u brings u closer to being simplicial, so
    the simplicial rule soon removes it and the recursion runs close to a
    vertex-elimination order.  An edgeless adjacency raises ValueError.
    """
    degrees = [m.bit_count() for m in adj]
    u = min((w for w in range(len(adj)) if degrees[w]), key=degrees.__getitem__, default=None)
    if u is None:
        raise ValueError("_pick_edge: the graph has no edges")
    v = min(_bits(adj[u]), key=degrees.__getitem__)
    return (u, v) if u < v else (v, u)


def _pick_non_edge(adj: Coeffs) -> tuple[int, int]:
    """Deterministic non-edge choice: maximize the common neighbors.  A
    complete adjacency raises ValueError."""
    n = len(adj)
    best = None
    best_score = -1
    for u in range(n):
        # vertices u+1..n-1 that are not neighbors of u
        for v in _bits(((1 << n) - (2 << u)) & ~adj[u]):
            score = (adj[u] & adj[v]).bit_count()
            if score > best_score:
                best_score = score
                best = (u, v)
    if best is None:
        raise ValueError("_pick_non_edge: the graph is complete")
    return best


def _count(stats: Optional[dict], name: str) -> None:
    if stats is not None:
        stats[name] += 1


def _chrom(
    adj: Coeffs, s: int, memo: Optional[dict], stats: Optional[dict] = None,
    connected: bool = False,
) -> int:
    """P(G, 2**s) of one recursion node.  connected=True promises that G is
    connected, so the component search is skipped (see the module docstring
    for which steps keep a graph connected)."""
    _count(stats, "nodes")
    if not connected:
        comps = _components(adj)
        if len(comps) > 1:
            _count(stats, "components")
            out = 1
            for comp in comps:
                out *= _chrom(_induced(adj, comp), s, memo, stats, True)
            return out
    # A simplicial vertex's d neighbors are pairwise adjacent, so they use d
    # distinct colors in every proper coloring of G - v, leaving lambda - d
    # for v.  Removing a vertex keeps every simplicial vertex simplicial, so
    # each pass removes all it meets, taking each degree among the vertices
    # still left, and passes repeat until one finds none.
    degrees = []
    while True:
        gone = 0
        for v, nbrs in enumerate(adj):
            nbrs &= ~gone
            rest = nbrs
            while rest:
                # neighbor w (bit low) must see every other neighbor of v
                low = rest & -rest
                if (nbrs & ~adj[low.bit_length() - 1]) != low:
                    break
                rest ^= low
            else:
                gone |= 1 << v
                degrees.append(nbrs.bit_count())
        if not gone:
            break
        adj = _drop(adj, gone)
    if stats is not None:
        stats["simplicial"] += len(degrees)
    out = _branch(adj, s, memo, stats) if adj else 1
    for d in degrees:
        out = (out << s) - d * out
    return out


def _branch(adj: Coeffs, s: int, memo: Optional[dict], stats: Optional[dict]) -> int:
    """P(G, 2**s) of a nonempty connected graph with no simplicial vertex."""
    n = len(adj)
    degrees = [m.bit_count() for m in adj]
    if degrees.count(2) == n:
        _count(stats, "cycle")
        x1 = (1 << s) - 1
        return x1**n + (-x1 if n % 2 else x1)
    if memo is not None:
        key = _memo_key(adj)
        hit = memo.get(key)
        if hit is not None:
            _count(stats, "memo_hits")
            return hit
        _count(stats, "memo_misses")
    if 2 * sum(degrees) > n * (n - 1):
        # dense: P(G) = P(G + uv) + P(G / uv) on a non-edge uv
        _count(stats, "addition")
        u, v = _pick_non_edge(adj)
        out = _chrom(_add_edge(adj, u, v), s, memo, stats, True) + _chrom(
            _contract(adj, u, v), s, memo, stats, True
        )
    else:
        _count(stats, "deletion")
        u, v = _pick_edge(adj)
        out = _chrom(_delete(adj, u, v), s, memo, stats) - _chrom(
            _contract(adj, u, v), s, memo, stats, True
        )
    if memo is not None:
        memo[key] = out
    return out


def _decode(value: int, s: int, v: int) -> Poly:
    """The degree-v polynomial whose value at 2**s is value: its v + 1
    balanced base-2**s digits, lowest first.  Exact when every coefficient
    lies in [-2**(s-1), 2**(s-1))."""
    half = 1 << s - 1
    mask = (1 << s) - 1
    coeffs = []
    for _ in range(v + 1):
        digit = (value + half & mask) - half
        coeffs.append(digit)
        value = (value - digit) >> s
    return Poly(tuple(coeffs))


STAT_NAMES = (
    "nodes", "memo_hits", "memo_misses",
    "components", "cycle", "simplicial", "deletion", "addition",
)


def chromatic_poly(
    g: Graph,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    memoize: bool = True,
    stats: Optional[dict] = None,
) -> Poly:
    """Exact chromatic polynomial of a simple graph.

    The recursion evaluates P(G) at lambda = 2**(E + 2) for the graph's E
    edges, one int per recursion node, and the coefficients are decoded once
    at the end as balanced base-2**(E + 2) digits: Whitney's bound
    |a_i| <= C(E, v - i) <= 2**E keeps each one inside its digit, whatever
    max_vertices is.

    The recursion is exponential in the worst case, so graphs above
    max_vertices are rejected outright (VertexLimitError); a negative
    max_vertices is a ValueError.  memoize=False turns off the memo keyed on
    the relabeled graph; the result is identical either way.  A dict passed
    as stats gets the counts named in STAT_NAMES added to it: recursion
    calls ("nodes"), memo hits and misses, simplicial vertices removed, and
    how often each other rule fired.  Every counter is set up before any
    check, so a limit error still leaves them all in the dict.
    """
    if stats is not None:
        for name in STAT_NAMES:
            stats.setdefault(name, 0)
    if max_vertices < 0:
        raise ValueError(f"max_vertices must be >= 0, got {max_vertices}")
    if g.vertex_count > max_vertices:
        raise VertexLimitError(
            f"graph has {g.vertex_count} vertices, exceeding the limit of {max_vertices}"
        )
    s = g.edge_count + 2
    memo: Optional[dict] = {} if memoize else None
    return _decode(_chrom(g.adjacency_masks(), s, memo, stats), s, g.vertex_count)


def count_colorings_bruteforce(
    g: Graph, lam: int, *, node_budget: int = 10**9, stats: Optional[dict] = None
) -> int:
    """Count proper colorings of g with colors {1..lam} by plain backtracking.

    Independent of the polynomial engine by design: vertices are colored in
    index order and every color attempt is checked against earlier neighbors,
    whose colors are gathered into one bitmask per visit of a vertex.  Each
    attempt costs one node against the budget.  The search recurses once
    per vertex colored, so a graph of MAX_SEARCH_DEPTH vertices or more is
    refused before the search starts unless its first MAX_SEARCH_DEPTH
    vertices are shown to stop it (_stops_early).  A dict passed as stats
    gets the nodes visited added to its "nodes" entry, also when the budget
    stops the search.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    n = g.vertex_count
    if n >= MAX_SEARCH_DEPTH and not _stops_early(g, lam, MAX_SEARCH_DEPTH):
        raise BudgetExceededError(
            f"coloring search of {n} vertices may need {n + 1} levels of "
            f"recursion, past the depth limit of {MAX_SEARCH_DEPTH}"
        )
    earlier = [
        [w for w in range(v) if g.has_edge(v, w)] for v in range(n)
    ]
    colors = [0] * n
    count = 0
    nodes = 0

    def fill(v: int) -> None:
        nonlocal count, nodes
        if v == n:
            count += 1
            return
        taken = 0
        for w in earlier[v]:
            taken |= 1 << colors[w]
        for c in range(1, lam + 1):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"coloring search exceeded the node budget of {node_budget}: "
                    f"visited {nodes} nodes, completed {count} colorings"
                )
            if not taken >> c & 1:
                colors[v] = c
                fill(v + 1)

    try:
        fill(0)
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
    return count


def _stops_early(g: Graph, lam: int, depth: int) -> bool:
    """True if some vertex k < depth closes a clique of lam + 1 vertices among
    0..k, so that no coloring of 0..k with lam colors exists and the search
    of count_colorings_bruteforce never stacks more than depth levels.  The
    clique is sought greedily among each vertex's earlier neighbors."""
    adj = g.adjacency_masks()
    for v in range(min(g.vertex_count, depth)):
        clique, candidates = 1, adj[v] & ((1 << v) - 1)
        while candidates and clique <= lam:
            candidates &= adj[candidates.bit_length() - 1]
            clique += 1
        if clique > lam:
            return True
    return False
