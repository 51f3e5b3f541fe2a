"""Chromatic polynomials from first principles.

The engine computes P(G, lambda) exactly by applying, to each graph it
meets, the first of these four rules that fits:

* no vertices: P = 1;
* a simplicial vertex v, whose d neighbors are pairwise adjacent:
  P(G) = (lambda - d) P(G - v).  Cliques and trees reduce to nothing by
  this rule alone, and an isolated vertex is the case d = 0;
* w's fill, its neighbors' non-adjacent pairs, below the least degree d:
  addition-contraction on such a pair uv, P(G) = P(G + uv) + P(G / uv);
* otherwise deletion-contraction on an edge uv, P(G) = P(G - uv) - P(G / uv).

Both branchings head for a simplicial vertex: w, of least positive fill, is
one after fill(w) additions (its fill-in in vertex elimination, Rose, Tarjan &
Lueker, SIAM J. Comput. 5 (1976)), a least-degree vertex after at most d - 1
deletions at it (R. C. Read, J. Combin. Theory 4 (1968)).  The engine takes
the shorter route, addition on a tie: G(4) takes 119 recursion nodes and G(5)
275, where addition only on graphs over half dense took 131 and 309.  Every
rule holds on any graph, connected or not, so a disconnected graph needs no
rule of its own: the recursion finds P(G u H) = P(G) P(H) by itself.

One recursion node removes every simplicial vertex it can, in passes over
its vertices, and multiplies in their linear factors at the end.  A vertex
stays simplicial when others are removed, so the set removed does not depend
on the order.

The recursion does not carry polynomials.  Each node returns one int, the
value of P at lambda = X = 2**s, where s = E + 2 and E is the root's edge
count, so the rules are integer operations: + and - for addition and
deletion, (P << s) - d*P for a simplicial vertex of degree d.  By Whitney's
broken-circuit theorem (H. Whitney, Bull. AMS 38 (1932)) the coefficients
a_i of the root's P satisfy |a_i| <= C(E, v - i) <= 2**E, below X / 2, so
chromatic_poly reads them back exactly as the v + 1 balanced base-X digits
of that one int.

An optional per-call memo maps each graph that reaches one of the two
branching rules to its value at X, in two levels.  The first is keyed on the
graph's sorted degree tuple, which also fixes its vertex and edge counts.  A
bucket there holds its first completed graph raw, as (adj, value).  Only when
a second graph reaches the bucket is the first one's full key, the graph
relabeled by one ordering pass (see _memo_key), built; the bucket becomes a
dict on full keys, and every later lookup in it builds its own.  Equal full
keys mean one graph relabeled, so equal sorted degrees: a graph whose bucket
no graph has reached cannot hit, and it misses with no key built.  Hits,
misses and values are therefore those of a memo on full keys alone, and G(4)'s
89 lookups build 54 full keys instead of 89.  None of this affects the result,
which is what the tests pin down against brute force and against a bare
deletion-contraction.

count_colorings_bruteforce is the grounding oracle: a deliberately naive
backtracking count over explicit color assignments that shares no logic with
the engine.  It backtracks in one explicit loop rather than by recursion, so
it needs no depth limit: only its node budget stops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceededError, VertexLimitError
from .graphs import Graph

Coeffs = tuple[int, ...]

DEFAULT_MAX_VERTICES = 14

# count_colorings_bruteforce's default node budget, in color attempts.
DEFAULT_ATTEMPT_BUDGET = 10**9


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
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=0)
        return Poly.of(x + y for x, y in pairs)

    def __sub__(self, other: "Poly") -> "Poly":
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=0)
        return Poly.of(x - y for x, y in pairs)

    def __mul__(self, other: "Poly") -> "Poly":
        b = other.coefficients
        out = [0] * (len(self.coefficients) + len(b) - 1)
        for i, x in enumerate(self.coefficients):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly.of(out)


def eval_poly(p: Poly, lam: int) -> int:
    """Evaluate p at an integer point by Horner's rule; exact."""
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * lam + c
    return acc


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _flip(adj: Coeffs, u: int, v: int) -> Coeffs:
    """Delete the edge uv if adj has it, else add it."""
    rows = list(adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
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

    u and v need not be adjacent; an edge between them is dropped.  One pass
    shifts every row's bits above v down past it and moves bit v to bit u;
    row u then takes both rows' neighbours but itself, and row v goes.
    """
    low = (1 << v) - 1
    rows = [(m & low) | (m >> 1 & ~low) | (m >> v & 1) << u for m in adj]
    rows[u] = (rows[u] | rows[v]) & ~(1 << u)
    del rows[v]
    return tuple(rows)


def _memo_key(adj: Coeffs, degrees: list[int]) -> tuple[int, int]:
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
    are identical after relabeling, so they share a value; they also have the
    same sorted degrees, which is why the memo's first level, on those, loses
    no hit, and why _branch builds this key only in a bucket another graph has
    reached.  degrees is adj's degree list, which _branch has already counted.
    The key is exact but not canonical: isomorphic graphs whose orderings
    differ (a tie broken differently) simply miss the memo.
    """
    n = len(adj)
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
    column = ((1 << n * n) - 1) // ((1 << n) - 1)
    code = 0
    for i, v in enumerate(order):
        code |= (rows >> v & column) << i
    return n, code


def _branch_pair(adj: Coeffs, degrees: list[int]) -> tuple[int, int]:
    """The pair uv (u < v) that _branch branches on, by the shorter route to
    a simplicial vertex, addition on a tie.  Let w be the lowest vertex of
    least positive fill, the count of non-adjacent pairs among its neighbors
    (a fill of 1 ends the scan).  If that fill is below the least degree d,
    uv is N(w)'s first missing pair, a non-edge: u is w's lowest neighbor
    missing another, and v the lowest it misses.  Otherwise uv is an edge: a
    vertex of degree d, the lowest, and its neighbor of least degree, ties
    going to the lower index.  degrees is adj's degree list, whose least is
    positive because _branch meets no isolated vertex (an isolated vertex is
    simplicial).  ValueError if every vertex is simplicial."""
    best = best_w = 0
    limit = len(adj) ** 2  # twice a fill is below it
    for w, nbrs in enumerate(adj):
        twice, rest = 0, nbrs  # each missing pair counts from both ends
        while rest and twice < limit:
            low = rest & -rest
            twice += (nbrs & ~adj[low.bit_length() - 1]).bit_count() - 1
            rest ^= low
        if 0 < twice < limit:
            best, best_w, limit = twice // 2, w, twice
            if best == 1:
                break
    if not best:
        raise ValueError("_branch_pair: every vertex is simplicial")
    least = min(degrees)
    if best < least:
        nbrs = adj[best_w]
        u = next(x for x in _bits(nbrs) if nbrs & ~adj[x] & ~(1 << x))
        return u, next(_bits(nbrs & ~adj[u] & ~(1 << u)))
    u = degrees.index(least)
    v = min(_bits(adj[u]), key=degrees.__getitem__)
    return (u, v) if u < v else (v, u)


def _chrom(adj: Coeffs, s: int, memo: Optional[dict], stats: dict) -> int:
    """P(G, 2**s) of one recursion node."""
    stats["nodes"] += 1
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
    stats["simplicial"] += len(degrees)
    out = _branch(adj, s, memo, stats) if adj else 1
    for d in degrees:
        out = (out << s) - d * out
    return out


def _branch(adj: Coeffs, s: int, memo: Optional[dict], stats: dict) -> int:
    """P(G, 2**s) of a nonempty graph with no simplicial vertex, by one
    branching step on the pair _branch_pair chooses, the one place the
    branching rule lives.  Flipping uv and contracting it give the two
    children: deletion-contraction if uv is an edge, addition-contraction if
    it is not, and that same edge test picks the counter and the sign."""
    degrees = [m.bit_count() for m in adj]
    if memo is not None:
        # two levels (see the module docstring): an unseen bucket is a miss
        # with no full key built, and a bucket's first graph is keyed only
        # when a second graph reaches it
        bucket_key = tuple(sorted(degrees))
        bucket = memo.get(bucket_key)
        key = None
        if bucket is not None:
            if type(bucket) is tuple:
                first, value = bucket
                bucket = {_memo_key(first, [m.bit_count() for m in first]): value}
                memo[bucket_key] = bucket
            key = _memo_key(adj, degrees)
            hit = bucket.get(key)
            if hit is not None:
                stats["memo_hits"] += 1
                return hit
        stats["memo_misses"] += 1
    u, v = _branch_pair(adj, degrees)
    edge = adj[u] >> v & 1
    stats["deletion" if edge else "addition"] += 1
    # an edge: P(G) = P(G - uv) - P(G / uv); a non-edge: P(G + uv) + P(G / uv)
    flipped = _chrom(_flip(adj, u, v), s, memo, stats)
    contracted = _chrom(_contract(adj, u, v), s, memo, stats)
    out = flipped - contracted if edge else flipped + contracted
    if memo is not None:
        # no graph below this node has its n and E (deletion only removes
        # edges, addition only adds them, every other step removes vertices),
        # so the bucket is still as the lookup left it
        if key is None:
            memo[bucket_key] = (adj, out)
        else:
            bucket[key] = out
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
    "nodes", "memo_hits", "memo_misses", "simplicial", "deletion", "addition",
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
    how often each branching rule, deletion or addition, fired.  Every
    counter is set up before any check, so a limit error still leaves them
    all in the dict.  A recursion that passes Python's recursion limit (the
    520-vertex cycle's does, at the default limit of 1000) raises
    BudgetExceededError naming the nodes visited, the counters holding what
    the search did up to then.
    """
    stats = {} if stats is None else stats
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
    try:
        value = _chrom(g.adjacency_masks(), s, memo, stats)
    except RecursionError:
        raise BudgetExceededError(
            f"chromatic recursion passed Python's recursion limit: visited {stats['nodes']} nodes"
        ) from None
    return _decode(value, s, g.vertex_count)


def count_colorings_bruteforce(
    g: Graph,
    lam: int,
    *,
    node_budget: int = DEFAULT_ATTEMPT_BUDGET,
    stats: Optional[dict] = None,
) -> int:
    """Count proper colorings of g with colors {1..lam} by plain backtracking.

    Independent of the polynomial engine by design: vertices are colored in
    index order and every color attempt is checked against earlier neighbors,
    whose colors are gathered into one bitmask per visit of a vertex.  Each
    attempt costs one node against the budget.  The search is one loop over
    a current vertex v, with no recursion, so no graph is too deep for it.
    It tries v's colors from colors[v] + 1 on: at a free one it sets
    colors[v] and steps on to v + 1, or at the last vertex counts a coloring,
    and once every color is tried it resets colors[v] to 0 and steps back to
    v - 1.  A dict passed as stats gets the nodes visited added to its
    "nodes" entry, also when the budget stops the search.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    n = g.vertex_count
    earlier: list[list[int]] = [[] for _ in range(n)]
    for w, v in g.edges:  # w < v
        earlier[v].append(w)
    colors = [0] * n
    taken = [0] * n
    count = 0 if n else 1  # the empty graph has one coloring
    nodes = 0
    last = n - 1
    v = 0
    try:
        while 0 <= v < n:
            c = colors[v] + 1
            if c == 1:  # a new visit of v: gather its earlier neighbors' colors
                mask = 0
                for w in earlier[v]:
                    mask |= 1 << colors[w]
                taken[v] = mask
            mask = taken[v]
            while c <= lam:
                nodes += 1
                if nodes > node_budget:
                    raise BudgetExceededError(
                        f"coloring search exceeded the node budget of {node_budget}: "
                        f"visited {nodes} nodes, completed {count} colorings"
                    )
                if not mask >> c & 1:
                    if v == last:  # a complete coloring; go on to v's next color
                        count += 1
                    else:
                        colors[v] = c
                        v += 1
                        break
                c += 1
            else:  # every color tried at v
                colors[v] = 0
                v -= 1
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
    return count
