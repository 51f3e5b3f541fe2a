"""Simple undirected graphs and the constructions behind the rectangle counts.

Vertices are the integers 0..vertex_count-1.  The central family is the
rook-style graph G(n) on 3 rows and n columns, built from its cell rule:
two cells are adjacent iff they share a row or a column.  Cell (row i,
column j), both 1-based, sits at vertex index (i-1)*n + (j-1).  The line
graph of K_{3,n} is the same graph, vertex for vertex, built independently;
verify's gnpq-structure check and the graph tests compare the two.

G(n,p,q) is the surgered variant: the first p columns lose their row-1/row-2
edge, and in the next q columns the row-1 and row-2 cells are identified.
Its vertices keep G(n)'s numbering with the removed row-2 cells squeezed
out: the merged cell of column j takes its row-1 index j-1, and each vertex
above a removed row-2 cell moves down by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import GraphParseError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """An immutable simple graph: a vertex count and a frozenset of sorted edge pairs."""

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError(f"vertex_count must be >= 0, got {self.vertex_count}")
        for u, v in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"bad edge ({u}, {v}) for {self.vertex_count} vertices")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Edge]) -> "Graph":
        """Build a graph, normalizing edge orientation and collapsing duplicates.

        Loops are rejected; (u, v) and (v, u) denote the same edge.
        """
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            normalized.add((u, v) if u < v else (v, u))
        return cls(vertex_count, frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def adjacency_masks(self) -> tuple[int, ...]:
        """Adjacency rows as bitmasks: bit u of row v is set iff uv is an edge."""
        rows = [0] * self.vertex_count
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 0:
        raise ValueError(f"complete: n must be >= 0, got {n}")
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: left part 0..a-1, right part a..a+b-1, all cross edges."""
    if a < 1 or b < 1:
        raise ValueError(f"complete_bipartite: parts must be >= 1, got {a}, {b}")
    return Graph.from_edges(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def line_graph(g: Graph) -> Graph:
    """The line graph: one vertex per edge of g, adjacent iff the edges share an endpoint.

    Vertices are numbered by the lexicographic order of g's (sorted) edge pairs,
    which is what makes the G(n) cell labeling line up with K_{3,n}.
    """
    edge_list = sorted(g.edges)
    m = len(edge_list)
    out = []
    for i in range(m):
        a, b = edge_list[i]
        for j in range(i + 1, m):
            c, d = edge_list[j]
            if a in (c, d) or b in (c, d):
                out.append((i, j))
    return Graph.from_edges(m, out)


def build_gn(n: int) -> Graph:
    """The 3-row rook graph G(n) on vertices (i-1)*n + (j-1): two cells are
    adjacent iff they share a row or a column.

    It is G(n,0,0).  It equals, vertex for vertex, the line graph of
    K_{3,n}; verify's gnpq-structure check and the graph tests compare the
    two constructions.
    """
    if n < 1:
        raise ValueError(f"build_gn: n must be >= 1, got {n}")
    return build_gnpq(n, 0, 0)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Remove edge uv; the edge must exist."""
    e = (u, v) if u < v else (v, u)
    if e not in g.edges:
        raise ValueError(f"delete_edge: ({u}, {v}) is not an edge")
    return Graph(g.vertex_count, g.edges - {e})


def identify(g: Graph, u: int, v: int) -> Graph:
    """Merge vertices u and v (u != v).

    The merged vertex lands at min(u, v); vertices above max(u, v) shift down
    by one so indices stay compact.  Any u-v edge disappears and parallel
    edges collapse.  The construction is symmetric in u and v.
    """
    if u == v:
        raise ValueError("identify: vertices must be distinct")
    for w in (u, v):
        if not 0 <= w < g.vertex_count:
            raise ValueError(f"identify: vertex {w} out of range")
    lo, hi = (u, v) if u < v else (v, u)
    index_map = tuple(
        lo if w in (u, v) else (w if w < hi else w - 1) for w in range(g.vertex_count)
    )
    edges = set()
    for a, b in g.edges:
        na, nb = index_map[a], index_map[b]
        if na != nb:
            edges.add((na, nb) if na < nb else (nb, na))
    return Graph(g.vertex_count - 1, frozenset(edges))


def gnpq_vertex_count(n: int, p: int, q: int) -> int:
    """G(n,p,q)'s vertex count 3n - q, without building it, after the checks
    build_gnpq makes (a ValueError names build_gnpq)."""
    if n < 1:
        raise ValueError(f"build_gnpq: n must be >= 1, got {n}")
    if p < 0 or q < 0 or p + q > n:
        raise ValueError(f"build_gnpq: need p, q >= 0 and p + q <= n, got p={p} q={q} n={n}")
    return 3 * n - q


def build_gnpq(n: int, p: int, q: int) -> Graph:
    """G(n,p,q): G(n) with the row-1/row-2 edge deleted in columns 1..p and the
    row-1/row-2 cells identified in columns p+1..p+q.

    Has 3n - q vertices.  G(n,0,0) is G(n) itself.  The merged cell of
    (0-based) column j is vertex j, its row-1 index; every vertex above a
    removed row-2 cell moves down by one.  Built in one pass over G(n)'s
    edges, taken from the cell rule: the row pairs (i*n + a, i*n + b), a < b,
    and the column pairs (i*n + j, k*n + j) of rows i < k.  Each endpoint
    goes through one index table, and the p deleted rungs and the q merged
    self-pairs are skipped.  The result equals p delete_edge and q identify
    calls (the graph tests compare the two).
    """
    size = gnpq_vertex_count(n, p, q)
    index = [*range(n + p), *range(p, p + q), *range(n + p, size)]
    rows = ((i * n + a, i * n + b) for i in range(3) for a in range(n) for b in range(a + 1, n))
    columns = ((i * n + j, k * n + j) for i, k in ((0, 1), (0, 2), (1, 2)) for j in range(n))
    return Graph.from_edges(
        size,
        (
            (index[u], index[v])
            for pairs in (rows, columns)
            for u, v in pairs
            if index[u] != index[v] and not (u < p and v == u + n)
        ),
    )


def parse_graph(text: str) -> Graph:
    """Parse the plain text graph format.

    First significant line: the vertex count.  Each further significant line:
    an edge 'u v' with 0-based endpoints.  Blank lines and lines starting with
    '#' are ignored.  Duplicate edges collapse; loops and out-of-range
    endpoints are errors (reported with their line number).
    """
    vertex_count = None
    edges = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if vertex_count is None:
            if len(fields) != 1:
                raise GraphParseError(line_number, f"expected a vertex count, got {line!r}")
            try:
                vertex_count = int(fields[0])
            except ValueError:
                raise GraphParseError(line_number, f"vertex count is not an integer: {fields[0]!r}") from None
            if vertex_count < 0:
                raise GraphParseError(line_number, f"vertex count must be >= 0, got {vertex_count}")
            continue
        if len(fields) != 2:
            raise GraphParseError(line_number, f"expected an edge 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(line_number, f"edge endpoints are not integers: {line!r}") from None
        if u == v:
            raise GraphParseError(line_number, f"loop at vertex {u} not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphParseError(line_number, f"endpoint out of range in {line!r}")
        edges.append((u, v))
    if vertex_count is None:
        raise GraphParseError(1, "empty document: no vertex count")
    return Graph.from_edges(vertex_count, edges)
