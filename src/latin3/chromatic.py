"""Chromatic polynomials from first principles.

The engine runs the deletion-contraction recursion

    P(G, lambda) = P(G - uv, lambda) - P(G_uv, lambda)

with exact integer polynomial arithmetic.  Structural shortcuts (edgeless
graphs, disconnected splits, cliques, trees, cycles) and an optional per-call
memo, keyed on the graph relabeled by color refinement, keep the recursion
tree small; none of them affect the result, which is what the tests pin down
against brute force.

count_colorings_bruteforce is the grounding oracle: a deliberately naive
backtracking count over explicit color assignments that shares no logic with
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceededError, VertexLimitError
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


def _falling_coeffs(v: int) -> Coeffs:
    """lambda (lambda-1) ... (lambda-v+1), the chromatic polynomial of K_v."""
    out: Coeffs = (1,)
    for k in range(v):
        out = _mul(out, (-k, 1))
    return out


def _tree_coeffs(v: int) -> Coeffs:
    """lambda (lambda-1)^(v-1), the chromatic polynomial of any tree on v >= 1 vertices."""
    out: Coeffs = (0, 1)
    for _ in range(v - 1):
        out = _mul(out, (-1, 1))
    return out


def _cycle_coeffs(v: int) -> Coeffs:
    """(lambda-1)^v + (-1)^v (lambda-1), the chromatic polynomial of the v-cycle."""
    out: Coeffs = (1,)
    for _ in range(v):
        out = _mul(out, (-1, 1))
    sign = -1 if v % 2 else 1
    lifted = list(out)
    lifted[0] -= sign
    lifted[1] += sign
    return tuple(lifted)


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


def _contract(adj: Coeffs, u: int, v: int) -> Coeffs:
    """Merge v into u (u < v) and drop index v, collapsing parallel edges."""
    merged = (adj[u] | adj[v]) & ~((1 << u) | (1 << v))
    rows = []
    for w in range(len(adj)):
        if w == v:
            continue
        if w == u:
            m = merged
        else:
            m = adj[w]
            if m >> v & 1:
                m = (m & ~(1 << v)) | (1 << u)
        rows.append((m & ((1 << v) - 1)) | (m >> (v + 1) << v))
    return tuple(rows)


def _memo_key(adj: Coeffs) -> tuple[int, int]:
    """Exact memo key: the adjacency rows relabeled into refinement order.

    Vertices are colored by iterated neighborhood refinement (a vertex's
    color is refined by the multiset of its neighbors' colors until stable),
    renumbered by color with ties broken by index, and the relabeled rows are
    packed into one int.  Equal keys mean the graphs are identical after
    relabeling, so they share a polynomial; the key is not canonical, and
    isomorphic graphs whose ties break differently simply miss the memo.
    """
    n = len(adj)
    colors = [bin(m).count("1") for m in adj]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in _bits(adj[v]))))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [rank[s] for s in sigs]
        if refined == colors:
            break
        colors = refined
    order = sorted(range(n), key=colors.__getitem__)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    code = 0
    for v in order:
        row = 0
        for w in _bits(adj[v]):
            row |= 1 << position[w]
        code = code << n | row
    return n, code


def _pick_edge(adj: Coeffs) -> tuple[int, int]:
    """Deterministic edge choice: maximize the endpoint degree sum.  An
    edgeless adjacency raises ValueError."""
    degrees = [bin(m).count("1") for m in adj]
    best = None
    best_score = -1
    for u in range(len(adj)):
        for v in _bits(adj[u]):
            if v <= u:
                continue
            score = degrees[u] + degrees[v]
            if score > best_score:
                best_score = score
                best = (u, v)
    if best is None:
        raise ValueError("_pick_edge: the graph has no edges")
    return best


def _chrom(adj: Coeffs, memo: Optional[dict]) -> Coeffs:
    n = len(adj)
    if n == 0:
        return (1,)
    live = [v for v in range(n) if adj[v]]
    isolated = n - len(live)
    if isolated:
        # each isolated vertex contributes a free factor of lambda
        return (0,) * isolated + _chrom(_induced(adj, live), memo)
    comps = _components(adj)
    if len(comps) > 1:
        out: Coeffs = (1,)
        for comp in comps:
            out = _mul(out, _chrom(_induced(adj, comp), memo))
        return out
    edge_count = sum(bin(m).count("1") for m in adj) // 2
    if edge_count == n * (n - 1) // 2:
        return _falling_coeffs(n)
    if edge_count == n - 1:
        return _tree_coeffs(n)
    if all(bin(m).count("1") == 2 for m in adj):
        return _cycle_coeffs(n)
    if memo is not None:
        key = _memo_key(adj)
        hit = memo.get(key)
        if hit is not None:
            return hit
    u, v = _pick_edge(adj)
    out = _sub(_chrom(_delete(adj, u, v), memo), _chrom(_contract(adj, u, v), memo))
    if memo is not None:
        memo[key] = out
    return out


def chromatic_poly(
    g: Graph, *, max_vertices: int = DEFAULT_MAX_VERTICES, memoize: bool = True
) -> Poly:
    """Exact chromatic polynomial of a simple graph by deletion-contraction.

    The recursion is exponential in the worst case, so graphs above
    max_vertices are rejected outright.  memoize=False turns off the memo
    keyed on the refinement-relabeled graph; the result is identical either
    way.
    """
    if g.vertex_count > max_vertices:
        raise VertexLimitError(
            f"graph has {g.vertex_count} vertices, exceeding the limit of {max_vertices}"
        )
    memo: Optional[dict] = {} if memoize else None
    return Poly.of(_chrom(g.adjacency_masks(), memo))


def count_colorings_bruteforce(g: Graph, lam: int, *, node_budget: int = 10**9) -> int:
    """Count proper colorings of g with colors {1..lam} by plain backtracking.

    Independent of the polynomial engine by design: vertices are colored in
    index order and every color attempt is checked against earlier neighbors.
    Each attempt costs one node against the budget.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    n = g.vertex_count
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
        for c in range(1, lam + 1):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"coloring search exceeded the node budget of {node_budget}"
                )
            if all(colors[w] != c for w in earlier[v]):
                colors[v] = c
                fill(v + 1)
        colors[v] = 0

    fill(0)
    return count
