"""Brute-force enumeration oracles that ground the closed forms.

Nothing in this module knows about binomials, polynomials, or graphs: the
counts come from explicit backtracking over symbol placements, which is what
makes them trustworthy cross-checks for everything else in the package.
"""

from __future__ import annotations

import itertools
import math

from .errors import BudgetExceededError

DEFAULT_NODE_BUDGET = 10**9

# A rectangle is 3 rows of n symbols each, as nested tuples.
Rectangle = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _check_params(n: int, lam: int, node_budget: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")


def count_latin(
    n: int,
    lam: int,
    fixed_first_row: bool = False,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Count 3 x n arrays over {1..lam} with no repeat in any row or column.

    Backtracks column by column — each column is a triple of pairwise
    distinct symbols — with per-row used-symbol bitmasks, so dead columns are
    abandoned as early as possible.  With fixed_first_row the first row is
    pinned to (1, ..., n), which matches the first-row-normalized count when
    lam = n.  Every attempted symbol placement costs one node against the
    budget.
    """
    _check_params(n, lam, node_budget)
    used = [0, 0, 0]
    nodes = 0
    count = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"rectangle search exceeded the node budget of {node_budget}: "
                f"visited {nodes} nodes, completed {count} rectangles"
            )

    def fill(col: int) -> None:
        nonlocal count
        if col == n:
            count += 1
            return
        top = (col + 1,) if fixed_first_row else range(1, lam + 1)
        for a in top:
            tick()
            if a > lam or used[0] >> a & 1:
                continue
            for b in range(1, lam + 1):
                tick()
                if b == a or used[1] >> b & 1:
                    continue
                for c in range(1, lam + 1):
                    tick()
                    if c == a or c == b or used[2] >> c & 1:
                        continue
                    used[0] |= 1 << a
                    used[1] |= 1 << b
                    used[2] |= 1 << c
                    fill(col + 1)
                    used[0] &= ~(1 << a)
                    used[1] &= ~(1 << b)
                    used[2] &= ~(1 << c)

    fill(0)
    return count


def enumerate_latin(
    n: int, lam: int, limit: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[Rectangle]:
    """The first `limit` valid rectangles in row-major lexicographic order.

    Cells are filled row by row, trying symbols in ascending order, so the
    rectangles come out already sorted; no post-hoc sort is needed.
    """
    _check_params(n, lam, node_budget)
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    grid = [[0] * n for _ in range(3)]
    row_used = [0, 0, 0]
    col_used = [0] * n
    out: list[Rectangle] = []
    nodes = 0

    def fill(pos: int) -> None:
        nonlocal nodes
        if pos == 3 * n:
            out.append(tuple(tuple(row) for row in grid))
            return
        row, col = divmod(pos, n)
        for s in range(1, lam + 1):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"rectangle enumeration exceeded the node budget of {node_budget}: "
                    f"visited {nodes} nodes, completed {len(out)} rectangles"
                )
            if row_used[row] >> s & 1 or col_used[col] >> s & 1:
                continue
            grid[row][col] = s
            row_used[row] |= 1 << s
            col_used[col] |= 1 << s
            fill(pos + 1)
            row_used[row] &= ~(1 << s)
            col_used[col] &= ~(1 << s)
            if len(out) >= limit:
                return

    if limit > 0:
        fill(0)
    return out


def is_latin_rectangle(rect: Rectangle, n: int, lam: int) -> bool:
    """True iff rect is a well-formed 3 x n array over {1..lam} with
    pairwise-distinct symbols in every row and every column."""
    if len(rect) != 3 or any(len(row) != n for row in rect):
        return False
    for row in rect:
        if any(not 1 <= s <= lam for s in row):
            return False
        if len(set(row)) != n:
            return False
    for col in zip(*rect):
        if len(set(col)) != 3:
            return False
    return True


def count_injections_forbidden(
    lam: int, n: int, t: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Exhaustively count injections f: {1..n} -> {1..lam} with f(j) != j
    for j = 1..t.

    Walks every injection via itertools.permutations and filters, so it is an
    oracle fully independent of the inclusion-exclusion formula it grounds.
    """
    if not 0 <= t <= n <= lam:
        raise ValueError(
            f"count_injections_forbidden: need 0 <= t <= n <= lam, got lam={lam} n={n} t={t}"
        )
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    if math.perm(lam, n) > node_budget:
        raise BudgetExceededError(
            f"enumerating perm({lam}, {n}) injections exceeds the node budget of {node_budget}"
        )
    count = 0
    for f in itertools.permutations(range(1, lam + 1), n):
        if all(f[j] != j + 1 for j in range(t)):
            count += 1
    return count
