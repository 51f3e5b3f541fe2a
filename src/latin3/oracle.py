"""Brute-force enumeration oracles that ground the closed forms.

Nothing in this module knows about binomials, polynomials, or graphs: the
counts come from explicit backtracking over symbol placements, which is what
makes them trustworthy cross-checks for everything else in the package.

count_latin remembers, for the length of one call, how many ways each exact
state of its search (the three rows' used-symbol sets) can be finished, so
no state is searched twice.  It uses no symmetry and no relabelling of
symbols.  The budgets of the backtracking searches count nodes, one per
attempted symbol placement; a memo hit costs no node, and the "completed"
count in a budget error includes the rectangles a hit stood for.
count_latin charges its last column's row-2 attempts in one step (see its
docstring), with the same nodes as visiting them one by one.
enumerate_latin stays plain backtracking, so comparing the two compares two
different searches.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Optional

from .errors import BudgetExceededError

DEFAULT_NODE_BUDGET = 10**9

# A rectangle is 3 rows of n symbols each, as nested tuples.
Rectangle = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _check_params(n: int, lam: int, node_budget: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")


STAT_NAMES = ("nodes", "memo_hits", "memo_misses")


def _search_budget_error(node_budget: int, done: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"rectangle search exceeded the node budget of {node_budget}: "
        f"visited {node_budget + 1} nodes, completed {done} rectangles"
    )


def count_latin(
    n: int,
    lam: int,
    fixed_first_row: bool = False,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    stats: Optional[dict] = None,
) -> int:
    """Count 3 x n arrays over {1..lam} with no repeat in any row or column.

    Backtracks column by column — each column is a triple of pairwise
    distinct symbols — with per-row used-symbol bitmasks, so dead columns are
    abandoned as early as possible.  With fixed_first_row the first row is
    pinned to (1, ..., n), which matches the first-row-normalized count when
    lam = n.  There are none when lam = 0.

    How many ways the remaining columns can be filled depends only on the
    three rows' used-symbol sets (the column index is how many symbols row 0
    has used), so each such state is searched once per call and its count is
    remembered for the rest of that call.  The memo key is the exact state:
    no symbol relabelling or symmetry is used.

    Every attempted symbol placement costs one node against the budget; a
    memo hit costs none.  In the last column each free row-2 symbol completes
    a rectangle, so once rows 0 and 1 are placed there the lam attempts for
    row 2 are charged together and the free symbols counted by popcount,
    whenever the budget covers all lam of them; otherwise they are tried one
    by one, so a budget error fires at the same node.  A budget error
    reports the nodes visited and the rectangles completed so far, counting
    every rectangle a memo hit stood for.  A dict passed as stats gets the
    counts named in STAT_NAMES added to it: nodes, memo hits and memo misses
    (states searched).
    """
    _check_params(n, lam, node_budget)
    memo: dict[tuple[int, int, int], int] = {}
    symbols = (1 << (lam + 1)) - 2  # the bits of 1..lam
    nodes = hits = misses = 0
    done = 0  # rectangles completed so far, memo hits included

    def fill(col: int, u0: int, u1: int, u2: int) -> int:
        nonlocal nodes, hits, misses, done
        if col == n:
            done += 1
            return 1
        key = (u0, u1, u2)
        found = memo.get(key)
        if found is not None:
            hits += 1
            done += found
            return found
        misses += 1
        total = 0
        last = col == n - 1
        top = (col + 1,) if fixed_first_row else range(1, lam + 1)
        for a in top:
            nodes += 1
            if nodes > node_budget:
                raise _search_budget_error(node_budget, done)
            if a > lam or u0 >> a & 1:
                continue
            for b in range(1, lam + 1):
                nodes += 1
                if nodes > node_budget:
                    raise _search_budget_error(node_budget, done)
                if b == a or u1 >> b & 1:
                    continue
                if last and nodes + lam <= node_budget:
                    # every free c completes a rectangle: no c can fail later
                    nodes += lam
                    free = (symbols & ~(u2 | 1 << a | 1 << b)).bit_count()
                    total += free
                    done += free
                    continue
                for c in range(1, lam + 1):
                    nodes += 1
                    if nodes > node_budget:
                        raise _search_budget_error(node_budget, done)
                    if c == a or c == b or u2 >> c & 1:
                        continue
                    total += fill(col + 1, u0 | 1 << a, u1 | 1 << b, u2 | 1 << c)
        memo[key] = total
        return total

    try:
        return fill(0, 0, 0, 0)
    finally:
        if stats is not None:
            for name, value in zip(STAT_NAMES, (nodes, hits, misses)):
                stats[name] = stats.get(name, 0) + value


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
    if len(rect) != 3:
        return False
    r0, r1, r2 = rect
    if len(r0) != n or len(r1) != n or len(r2) != n:
        return False
    if n == 0:  # three empty rows; min() below needs a symbol
        return True
    for row in rect:
        if len(set(row)) != n or min(row) < 1 or max(row) > lam:
            return False
    for x, y, z in zip(r0, r1, r2):
        if x == y or x == z or y == z:
            return False
    return True


def count_injections_forbidden(
    lam: int, n: int, t: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Exhaustively count injections f: {1..n} -> {1..lam} with f(j) != j
    for j = 1..t.

    Walks every injection via itertools.permutations and filters, so it is an
    oracle fully independent of the inclusion-exclusion formula it grounds.
    Each injection is one node; all perm(lam, n) of them are charged against
    the budget before the walk starts, and each one's fixed points are
    tested at C level (map over operator.eq).
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
    forbidden = range(1, t + 1)  # f(j) != j for these j
    count = 0
    for f in itertools.permutations(range(1, lam + 1), n):
        if not any(map(operator.eq, f, forbidden)):
            count += 1
    return count
