"""Brute-force enumeration oracles that ground the closed forms.

Nothing in this module knows about binomials, polynomials, or graphs: the
counts come from explicit backtracking over symbol placements, which is what
makes them trustworthy cross-checks for everything else in the package.

count_latin remembers, for the length of one call, how many ways each exact
state of its search (the three rows' used-symbol sets) can be finished, so
no state is searched twice.  It uses no symmetry and no relabelling of
symbols.  It walks only the free symbols of each row, looks each next
state up in the memo inside that loop so that only a miss recurses, and
settles each last-column state in one step, counting its completions by
inclusion-exclusion over the three rows' free sets (see its docstring).
Its budget counts nodes, one per state searched; a memo hit costs no node,
and the "completed" count in a budget error includes the rectangles a hit
stood for.  A search that would recurse more than MAX_SEARCH_DEPTH columns
deep is refused before it starts.

enumerate_latin fills a row at a time from the list of perm(lam, n)
candidate rows.  It remembers which rows are compatible but no counts, so
it stays a plain search and comparing it with count_latin compares two
different searches.  injection_counts walks the perm(lam, n) injections
once and counts them for every number t of forbidden fixed points.  Both
refuse a call whose perm(lam, n) exceeds DEFAULT_NODE_BUDGET before they
list a row.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, compress, islice, permutations, repeat
from typing import Iterable, Iterator, Optional

from .errors import MAX_SEARCH_DEPTH, BudgetExceededError

DEFAULT_NODE_BUDGET = 10**9
# count_latin's default: a memo entry takes about 150 bytes, so 10**7 states
# keep the memo near 1.5 GiB
DEFAULT_STATE_BUDGET = 10**7

# A rectangle is 3 rows of n symbols each, as nested tuples.
Rectangle = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _check_params(n: int, lam: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")


STAT_NAMES = ("nodes", "memo_hits")


class _FreeBits(dict):
    """A used-symbol mask -> the bits 1 << s of the symbols s of 1..lam
    outside it, ascending; an entry is built on its first lookup."""

    def __init__(self, lam: int):
        super().__init__()
        self.bits = tuple(1 << s for s in range(1, lam + 1))

    def __missing__(self, used: int) -> tuple[int, ...]:
        found = self[used] = tuple(bit for bit in self.bits if not used & bit)
        return found


def count_latin(
    n: int,
    lam: int,
    fixed_first_row: bool = False,
    *,
    node_budget: int = DEFAULT_STATE_BUDGET,
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
    no symbol relabelling or symmetry is used.  Each loop walks only the free
    symbols, as bits read from a per-call table keyed by the used-symbol mask,
    and looks each placement's next state up in the memo itself: a hit adds
    its count there, and only a miss calls the search one column deeper.  In
    the last column no placement can fail later, so a state there is settled
    in one step: with A, B and F the free symbols of rows 0, 1 and 2 (A only
    col + 1 when pinned) and pairs = |A||B| - |A&B|, it completes
    pairs|F| - |A&F||B| - |B&F||A| + 2|A&B&F| rectangles.

    Every state searched (a memo miss, last column included) costs one node
    against the budget; a memo hit costs none.  A state costs at most lam**3
    placements, so the budget bounds the work, and the default of
    DEFAULT_STATE_BUDGET bounds the memo too.  A budget error reports the
    nodes visited and the rectangles completed so far, counting every
    rectangle a memo hit stood for.  The search recurses one level per
    column and row 0 runs out of symbols after lam columns, so a call needing
    more than MAX_SEARCH_DEPTH levels, min(n, lam + 1), raises
    BudgetExceededError before it searches.  A dict passed as stats gets the
    counts named in STAT_NAMES added to it: nodes (states searched) and memo
    hits.
    """
    _check_params(n, lam)
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    depth = min(n, lam + 1)  # one level per column; row 0 runs out after lam
    if depth > MAX_SEARCH_DEPTH:
        raise BudgetExceededError(
            f"rectangle search needs {depth} levels of recursion, "
            f"past the depth limit of {MAX_SEARCH_DEPTH}"
        )
    memo: dict[tuple[int, int, int], int] = {}
    free = _FreeBits(lam)
    symbols = (1 << (lam + 1)) - 2  # the bits of 1..lam
    nodes = hits = 0
    done = 0  # rectangles completed so far, memo hits included

    def fill(col: int, u0: int, u1: int, u2: int) -> int:
        """Search the state (u0, u1, u2) at column col, which the memo lacks."""
        nonlocal nodes, hits, done
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"rectangle search exceeded the node budget of {node_budget}: "
                f"visited {nodes} nodes, completed {done} rectangles"
            )
        if col == n - 1:
            a_free = symbols & (1 << col + 1 if fixed_first_row else ~u0)
            b_free = symbols & ~u1
            c_free = symbols & ~u2
            na, nb = a_free.bit_count(), b_free.bit_count()
            pairs = na * nb - (a_free & b_free).bit_count()
            total = (
                pairs * c_free.bit_count()
                - (a_free & c_free).bit_count() * nb
                - (b_free & c_free).bit_count() * na
                + 2 * (a_free & b_free & c_free).bit_count()
            )
            done += total
        else:
            total = 0
            nxt = col + 1
            get = memo.get
            top = ((1 << nxt,) if col < lam else ()) if fixed_first_row else free[u0]
            for bit_a in top:
                v0 = u0 | bit_a
                for bit_b in free[u1 | bit_a]:
                    v1 = u1 | bit_b
                    for bit_c in free[u2 | bit_a | bit_b]:
                        v2 = u2 | bit_c
                        found = get((v0, v1, v2))
                        if found is None:
                            found = fill(nxt, v0, v1, v2)
                        else:
                            hits += 1
                            done += found
                        total += found
        memo[u0, u1, u2] = total
        return total

    try:
        return fill(0, 0, 0, 0)
    finally:
        if stats is not None:
            for name, value in zip(STAT_NAMES, (nodes, hits)):
                stats[name] = stats.get(name, 0) + value


def enumerate_latin(n: int, lam: int, limit: int) -> list[Rectangle]:
    """The first `limit` valid rectangles in row-major lexicographic order.

    Fills a row at a time.  The perm(lam, n) injections are the candidate
    rows, listed once in lexicographic order; row 0 tries each of them, row 1
    tries them all and keeps those that share no column symbol with row 0,
    and row 2 those that share none with either.  So the rectangles come out
    already sorted, and every rectangle is one 3-tuple of shared row tuples.
    Each row's compatible rows are found once per call and kept for the rest
    of it, and the walk stops once `limit` rectangles are out.  No count is
    remembered: this is a plain search, independent of count_latin's memo.
    A call whose perm(lam, n) exceeds DEFAULT_NODE_BUDGET raises before the
    rows are built.
    """
    _check_params(n, lam)
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit == 0:
        return []
    size = math.perm(lam, n)
    if size > DEFAULT_NODE_BUDGET:
        raise BudgetExceededError(
            f"rectangle enumeration exceeded the node budget of {DEFAULT_NODE_BUDGET}: "
            f"its perm({lam}, {n}) = {size} candidate rows do not fit"
        )
    rows = list(permutations(range(1, lam + 1), n))
    columns = list(zip(*rows))
    partners: dict[int, tuple[tuple[int, ...], frozenset[int]]] = {}

    def compatible(i: int) -> tuple[tuple[int, ...], frozenset[int]]:
        """The indices of the rows sharing no column symbol with row i,
        ascending and as a set."""
        found = partners.get(i)
        if found is None:
            keep: Iterable[int] = range(size)
            for column, s in zip(columns, rows[i]):
                symbols = map(column.__getitem__, keep)
                keep = list(compress(keep, map(operator.ne, symbols, repeat(s))))
            found = partners[i] = (tuple(keep), frozenset(keep))
        return found

    def blocks() -> Iterator[Iterator[Rectangle]]:
        """For each compatible pair of rows 0 and 1, in order, its rectangles."""
        for i, r0 in enumerate(rows):
            ones = compatible(i)[0]
            for j in ones:
                twos = filter(compatible(j)[1].__contains__, ones)
                yield zip(repeat(r0), repeat(rows[j]), map(rows.__getitem__, twos))

    return list(islice(chain.from_iterable(blocks()), limit))


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


def _row_codes(rows: set[tuple[int, ...]], n: int, lam: int) -> Optional[dict]:
    """Each row's code, an int with bit j*(lam+1) + s set for its symbol s in
    column j, or None when some row is not n distinct symbols of 1..lam or
    holds a symbol that is no int (1.0 or 1.5 may pass the row check, but
    cannot be shifted)."""
    if not all(
        len(row) == n and len(set(row)) == n and (n == 0 or 1 <= min(row) and max(row) <= lam)
        for row in rows
    ):
        return None
    shifts = range(0, n * (lam + 1), lam + 1)
    try:
        return {
            row: sum(map(operator.lshift, repeat(1), map(operator.add, shifts, row)))
            for row in rows
        }
    except TypeError:
        return None


def _first_invalid(rects: list[Rectangle], n: int, lam: int) -> Optional[Rectangle]:
    """The first of rects that is_latin_rectangle rejects, or None.

    The same answer as testing each rectangle in turn, found at C level:
    every distinct row is validated and encoded once (_row_codes), and two
    rows clash in some column iff their codes share a bit, so each of the
    three row pairs is one stream of ANDs over rects.  Only when something
    fails, or a row cannot be encoded, are the rectangles tested one by one,
    to find the first bad one.
    """
    if all(map((3).__eq__, map(len, rects))):
        codes = _row_codes(set(chain.from_iterable(rects)), n, lam)
        if codes is not None:
            code, get = codes.__getitem__, operator.itemgetter
            if not any(
                any(map(operator.and_, map(code, map(get(x), rects)), map(code, map(get(y), rects))))
                for x, y in ((0, 1), (0, 2), (1, 2))
            ):
                return None
    return next((r for r in rects if not is_latin_rectangle(r, n, lam)), None)


_CHUNK = 4096  # injections tested per C-level pass in injection_counts


def injection_counts(lam: int, n: int) -> list[int]:
    """Exhaustively count, for every t = 0..n, the injections
    f: {1..n} -> {1..lam} with f(j) != j for j = 1..t.

    Walks every injection once via itertools.permutations and filters, so it
    is an oracle fully independent of the inclusion-exclusion formula it
    grounds.  The injections stream in chunks of a few thousand; each chunk
    is narrowed column by column at C level (compress over operator.ne) to
    the injections with no fixed point so far, and the t-th count gains the
    survivors of the first t columns, so memory stays bounded.  A call whose
    perm(lam, n) exceeds DEFAULT_NODE_BUDGET raises before the walk starts.
    """
    if not 0 <= n <= lam:
        raise ValueError(f"injection_counts: need 0 <= n <= lam, got lam={lam} n={n}")
    if math.perm(lam, n) > DEFAULT_NODE_BUDGET:
        raise BudgetExceededError(
            f"enumerating perm({lam}, {n}) injections exceeds "
            f"the node budget of {DEFAULT_NODE_BUDGET}"
        )
    counts = [0] * (n + 1)
    walk = permutations(range(1, lam + 1), n)
    while chunk := list(islice(walk, _CHUNK)):
        counts[0] += len(chunk)
        for j in range(n):
            column = map(operator.itemgetter(j), chunk)
            chunk = list(compress(chunk, map(operator.ne, column, repeat(j + 1))))
            counts[j + 1] += len(chunk)
    return counts
