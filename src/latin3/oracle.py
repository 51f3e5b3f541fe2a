"""Brute-force enumeration oracles that ground the closed forms.

Nothing in this module knows about binomials, polynomials, or graphs: the
counts come from explicit backtracking over symbol placements, which is what
makes them trustworthy cross-checks for everything else in the package.

count_latin remembers, for the length of one call, how many ways each exact
state of its search (the three rows' used-symbol sets) can be finished, so
no state is searched twice.  The memo keys each state by one int that packs
the three sets' bitmasks side by side.  It uses no symmetry and no
relabelling of symbols.  One probe loop walks only the free symbols of each
row and looks each next state up in the memo: a hit adds its count there,
and a miss goes one column deeper or, in the last column, is settled where
it is probed, with no call, counting its completions by inclusion-exclusion
over the three rows' free sets (see its docstring).  Each search frame keeps
its hits and completions in locals and adds them to the call's counters
before it goes deeper, before it raises a budget error and when it returns.
Its budget counts nodes, one per state searched, settled last-column states
included; a memo hit costs no node, and the "completed" count in a budget
error includes the rectangles a hit stood for.  A search needing more than
MAX_SEARCH_DEPTH levels, one per column, is refused before it starts; the
search stacks one level fewer, since a last-column state takes no call, but
the limit still counts that column.

enumerate_latin walks the rectangles, filling a row at a time from the list
of perm(lam, n) candidate rows, and yields them lazily, so a reader that
streams it never holds them all; itertools.islice takes its head.  The walk
remembers which rows are compatible but no counts, so it stays a plain
search and comparing it with count_latin compares two different searches.
first_invalid validates a stream of rectangles in one pass; it takes rows
as tuples, as enumerate_latin yields them, and raises TypeError on list rows.
injection_counts walks the perm(lam, n) injections once, in chunks of 512,
and counts them for every number t of forbidden fixed points.  It reads each
chunk as one bytes object and tests a column of fixed points per translate;
a fixed point needs a symbol <= n, so it writes every symbol past n as 0
and any lam fits in bytes.  Both refuse a call whose perm(lam, n) exceeds
DEFAULT_NODE_BUDGET before they list a row.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, compress, islice, permutations, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError

DEFAULT_NODE_BUDGET = 10**9
# count_latin's default: a state searched takes about 70-120 bytes at peak
# under tracemalloc (68 at (4, 6), 116 at (6, 7)), so 10**7 states keep the
# memo near 1.2 GiB
DEFAULT_STATE_BUDGET = 10**7
# The deepest recursion count_latin starts.  CPython's default recursion
# limit is 1000, and the frames below a search's entry point need room too.
MAX_SEARCH_DEPTH = 800

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
    outside it, ascending.  Each entry is built on its first lookup, and all
    share the ints of the empty mask's entry."""

    def __init__(self, lam: int):
        super().__init__()
        self.lam = lam

    def __missing__(self, used: int) -> tuple[int, ...]:
        bits = self[0] if used else map((1).__lshift__, range(1, self.lam + 1))
        found = self[used] = tuple(bit for bit in bits if not used & bit)
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
    remembered for the rest of that call.  The memo key is the exact state,
    the three rows' masks packed into one int, (u0 << 2w) | (u1 << w) | u2
    with w = lam + 1 bits each, so no tuple is built per lookup: the loop
    builds the key's row-0 and row-1 part once per placement of those rows
    and ORs in row 2's bit per probe.  No symbol relabelling or symmetry is
    used.  One probe loop walks only the free symbols, as bits read from a
    per-call table keyed by the used-symbol mask, and looks each placement's
    next state up in the memo itself: a hit adds its count there, and a miss
    goes one column deeper.  In the last column no placement can fail
    later, so a state there is settled in one step: with A, B and F the free
    symbols of rows 0, 1 and 2 (A only col + 1 when pinned) and
    pairs = |A||B| - |A&B|, it completes
    pairs|F| - |A&F||B| - |B&F||A| + 2|A&B&F| rectangles.  A miss in the
    last column is settled in the loop that probes it, with no call of its
    own, its pair's A and B built on the pair's first miss; only the one
    state of n = 1 is settled as the root.  A frame of the search counts its
    hits and completions in locals and adds them to the call's counters
    before it goes a column deeper, before it raises a budget error and
    when it returns, so the counters are exact wherever the search stops.

    Every state searched (a memo miss, last column included) costs one node
    against the budget; a memo hit costs none.  A state costs at most lam**3
    placements, so the budget bounds the work, and the default of
    DEFAULT_STATE_BUDGET bounds the memo too.  A budget error reports the
    nodes visited and the rectangles completed so far, counting every
    rectangle a memo hit stood for.  The search takes one level per column
    and row 0 runs out of symbols after lam columns, so a call needing more
    than MAX_SEARCH_DEPTH levels, min(n, lam + 1), raises
    BudgetExceededError before it searches.  Settling the last column in its
    parent's loop stacks one level fewer than that, but the limit still
    counts the last column.  A dict passed as stats gets the
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
    memo: dict[int, int] = {}
    free = _FreeBits(lam)
    w = lam + 1  # the width of one row's used-symbol mask in a memo key
    symbols = (1 << w) - 2  # the bits of 1..lam
    nodes = hits = 0
    done = 0  # rectangles completed so far, memo hits included

    def over_budget() -> BudgetExceededError:
        return BudgetExceededError(
            f"rectangle search exceeded the node budget of {node_budget}: "
            f"visited {nodes} nodes, completed {done} rectangles"
        )

    def fill(col: int, u0: int, u1: int, u2: int, key: int) -> int:
        """Search the state (u0, u1, u2) at column col, packed as key, which
        the memo lacks.  Its last-column children are settled in its own
        loop, so only the root of n = 1 is settled here."""
        nonlocal nodes, hits, done
        nodes += 1
        if nodes > node_budget:
            raise over_budget()
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
            memo[key] = total
            return total
        # hits and done are flushed before a call, before a budget error and
        # on return; a call adds its own completions to done, so flushed is
        # how much of total is already there.
        total = flushed = found_hits = 0
        nxt = col + 1
        last = nxt == n - 1
        get = memo.get
        c_left = symbols & ~u2
        nc = c_left.bit_count() - 1  # |F| of a last-column child: bit_c is one of c_left
        top = ((1 << nxt,) if col < lam else ()) if fixed_first_row else free[u0]
        for bit_a in top:
            v0 = u0 | bit_a
            for bit_b in free[u1 | bit_a]:
                v1 = u1 | bit_b
                k01 = ((v0 << w) | v1) << w | u2
                a_free = None
                for bit_c in free[u2 | bit_a | bit_b]:
                    found = get(k01 | bit_c)
                    if found is not None:
                        found_hits += 1
                    elif last:
                        # settled here, one node, by the formula above, with
                        # the pair's free sets built on the pair's first miss
                        nodes += 1
                        if nodes > node_budget:
                            hits += found_hits
                            done += total - flushed
                            raise over_budget()
                        if a_free is None:
                            a_free = symbols & (1 << n if fixed_first_row else ~v0)
                            b_free = symbols & ~v1
                            ab_free = a_free & b_free
                            na, nb = a_free.bit_count(), b_free.bit_count()
                            pairs = na * nb - ab_free.bit_count()
                        c_free = c_left ^ bit_c
                        found = memo[k01 | bit_c] = (
                            pairs * nc
                            - (a_free & c_free).bit_count() * nb
                            - (b_free & c_free).bit_count() * na
                            + 2 * (ab_free & c_free).bit_count()
                        )
                    else:
                        hits += found_hits
                        done += total - flushed
                        found_hits = 0
                        found = fill(nxt, v0, v1, u2 | bit_c, k01 | bit_c)
                        flushed = total + found
                    total += found
        hits += found_hits
        done += total - flushed
        memo[key] = total
        return total

    try:
        return fill(0, 0, 0, 0, 0)
    finally:
        # fill's closure holds fill itself; breaking that cycle frees the memo
        # now rather than at the next garbage collection
        del fill
        if stats is not None:
            for name, value in zip(STAT_NAMES, (nodes, hits)):
                stats[name] = stats.get(name, 0) + value


def enumerate_latin(n: int, lam: int) -> Iterator[Rectangle]:
    """Every valid rectangle in row-major lexicographic order, lazily;
    itertools.islice(enumerate_latin(n, lam), k) is its first k.

    Fills a row at a time.  The perm(lam, n) injections are the candidate
    rows, listed once in lexicographic order; row 0 tries each of them, row 1
    tries them all and keeps those that share no column symbol with row 0,
    and row 2 those that share none with either.  So the rectangles come out
    already sorted, and every rectangle is one 3-tuple of shared row tuples.
    Each row's compatible rows are found on first use and kept for the rest
    of the walk, and a rectangle is built only when it is read, so a reader
    that streams the walk holds the candidate rows and their partners, never
    the rectangles.  No count is remembered: this is a plain search,
    independent of count_latin's memo.  The arguments, and perm(lam, n)
    against DEFAULT_NODE_BUDGET, are checked when it is called, before the
    rows are built.
    """
    _check_params(n, lam)
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

    return chain.from_iterable(blocks())


def first_invalid(rects: Iterable[Rectangle], n: int, lam: int) -> Optional[Rectangle]:
    """The first of rects that is no valid 3 x n rectangle over {1..lam}, or
    None, in one pass.

    A valid rectangle has 3 rows, each n distinct symbols of 1..lam, and no
    symbol twice in a column.  Symbols are judged by value: s is in 1..lam
    iff 1 <= s <= lam holds, so 1.0 and True count as 1 and NaN is never a
    symbol.  Each distinct row is tested once per call and kept as the
    frozenset of its (column, symbol) cells, or as None when it is no valid
    row.  Two rows clash in a column iff their cells meet; sets compare
    symbols by value too.  Rows 0 and 1 are checked only when either row
    object differs from the rectangle before's, as in enumerate_latin's
    blocks of rectangles that share both; the union of their cells is kept,
    and row 2 is checked against it with one isdisjoint.  On one rectangle,
    first_invalid((rect,), n, lam) is None iff rect is valid.  Rows are
    hashable sequences of numbers, as enumerate_latin's tuples are; anything
    else, such as a list row, a None row or a string symbol, raises TypeError
    or is judged invalid, and is never judged valid.
    """
    cells: dict[tuple, Optional[frozenset]] = {}

    def cells_of(row: Sequence) -> Optional[frozenset]:
        mine = cells.get(row, ...)
        if mine is ...:
            bad = len(row) != n or len(set(row)) != n or not all(1 <= s <= lam for s in row)
            mine = cells[row] = None if bad else frozenset(enumerate(row))
        return mine

    get = cells.get
    row0 = row1 = object()  # no row is this object, so the first pair is checked
    top: Optional[frozenset] = None  # the cells of rows 0 and 1, or None if they fail
    for rect in rects:
        if len(rect) != 3:
            return rect
        r0, r1, r2 = rect
        if r0 is not row0 or r1 is not row1:
            row0, row1 = r0, r1
            a = cells_of(r0)
            b = None if a is None else cells_of(r1)
            top = None if b is None or not a.isdisjoint(b) else a | b
        if top is None:
            return rect
        c = get(r2, ...)  # row 2 changes every rectangle: look its hit up inline
        if c is ...:
            c = cells_of(r2)
        if c is None or not c.isdisjoint(top):
            return rect
    return None


# injections per chunk in injection_counts; a chunk is read as one bytes
# object of _CHUNK * n bytes, and it and one _CHUNK-byte column slice bound
# the walk's memory
_CHUNK = 512


def injection_counts(lam: int, n: int) -> list[int]:
    """Exhaustively count, for every t = 0..n, the injections
    f: {1..n} -> {1..lam} with f(j) != j for j = 1..t.

    Walks every injection once via itertools.permutations and tests each
    one's fixed points, so it is an oracle fully independent of the counts
    it grounds: in verify, every entry e(m, s) = injection_counts(m + d,
    m)[m - s] of Theorem 3's band (falling(d + s, s) times the reduced
    derangement_columns), and in the tests, the formula gen_derangement.

    A fixed point j -> j needs a symbol j <= n, so the walk permutes the
    symbols 1..n and lam - n zeros standing for the symbols past n: it
    still yields perm(lam, n) injections, each with the same fixed points,
    and every symbol fits in a byte whatever lam is (perm(lam, n) >= n!, so
    n <= 12 under DEFAULT_NODE_BUDGET).  The injections stream in chunks of
    512 (_CHUNK), each read as one bytes object of n bytes per injection;
    no tuple is kept, so permutations reuses its result tuple.  For each
    column j, translating the chunk's slice block[j - 1::n] writes a 1 byte
    for each injection with f(j) = j and a 0 byte otherwise; read as one
    int and OR-ed into a running hit, it marks the injections with a fixed
    point among 1..j, so the j-th count gains the chunk's size less
    hit.bit_count().  Beside the lam-entry pool that permutations keeps,
    memory stays bounded by one chunk whatever perm(lam, n) is.  The one
    injection of n = 0 is empty, which a bytes chunk cannot show, so it is
    counted on its own.  A call whose perm(lam, n) exceeds
    DEFAULT_NODE_BUDGET raises before the walk starts.
    """
    if not 0 <= n <= lam:
        raise ValueError(f"injection_counts: need 0 <= n <= lam, got lam={lam} n={n}")
    if math.perm(lam, n) > DEFAULT_NODE_BUDGET:
        raise BudgetExceededError(
            f"enumerating perm({lam}, {n}) injections exceeds "
            f"the node budget of {DEFAULT_NODE_BUDGET}"
        )
    if n == 0:
        return [1]
    counts = [0] * (n + 1)
    # table j maps byte j to 1 and every other byte to 0
    tables = [bytes(map(j.__eq__, range(256))) for j in range(1, n + 1)]
    walk = permutations((*range(1, n + 1), *repeat(0, lam - n)), n)
    while block := bytes(chain.from_iterable(islice(walk, _CHUNK))):
        size = len(block) // n
        counts[0] += size
        hit = 0
        for j, table in enumerate(tables, 1):
            hit |= int.from_bytes(block[j - 1::n].translate(table), "little")
            counts[j] += size - hit.bit_count()
    return counts
