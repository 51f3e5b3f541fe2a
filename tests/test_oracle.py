"""Tests for the brute-force enumeration oracles."""

import gc
import math
import operator
import random
import tracemalloc
from itertools import groupby, islice, permutations

import pytest

from latin3 import oracle
from latin3.combinatorics import falling, gen_derangement
from latin3.errors import BudgetExceededError
from latin3.formulas import thm3_g
from latin3.oracle import (
    MAX_SEARCH_DEPTH,
    STAT_NAMES,
    count_latin,
    enumerate_latin,
    first_invalid,
    injection_counts,
)


def test_count_latin_single_column():
    # a single column is an ordered triple of distinct symbols
    assert count_latin(1, 3) == 6
    assert count_latin(1, 4) == 24


def test_count_latin_on_one_column_builds_no_symbol_table():
    # one column is one last-column node, which looks up no free symbols, so
    # nothing of size lam**2 may be built for it
    tracemalloc.start()
    try:
        assert count_latin(1, 20000) == math.perm(20000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "budget", [oracle.DEFAULT_STATE_BUDGET, 5000], ids=["returned", "budget-error"]
)
def test_count_latin_frees_its_memo_when_it_returns(budget):
    # the memo must go with the call, not wait for the cycle collector, on a
    # return and on a budget error alike
    gc.disable()
    tracemalloc.start()
    try:
        try:
            count_latin(4, 6, node_budget=budget)
        except BudgetExceededError:
            pass
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 2**14, f"{held} bytes held after the call"


def test_count_latin_impossible_widths():
    assert count_latin(1, 2) == 0
    assert count_latin(2, 2) == 0
    assert count_latin(3, 2) == 0


def test_count_latin_pinned_first_row():
    assert count_latin(1, 1, True) == 0
    assert count_latin(2, 2, True) == 0
    assert count_latin(3, 3, True) == 2
    assert count_latin(4, 4, True) == 24


def test_first_row_factor():
    for n in (3, 4):
        assert count_latin(n, n) == math.factorial(n) * count_latin(n, n, True)


def test_count_latin_rejects_bad_params():
    with pytest.raises(ValueError):
        count_latin(0, 3)
    with pytest.raises(ValueError):
        count_latin(2, -1)
    with pytest.raises(ValueError):
        count_latin(2, 3, node_budget=0)
    with pytest.raises(ValueError):
        enumerate_latin(2, -1)


def test_no_rectangles_on_zero_symbols():
    for n in (1, 2, 3):
        assert count_latin(n, 0) == 0
        assert count_latin(n, 0, fixed_first_row=True) == 0
        assert list(enumerate_latin(n, 0)) == []


def test_count_latin_budget():
    with pytest.raises(BudgetExceededError):
        count_latin(4, 5, node_budget=1000)


def test_count_latin_refuses_a_search_past_the_depth_limit(monkeypatch):
    # The search stacks one level per column, and row 0 runs out of symbols
    # after lam columns, so it needs min(n, lam + 1) levels.
    limit = MAX_SEARCH_DEPTH
    stats: dict = {}
    for n, lam, pinned in ((1200, 1200, False), (1200, 1200, True), (limit + 1, 2000, False)):
        with pytest.raises(
            BudgetExceededError,
            match=rf"^rectangle search needs {min(n, lam + 1)} levels of recursion, "
            rf"past the depth limit of {limit}$",
        ):
            count_latin(n, lam, pinned, node_budget=2 * limit, stats=stats)
    assert stats == {}
    for pinned in (False, True):
        assert count_latin(1200, 5, pinned) == 0
    # a search exactly at the limit runs: its first descent is limit new
    # states deep before the budget stops it
    with pytest.raises(BudgetExceededError, match=f"budget of {limit}: visited {limit + 1} nodes"):
        count_latin(limit, limit, node_budget=limit)
    monkeypatch.setattr(oracle, "MAX_SEARCH_DEPTH", 4)
    assert count_latin(4, 5) == 120_960
    assert count_latin(5, 3) == 0
    with pytest.raises(BudgetExceededError, match="needs 5 levels of recursion, past the depth limit of 4$"):
        count_latin(5, 5)


def test_budget_errors_report_progress():
    # Two columns on 3 symbols: the root state, then the states after the
    # first columns (1,2,3) and (1,3,2), each settled with its 2 completions;
    # the state after (2,1,3) is the 4th, one past a budget of 3.
    with pytest.raises(BudgetExceededError, match="visited 4 nodes, completed 4 rectangles"):
        count_latin(2, 3, node_budget=3)


def test_budget_error_counts_the_rectangles_a_memo_hit_stands_for():
    # 3 x 3 squares: the root is state 1.  The first columns (1,2,3) and
    # (1,3,2) lead to states 2 and 5; each has two second columns, and each
    # leads to a new last-column state (3, 4, 6, 7) with one completion.
    # First column (2,1,3) is state 8.  Its second column (1,3,2) leaves the
    # used-symbol sets that (1,3,2),(2,1,3) left, so a memo hit supplies its
    # one completion without a node; (3,2,1) then leads to state 9.  In all
    # 13 states are searched and 6 last-column states are hits.
    stats: dict = {}
    with pytest.raises(BudgetExceededError, match="visited 8 nodes, completed 4 rectangles"):
        count_latin(3, 3, node_budget=7, stats=stats)
    assert stats == {"nodes": 8, "memo_hits": 0}
    stats = {}
    with pytest.raises(BudgetExceededError, match="visited 9 nodes, completed 5 rectangles"):
        count_latin(3, 3, node_budget=8, stats=stats)
    assert stats == {"nodes": 9, "memo_hits": 1}
    stats = {}
    assert count_latin(3, 3, node_budget=13, stats=stats) == 12
    assert stats == {"nodes": 13, "memo_hits": 6}


def _reference_count_latin(n, lam, fixed_first_row=False):
    """count_latin without its memo: plain column-by-column backtracking with
    the same candidate loops.  Returns (count, nodes)."""
    used = [0, 0, 0]
    nodes = count = 0

    def fill(col):
        nonlocal nodes, count
        if col == n:
            count += 1
            return
        for a in (col + 1,) if fixed_first_row else range(1, lam + 1):
            nodes += 1
            if a > lam or used[0] >> a & 1:
                continue
            for b in range(1, lam + 1):
                nodes += 1
                if b == a or used[1] >> b & 1:
                    continue
                for c in range(1, lam + 1):
                    nodes += 1
                    if c == a or c == b or used[2] >> c & 1:
                        continue
                    for row, s in enumerate((a, b, c)):
                        used[row] ^= 1 << s
                    fill(col + 1)
                    for row, s in enumerate((a, b, c)):
                        used[row] ^= 1 << s

    fill(0)
    return count, nodes


def test_memo_is_transparent():
    cells = [(n, lam) for n in (1, 2, 3) for lam in range(7)] + [(4, 4), (4, 5)]
    for n, lam in cells:
        for pinned in (False, True):
            want, _ = _reference_count_latin(n, lam, pinned)
            assert count_latin(n, lam, pinned) == want, (n, lam, pinned)


def test_stats_repeat_exactly():
    first: dict = {}
    second: dict = {}
    count_latin(3, 4, stats=first)
    count_latin(3, 4, stats=second)
    assert list(first) == list(STAT_NAMES)
    assert first == second
    assert first["nodes"] > 0 and first["memo_hits"] > 0
    count_latin(3, 4, stats=second)
    assert second == {name: 2 * first[name] for name in STAT_NAMES}


def _searched_without_memo(n, lam):
    """The non-leaf calls of _reference_count_latin(n, lam): one per
    rectangle of fewer than n columns, the empty one included."""
    return 1 + sum(_reference_count_latin(k, lam)[0] for k in range(1, n))


def test_memo_visits_fewer_nodes_than_plain_backtracking():
    stats: dict = {}
    assert count_latin(4, 5, stats=stats) == _reference_count_latin(4, 5)[0]
    assert stats["nodes"] < _searched_without_memo(4, 5)
    # one column is one state, searched by either
    one_column: dict = {}
    count_latin(1, 4, stats=one_column)
    assert _searched_without_memo(1, 4) == 1
    assert one_column == {"nodes": 1, "memo_hits": 0}


# count_latin's counters at commit a309652, when it charged one node per
# placement and counted the states it searched as memo_misses:
# (n, lam, pinned) -> (memo_misses, memo_hits).
_PER_PLACEMENT_STATE_COUNTS = {
    (1, 4, False): (1, 0),
    (2, 6, True): (21, 0),
    (3, 3, False): (13, 6),
    (3, 5, True): (82, 27),
    (3, 6, False): (2761, 5880),
    (4, 4, True): (42, 25),
    (4, 5, False): (1751, 10010),
    (4, 5, True): (182, 253),
}


def _distinct_states(n, lam, pinned):
    """The states count_latin has to search, found without it: the empty
    rectangle, and the distinct triples of row symbol sets over the
    rectangles of 1..n-1 columns (row 0 is 1..k when pinned)."""
    states = {None}
    for k in range(1, n):
        for rect in enumerate_latin(k, lam):
            if not pinned or rect[0] == tuple(range(1, k + 1)):
                states.add(tuple(map(frozenset, rect)))
    return len(states)


def test_one_node_per_state_searched():
    # An unbounded search visits S nodes, one per distinct state; a budget of
    # S suffices and a budget of S - 1 stops at the S-th state.
    cells = [(n, lam) for n in (1, 2, 3) for lam in range(7)] + [(4, 4), (4, 5)]
    for n, lam in cells:
        for pinned in (False, True):
            stats: dict = {}
            value = count_latin(n, lam, pinned, stats=stats)
            searched = stats["nodes"]
            assert searched == _distinct_states(n, lam, pinned), (n, lam, pinned)
            if (n, lam, pinned) in _PER_PLACEMENT_STATE_COUNTS:
                want = _PER_PLACEMENT_STATE_COUNTS[n, lam, pinned]
                assert (searched, stats["memo_hits"]) == want, (n, lam, pinned)
            assert count_latin(n, lam, pinned, node_budget=searched) == value
            if searched == 1:
                continue
            stats = {}
            with pytest.raises(BudgetExceededError, match=f"visited {searched} nodes,"):
                count_latin(n, lam, pinned, node_budget=searched - 1, stats=stats)
            assert stats["nodes"] == searched, (n, lam, pinned)


def test_memo_keys_wider_than_three_machine_words():
    # A memo key packs the three rows' used-symbol masks, lam + 1 bits each,
    # so lam >= 64 makes it wider than 192 bits.  Two columns with row 0
    # pinned to (1, 2): every first column (1, b, c) leaves its own state, so
    # the root and (lam-1)(lam-2) last-column states are searched, none twice.
    for lam in range(65, 71):
        stats: dict = {}
        pinned = count_latin(2, lam, True, stats=stats)
        assert stats == {"nodes": 1 + (lam - 1) * (lam - 2), "memo_hits": 0}, lam
        assert falling(lam, 2) * pinned == thm3_g(2, lam), lam


def test_enumerate_single_column():
    rects = list(enumerate_latin(1, 3))
    assert len(rects) == 6
    assert rects[0] == ((1,), (2,), (3,))


def test_enumerate_empty_when_impossible():
    assert list(enumerate_latin(2, 2)) == []


def test_enumerate_least_rectangle():
    assert next(enumerate_latin(2, 3)) == ((1, 2), (2, 3), (3, 1))


def test_enumerate_is_sorted_valid_and_complete():
    for n in (1, 2, 3):
        for lam in (2, 3, 4):
            want = count_latin(n, lam)
            rects = list(enumerate_latin(n, lam))
            assert len(rects) == want
            assert all(map(operator.lt, rects, rects[1:]))  # sorted, no repeats
            assert first_invalid(rects, n, lam) is None


def _enumerate_latin_cell_by_cell(n, lam, visit):
    """enumerate_latin as it was before it filled a row at a time: every
    cell in row-major order, symbols ascending.  Hands each rectangle to
    visit as it is found and stops once visit returns True."""
    grid = [[0] * n for _ in range(3)]
    row_used = [0, 0, 0]
    col_used = [0] * n

    def fill(pos):
        if pos == 3 * n:
            return visit(tuple(tuple(row) for row in grid))
        row, col = divmod(pos, n)
        for s in range(1, lam + 1):
            if row_used[row] >> s & 1 or col_used[col] >> s & 1:
                continue
            grid[row][col] = s
            row_used[row] |= 1 << s
            col_used[col] |= 1 << s
            stop = fill(pos + 1)
            row_used[row] &= ~(1 << s)
            col_used[col] &= ~(1 << s)
            if stop:
                return True
        return False

    fill(0)


def test_enumerate_matches_the_cell_by_cell_enumerator():
    cells = [(n, lam) for n in (1, 2, 3) for lam in range(7)] + [(4, 4)]
    for n, lam in cells:
        for limit in (0, 1, 2, 5, 17):
            want = []
            if limit:
                _enumerate_latin_cell_by_cell(
                    n, lam, lambda rect: want.append(rect) or len(want) >= limit
                )
            assert list(islice(enumerate_latin(n, lam), limit)) == want, (n, lam, limit)
        # the whole list, compared as it is found: (3, 6) has 317,760
        full = list(enumerate_latin(n, lam))
        found = iter(full)
        mismatches = []

        def compare(rect):
            if rect != next(found, None):
                mismatches.append(rect)
            return False

        _enumerate_latin_cell_by_cell(n, lam, compare)
        assert not mismatches, (n, lam, mismatches[:1])
        assert next(found, None) is None, (n, lam)
        assert len(full) == count_latin(n, lam), (n, lam)


def test_enumerate_checks_its_rows_against_the_budget_first(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 119)
    with pytest.raises(
        BudgetExceededError,
        match=r"node budget of 119: its perm\(6, 3\) = 120 candidate rows do not fit",
    ):
        enumerate_latin(3, 6)
    monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 120)
    assert len(list(islice(enumerate_latin(3, 6), 1))) == 1


def test_the_rectangle_walk_checks_its_arguments_when_called(monkeypatch):
    # the walk is lazy, but a bad call fails before anything reads it
    with pytest.raises(ValueError):
        enumerate_latin(0, 3)
    monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 119)
    with pytest.raises(BudgetExceededError, match=r"perm\(6, 3\) = 120 candidate rows"):
        enumerate_latin(3, 6)
    monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 120)
    walk = enumerate_latin(3, 6)
    assert next(walk) == ((1, 2, 3), (2, 1, 4), (3, 4, 1))
    assert sum(1 for _ in walk) == count_latin(3, 6) - 1


def test_enumerate_shares_its_row_tuples():
    rects = list(enumerate_latin(2, 4))
    rows = {id(row) for rect in rects for row in rect}
    assert len(rows) == math.perm(4, 2)


def _valid(rect, n, lam):
    """Whether first_invalid finds rect, on its own, valid."""
    return first_invalid((rect,), n, lam) is None


def test_first_invalid_rejects_bad_arrays():
    assert _valid(((1, 2), (2, 3), (3, 1)), 2, 3)
    assert not _valid(((1, 2), (2, 3)), 2, 3)  # only two rows
    assert not _valid(((1, 2), (2, 3), (3,)), 2, 3)  # ragged
    assert not _valid(((1, 1), (2, 3), (3, 2)), 2, 3)  # row repeat
    assert not _valid(((1, 2), (2, 3), (1, 1)), 2, 3)  # column repeat
    assert not _valid(((1, 2), (2, 4), (3, 1)), 2, 3)  # symbol too big
    assert not _valid(((0, 2), (2, 3), (3, 1)), 2, 3)  # symbol too small


@pytest.mark.parametrize(
    "rect",
    [
        [[1, 2], [2, 1], [3, None]],
        [[1, 2], [2, 1], [3, "4"]],
        [[1, 2], [2, 1], [3, [4]]],
        [[None, 2], [2, 1], [3, 4]],
        [[1, 2], [[2], 1], [3, 4]],
        [[1, 2], [2, 1], "34"],
        [[1, 2], 5, [3, 4]],
        [None, [2, 1], [3, 4]],
        [[1, 2], [2, 1], None],
        None,
        5,
        [[1, 2], [2, 3], [3, 1]],
    ],
    ids=["null-symbol", "string-symbol", "list-symbol", "null-in-row-0", "list-in-row-1",
         "string-row", "number-row", "null-row-0", "null-row-2", "null-rectangle",
         "number-rectangle", "list-rows"],
)
def test_first_invalid_raises_on_rectangles_it_cannot_judge(rect):
    # rectangles as JSON holds them: first_invalid takes rows as tuples, so
    # each raises TypeError, alone or after a valid rectangle, and none is
    # judged valid; the last is valid by value but has list rows
    good = ((1, 2), (2, 1), (3, 4))
    for rects in ([rect], [good, rect, good]):
        with pytest.raises(TypeError):
            first_invalid(rects, 2, 4)


def _is_latin_rectangle_per_symbol(rect, n, lam):
    """A validator that shares no code with oracle.first_invalid: a
    generator over every symbol and a set per column."""
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


def test_first_invalid_matches_the_per_symbol_validator():
    rng = random.Random(20241018)
    valid = 0
    for _ in range(20000):
        n = rng.randrange(5)
        lam = rng.randrange(7)
        if 1 <= n <= lam and lam >= 3 and rng.random() < 0.5:
            # a true rectangle, then maybe one cell changed
            rect = [list(row) for row in rng.choice(list(islice(enumerate_latin(n, lam), 8)))]
            if rng.random() < 0.5:
                rng.choice(rect)[rng.randrange(n)] = rng.randrange(lam + 2)
        else:
            rect = [[rng.randrange(lam + 2) for _ in range(n)] for _ in range(3)]
        shape = rng.random()
        if shape < 0.05:
            rect.append([rng.randrange(1, lam + 2) for _ in range(n)])  # a fourth row
        elif shape < 0.1:
            rect.pop()  # two rows
        elif shape < 0.15:
            row = rng.choice(rect)  # ragged
            if row and rng.random() < 0.5:
                row.pop()
            else:
                row.append(rng.randrange(1, lam + 2))
        rect = tuple(tuple(row) for row in rect)
        want = _is_latin_rectangle_per_symbol(rect, n, lam)
        assert _valid(rect, n, lam) == want, (rect, n, lam)
        valid += want
    assert valid > 1000
    # three empty rows are the one 3 x 0 rectangle, on any number of symbols
    for lam in (0, 1, 3):
        assert _valid(((), (), ()), 0, lam)
        assert not _valid(((), ()), 0, lam)
        assert not _valid(((), (), (), ()), 0, lam)


def _first_invalid_one_by_one(rects, n, lam):
    return next((r for r in rects if not _is_latin_rectangle_per_symbol(r, n, lam)), None)


def _column_clash(rect, x, y, j):
    """rect with row x's column-j symbol put in row y's column j.  Row y keeps
    distinct symbols: the symbol is swapped in from elsewhere in row y, or
    written over the old one when row y lacks it."""
    rows = [list(row) for row in rect]
    target = rows[x][j]
    if target in rows[y]:
        k = rows[y].index(target)
        rows[y][j], rows[y][k] = rows[y][k], rows[y][j]
    else:
        rows[y][j] = target
    return tuple(map(tuple, rows))


def test_first_invalid_matches_the_one_by_one_scan():
    rng = random.Random(1318)
    n, lam = 3, 5
    base = list(islice(enumerate_latin(n, lam), 240))

    def mutants(rect):
        rows = [list(row) for row in rect]
        r, j = rng.randrange(3), rng.randrange(n)
        rows[r][j] = rng.choice((0, lam + 1, -2))  # a symbol out of range
        yield tuple(map(tuple, rows))
        rows = [list(row) for row in rect]
        r, j = rng.randrange(3), rng.randrange(n)
        rows[r][j] = rows[r][(j + 1 + rng.randrange(n - 1)) % n]  # a row repeat
        yield tuple(map(tuple, rows))
        for x, y in ((0, 1), (0, 2), (1, 2)):
            for j in range(n):
                yield _column_clash(rect, x, y, j)
                yield _column_clash(rect, y, x, j)
        yield rect[:2]  # two rows
        yield rect + rect[:1]  # four rows
        yield (rect[0][:-1],) + rect[1:]  # ragged: a short row
        yield rect[:2] + (rect[2] + (rng.randrange(1, lam + 1),),)  # a long row

    checked = 0
    for pos in (0, len(base) // 2, len(base) - 1):
        for bad in mutants(base[pos]):
            rects = base[:pos] + [bad] + base[pos + 1:]
            want = _first_invalid_one_by_one(rects, n, lam)
            assert want is not None
            assert first_invalid(rects, n, lam) == want, (pos, bad)
            # with a second bad rectangle further on, the first one is found
            later = rects + [bad[:2]]
            assert first_invalid(later, n, lam) == want
            checked += 1
    assert checked == 3 * 24
    assert first_invalid(base, n, lam) is None
    assert first_invalid([], n, lam) is None
    assert first_invalid([((), (), ())], 0, lam) is None
    assert first_invalid([((), (), ()), ((), ())], 0, lam) == ((), ())


def test_first_invalid_rechecks_rows_0_and_1_when_either_object_changes():
    # enumerate_latin emits blocks of rectangles that hold the same row-0 and
    # row-1 objects, and first_invalid checks that pair once per block.  A
    # bad rectangle at a block's first, middle or last place, with its
    # neighbours' row objects untouched, must still be the one found.
    n, lam = 3, 5
    rects = list(islice(enumerate_latin(n, lam), 300))
    blocks = [list(block) for _, block in groupby(rects, lambda r: (id(r[0]), id(r[1])))]
    at = next(i for i in range(1, len(blocks) - 1) if len(blocks[i]) >= 3)
    start = sum(map(len, blocks[:at]))
    size = len(blocks[at])
    r0, r1, r2 = rects[start]
    assert all(rect[0] is r0 and rect[1] is r1 for rect in blocks[at])

    def clashes(x, y):
        return any(map(operator.eq, x, y))

    def some_row(keep):
        return next(row for row in permutations(range(1, lam + 1), n) if keep(row))

    only_row0 = some_row(lambda row: clashes(row, r0) and not clashes(row, r1))
    only_row1 = some_row(lambda row: clashes(row, r1) and not clashes(row, r0))
    out_of_range = r2[:-1] + (lam + 1,)
    # rows 0 and 1 clash, with the other row of the pair the block's own object
    bad_row1 = some_row(lambda row: clashes(row, r0) and not clashes(row, r2))
    bad_row0 = some_row(lambda row: clashes(row, r1) and not clashes(row, r2))
    copy = tuple(list(r0)), tuple(list(r1))  # equal by value, new objects
    assert copy[0] is not r0 and copy[1] is not r1
    checked = 0
    for pos in (start, start + size // 2, start + size - 1):
        row2 = rects[pos][2]
        bad = [
            (r0, r1, only_row0),
            (r0, r1, only_row1),
            (r0, r1, out_of_range),
            (*copy, only_row0),
            (*copy, only_row1),
            (*copy, out_of_range),
            (r0, bad_row1, row2),
            (bad_row0, r1, row2),
            (copy[0], bad_row1, row2),
        ]
        good = [(r0, r1, tuple(list(row2))), (*copy, row2), (copy[0], r1, row2)]
        for swap in bad + good:
            changed = rects[:pos] + [swap] + rects[pos + 1:]
            want = _first_invalid_one_by_one(changed, n, lam)
            assert want is (swap if swap in bad else None), (pos, swap)
            assert first_invalid(changed, n, lam) is want, (pos, swap)
            checked += 1
        # the block's pair held in new objects from pos on
        moved = rects[:pos] + [(*copy, rect[2]) for rect in rects[pos:start + size]]
        moved += rects[start + size:]
        assert first_invalid(moved, n, lam) is None
        last = start + size - 1
        moved[last] = (*copy, only_row0)
        assert _first_invalid_one_by_one(moved, n, lam) is moved[last]
        assert first_invalid(moved, n, lam) is moved[last]
    assert checked == 3 * 12


def test_first_invalid_judges_symbols_that_are_no_ints_by_value():
    # Symbols are judged by value, so 1.0 and True are 1 and 1.5 is a symbol
    # of its own; first_invalid's cell sets must agree with the per-symbol scan.
    n, lam = 2, 3
    base = [((1, 2), (2, 3), (3, 1)), ((1, 3), (2, 1), (3, 2))]
    cases = [
        ((1.0, 2), (2, 3), (3, 1)),  # valid
        ((True, 2), (2, 3), (3, True)),  # valid
        ((1.5, 2), (2, 1.5), (3, 1)),  # valid
        ((1.0, 2), (2, 3), (1, 3)),  # 1.0 == 1 in column 0
        ((True, 2), (2, 3), (1, 3)),  # True == 1 in column 0
        ((2, 1.0), (1, 2), (3, 1)),  # 1.0 == 1 in column 1
        ((1, 1.0), (2, 3), (3, 2)),  # 1.0 == 1 in row 0
        ((3.5, 2), (2, 3), (3, 1)),  # 3.5 > lam
    ]
    verdicts = []
    for bad in cases:
        for rects in (base + [bad], [bad] + base, base[:1] + [bad] + base[1:] + [bad[:2]]):
            want = _first_invalid_one_by_one(rects, n, lam)
            assert first_invalid(rects, n, lam) == want, rects
        verdicts.append(_valid(bad, n, lam))
    assert verdicts == [True, True, True, False, False, False, False, False]
    # Rows are remembered by value, so (1, 2) in the clashing rectangle reuses
    # the cells kept for (1.0, 2) in the valid one before it.
    rects = [cases[0], ((1, 2), (2, 3), (1, 3))]
    assert first_invalid(rects, n, lam) == _first_invalid_one_by_one(rects, n, lam) == rects[1]


def test_nan_is_no_symbol():
    # 1 <= nan <= lam is false, so a NaN anywhere makes its row invalid.
    # One NaN object twice in a column is one set member to first_invalid's
    # cell sets but unequal to itself under ==; rejecting the row settles it.
    n, lam = 2, 3
    nan = float("nan")
    base = [((1, 2), (2, 3), (3, 1))]
    for bad in (
        ((nan, 2), (2, 3), (3, 1)),
        ((nan, 2), (nan, 3), (3, 1)),
        ((1, 2), (2, 3), (3, nan)),
    ):
        assert not _valid(bad, n, lam), bad
        for rects in ([bad], base + [bad], [bad] + base):
            assert first_invalid(rects, n, lam) is bad


def test_first_invalid_codes_reach_past_64_bits():
    # 4 columns on 40 symbols: a clash in the last column, on the largest
    # symbol, is the cell furthest from the first.
    rng = random.Random(40)
    n, lam = 4, 40
    base = []
    while len(base) < 60:
        rect = tuple(tuple(rng.sample(range(1, lam + 1), n)) for _ in range(3))
        if all(len(set(col)) == 3 for col in zip(*rect)):
            base.append(rect)
    assert first_invalid(base, n, lam) is None
    checked = 0
    for pos in (0, 30, 59):
        for x, y in ((0, 1), (0, 2), (1, 2)):
            for target in (base[pos][x][-1], lam):
                rows = [list(row) for row in base[pos]]
                for r in (x, y):  # put target in row r's last column, rows kept distinct
                    if target in rows[r]:
                        k = rows[r].index(target)
                        rows[r][k], rows[r][-1] = rows[r][-1], rows[r][k]
                    else:
                        rows[r][-1] = target
                bad = tuple(map(tuple, rows))
                rects = base[:pos] + [bad] + base[pos + 1:]
                want = _first_invalid_one_by_one(rects, n, lam)
                assert want == bad
                assert first_invalid(rects, n, lam) == want, (pos, x, y, target)
                checked += 1
    assert checked == 18


def test_injection_examples():
    assert injection_counts(5, 3)[0] == 60
    assert injection_counts(3, 3)[3] == 2
    assert injection_counts(4, 3)[2] == 14
    # n = 0 has one injection, the empty one, whatever lam is
    assert injection_counts(300, 0) == [1]


def test_injection_matches_formula_exhaustively():
    # (260, 3): symbols past 255 would not fit in a byte, and the one-by-one
    # walk over its 17,373,720 injections would take about 20 s
    cells = [(lam, n) for lam in range(8) for n in range(lam + 1)] + [(260, 3)]
    for lam, n in cells:
        assert injection_counts(lam, n) == [
            gen_derangement(lam, n, t) for t in range(n + 1)
        ], f"lam={lam} n={n}"


def _count_injections_one_by_one(lam, n, t):
    """One entry of injection_counts as it was before one walk served every
    t: each injection's fixed points among 1..t tested on its own."""
    forbidden = range(1, t + 1)
    return sum(
        1
        for f in permutations(range(1, lam + 1), n)
        if not any(map(operator.eq, f, forbidden))
    )


def test_injection_counts_match_the_one_by_one_walk():
    # (8, 8) and (8, 7) each hold 40,320 injections, so the walk crosses
    # chunk boundaries; at (300, 2) and (1000, 1) symbols past 255 would not
    # fit in a byte
    cells = [(lam, n) for lam in range(9) for n in range(lam + 1)] + [(300, 2), (1000, 1)]
    for lam, n in cells:
        want = [_count_injections_one_by_one(lam, n, t) for t in range(n + 1)]
        assert injection_counts(lam, n) == want, (lam, n)


def test_injection_counts_memory_is_one_chunk():
    # perm(9, 7) = 181,440 injections in 355 chunks of 512, which peak near
    # 11 KiB
    injection_counts(3, 2)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        assert injection_counts(9, 7)[7] == gen_derangement(9, 7, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024, f"peaked at {peak} bytes"


def test_injection_rejects_bad_ranges():
    with pytest.raises(ValueError):
        injection_counts(2, 3)
    with pytest.raises(ValueError):
        injection_counts(3, -1)


def test_injection_budget(monkeypatch):
    # perm(15, 10) is far past the default budget; perm(5, 3) = 60 is at
    # a budget of 60 and one past a budget of 59
    with pytest.raises(BudgetExceededError):
        injection_counts(15, 10)
    monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 59)
    with pytest.raises(
        BudgetExceededError,
        match=r"^enumerating perm\(5, 3\) injections exceeds the node budget of 59$",
    ):
        injection_counts(5, 3)
    monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", 60)
    assert injection_counts(5, 3) == [60, 48, 39, 32]
