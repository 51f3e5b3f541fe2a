"""Exact big-integer combinatorial primitives.

Everything here returns plain Python ints, so results are exact at any size.
falling and binom are guarded wrappers of math.perm and math.comb.  The
rest is the constrained-injection count gen_derangement and
derangement_columns, the band of those counts that Theorem 3's closed form
reads, built one column at a time, as it is read, from a fixed-point-free
diagonal, and held reduced: column s divided by falling(d + s, s).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterator


def falling(x: int, n: int) -> int:
    """Falling factorial x * (x-1) * ... * (x-n+1) for x, n >= 0.

    Equals 0 when n > x and 1 when n == 0.
    """
    if x < 0:
        raise ValueError(f"falling: x must be >= 0, got {x}")
    if n < 0:
        raise ValueError(f"falling: n must be >= 0, got {n}")
    return math.perm(x, n)


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0, with C(n, k) = 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binom: n must be >= 0, got {n}")
    if k < 0:
        return 0
    return math.comb(n, k)


def gen_derangement(lam: int, n: int, t: int) -> int:
    """Injections f of {1..n} into {1..lam} with f(j) != j for j = 1..t.

    Computed by inclusion-exclusion over which of the t forbidden fixed
    points occur:

        sum_{i=0}^{t} (-1)^i * C(t, i) * (lam-i)! / (lam-n)!

    where the quotient of factorials is the falling factorial
    falling(lam - i, n - i).  Requires 0 <= t <= n <= lam.  At t = 0 this is
    the plain injection count falling(lam, n); at lam = n = t it is the
    classical derangement number.
    """
    if not 0 <= t <= n <= lam:
        raise ValueError(
            f"gen_derangement: need 0 <= t <= n <= lam, got lam={lam} n={n} t={t}"
        )
    total = 0
    for i in range(t + 1):
        term = binom(t, i) * falling(lam - i, n - i)
        total += -term if i % 2 else term
    return total


def derangement_columns(n: int, d: int = 0) -> Iterator[list[int]]:
    """Iterator over columns s = 0..n // 2 of the reduced band b(m, s) =
    e(m, s) / F_s, m = s..n - s, where e(m, s) = gen_derangement(m + d, m,
    m - s) and F_s = falling(d + s, s) = (d + 1)(d + 2)...(d + s).

    e(m, s) counts the injections of {1..m} into {1..m+d} that may fix only
    points among the last s; at d = 0 they are permutations.  Column 0 is
    the fixed-point-free diagonal.  Sort those injections f by y = f(m) != m:
    either y is a point i < m with f(i) = m, and dropping both leaves m - 2
    points on m - 2 + d symbols (m - 1 ways to pick i), or rerouting to y
    the point sent to m, if any, leaves m - 1 points on m - 1 + d symbols
    with no fixed point, which with any of the m + d - 1 values of y gives
    f back.  So

        e(m, 0) = (m + d - 1) e(m-1, 0) + (m - 1) e(m-2, 0),

    seeded by gen_derangement itself.  The injections that e(m, s+1) counts
    and e(m, s) does not fix point m - s; removing it and its image leaves
    the ones e(m-1, s) counts, so e(m, s+1) = e(m, s) + e(m-1, s).  By
    inclusion-exclusion over the fixed points among the first m - s points,
    e(m, s) = sum_{j <= m-s} (-1)^j C(m-s, j) (d + 1)(d + 2)...(m + d - j),
    and as j <= m - s each product holds F_s.  So F_s divides e(m, s), and

        b(m, s+1) = (b(m, s) + b(m-1, s)) / (d + s + 1)

    divides exactly.  Each further column is one pass over the last one
    and itself shifted, two entries shorter.  The arguments are checked
    and column 0 is built at the call; each further column is built only
    when the reader asks for it, and only the last one is held.  These
    are exactly the entries formulas.g_npq_closed reads: B(k, t1) =
    F_t1 b(k, t1) with d = lam - n, and a split (k, l) with k + l = n
    reads only t1 <= min(k, l), so m <= n - t1.
    """
    if n < 0 or d < 0:
        raise ValueError(f"derangement_columns: need n, d >= 0, got n={n} d={d}")
    column = [gen_derangement(d, 0, 0), gen_derangement(d + 1, 1, 1)][: n + 1]
    for m in range(2, n + 1):
        column.append((m + d - 1) * column[-1] + (m - 1) * column[-2])
    steps = range(d + 1, d + n // 2 + 1)  # column s is divided by d + s
    return accumulate(steps, lambda b, k: [(x + y) // k for x, y in zip(b, b[1:-1])], initial=column)
