"""Exact big-integer combinatorial primitives.

Everything here returns plain Python ints, so results are exact at any size.
The only non-stdlib-shaped pieces are the generalized binomial (negative
upper argument allowed) and the constrained-injection count used by the
closed-form rectangle counts.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial: n must be >= 0, got {n}")
    return math.factorial(n)


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


def gen_binom(a: int, b: int) -> int:
    """Generalized binomial coefficient a * (a-1) * ... * (a-b+1) / b!.

    The upper argument may be any integer, including negative values; the
    lower argument must be >= 0.  One math.comb call gives the value: C(a, b)
    for a >= 0 (0 when b > a), and for a < 0 the reflection

        gen_binom(a, b) = (-1)^b * C(b - a - 1, b),

    which follows from negating each of the b factors of the product.
    """
    if b < 0:
        raise ValueError(f"gen_binom: b must be >= 0, got {b}")
    if a >= 0:
        return math.comb(a, b)
    c = math.comb(b - a - 1, b)
    return -c if b % 2 else c


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


def derangement_table(n: int, d: int = 0) -> list[list[int]]:
    """Rows G[m][t] = gen_derangement(m + d, m, t) for 0 <= t <= m <= n.

    Injections of {1..m} into {1..m+d} with no fixed point among 1..t; at
    d = 0 these are permutations.  Column t = 0 is falling(m + d, m), taken
    from gen_derangement itself; every other entry follows from

        G(m, t) = G(m, t-1) - G(m-1, t-1)

    (drop the injections that fix t but none of 1..t-1: with t and its image
    removed, they are the injections of m - 1 points into m - 1 + d with no
    fixed point among 1..t-1, so d is the same on both sides).  Row m is
    thus the running difference of row m-1 started at falling(m + d, m),
    built in one C-level pass by itertools.accumulate, so the whole table
    costs O(n^2) subtractions and n + 1 gen_derangement calls instead of one
    inclusion-exclusion sum per entry.

    With d = lam - n these are Theorem 3's factors (formulas.g_npq_closed):
    G[k][k-t1] is the window sum B(k, t1), since sorting those injections by
    how many of the k - t1 constrained points their image holds gives B's
    terms, and C(l, t1) G[l][l-t1] = C(d+t1, t1) A(l, t1), since A's terms
    are B's by trinomial revision.
    """
    if n < 0:
        raise ValueError(f"derangement_table: n must be >= 0, got {n}")
    if d < 0:
        raise ValueError(f"derangement_table: d must be >= 0, got {d}")
    table: list[list[int]] = []
    row: list[int] = []
    for m in range(n + 1):
        row = list(accumulate(row, operator.sub, initial=gen_derangement(m + d, m, 0)))
        table.append(row)
    return table
