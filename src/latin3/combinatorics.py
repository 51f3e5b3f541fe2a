"""Exact big-integer combinatorial primitives.

Everything here returns plain Python ints, so results are exact at any size.
The only non-stdlib-shaped pieces are the generalized binomial (negative
upper argument allowed) and the constrained-injection count used by the
closed-form rectangle counts.
"""

from __future__ import annotations

import math


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
    if n > x:
        return 0
    return math.perm(x, n)


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0, with C(n, k) = 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binom: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def gen_binom(a: int, b: int) -> int:
    """Generalized binomial coefficient a * (a-1) * ... * (a-b+1) / b!.

    The upper argument may be any integer, including negative values; the
    lower argument must be >= 0.  The product of b consecutive integers is
    always divisible by b!, so the division below is exact.
    """
    if b < 0:
        raise ValueError(f"gen_binom: b must be >= 0, got {b}")
    num = 1
    for i in range(b):
        num *= a - i
    return num // math.factorial(b)


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


def derangement_table(n: int) -> list[list[int]]:
    """Rows D[m][t] = gen_derangement(m, m, t) for 0 <= t <= m <= n.

    Permutations of {1..m} with no fixed point among 1..t.  Column t = 0 is
    m!, taken from gen_derangement itself; every other entry follows from

        D(m, t) = D(m, t-1) - D(m-1, t-1)

    (drop those permutations that fix t but none of 1..t-1), so the whole
    table costs O(n^2) subtractions instead of one inclusion-exclusion sum
    per entry.
    """
    if n < 0:
        raise ValueError(f"derangement_table: n must be >= 0, got {n}")
    table: list[list[int]] = []
    for m in range(n + 1):
        row = [gen_derangement(m, m, 0)]
        for t in range(1, m + 1):
            row.append(row[t - 1] - table[m - 1][t - 1])
        table.append(row)
    return table
