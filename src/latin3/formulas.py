"""Closed-form counts of 3 x n Latin rectangles on lambda symbols.

Three independent closed forms live here, plus the alternating-sum scaffold
that ties the surgered-graph counts together:

* riordan_l3(n)        -- rectangles over {1..n} with first row pinned to 1..n
* aps_g(n, lam)        -- rectangles over {1..lam}, triple-sum closed form
* thm3_g(n, lam)       -- the same count: theorem2_sum over g_npq_closed
* theorem2_sum         -- the binomial alternating sum over split counts,
                          usable with any evaluator for the surgered graphs

Every route is exact integer arithmetic throughout; agreement between them
(and with the enumeration oracles) is what the test suite enforces.
"""

from __future__ import annotations

import math
from typing import Callable

from .combinatorics import binom, derangement_table, factorial, falling, gen_binom


def riordan_l3(n: int) -> int:
    """Number of 3 x n Latin rectangles on {1..n} whose first row is 1..n in order.

    Evaluates, with all-integer intermediates,

        n! * sum_{k+j<=n} (2^j / j!) * k! * gen_binom(-3(k+1), n-k-j)

    by folding n!/j! into the falling factorial falling(n, n-j).  Degenerate
    widths n = 1, 2 evaluate to 0, matching the enumeration oracle (a column
    needs three distinct symbols).
    """
    if n < 1:
        raise ValueError(f"riordan_l3: n must be >= 1, got {n}")
    total = 0
    for j in range(n + 1):
        inner = sum(
            factorial(k) * gen_binom(-3 * (k + 1), n - k - j)
            for k in range(n - j + 1)
        )
        total += 2**j * falling(n, n - j) * inner
    return total


def _check_n_lam(name: str, n: int, lam: int) -> None:
    if n < 1:
        raise ValueError(f"{name}: n must be >= 1, got {n}")
    if lam < 0:
        raise ValueError(f"{name}: lam must be >= 0, got {lam}")


def aps_g(n: int, lam: int) -> int:
    """Number of 3 x n Latin rectangles on {1..lam}, lam >= 0, by the triple sum

        (lam! n! / ((lam-n)!)^3) * sum_{a+b+c=n} (-1)^b 2^c
            ((lam-n+a)!)^2 / (a! c!) * C(3(lam-n) + 3a + b + 2, b).

    The sum is stated for lam >= n; below that no row fits and the count is 0.
    With d = lam - n the factorials cancel before anything is evaluated:
    lam!/d! = falling(lam, n), ((d+a)!/d!)^2 = falling(d+a, a)^2 and
    n!/(a! c!) = binom(n,a) * binom(n-a,c) * b!, so

        falling(lam, n) * sum_{a+b+c=n} (-1)^b 2^c falling(d+a, a)^2
            binom(n,a) binom(n-a,c) b! C(3d + 3a + b + 2, b).

    Every factor is an integer of O(n log lam) bits, so no lam! is built and
    nothing is divided.
    """
    _check_n_lam("aps_g", n, lam)
    if lam < n:
        return 0
    d = lam - n
    total = 0
    for alpha in range(n + 1):
        for beta in range(n - alpha + 1):
            gamma = n - alpha - beta
            term = (
                2**gamma
                * falling(d + alpha, alpha) ** 2
                * binom(n, alpha)
                * binom(n - alpha, gamma)
                * factorial(beta)
                * binom(3 * d + 3 * alpha + beta + 2, beta)
            )
            total += -term if beta % 2 else term
    return falling(lam, n) * total


def aps_literal(n: int, lam: int) -> int:
    """The APS triple sum exactly as the paper writes it, for lam >= n,

        lam! n! / ((lam-n)!)^3 * sum_{a+b+c=n} (-1)^b 2^c
            ((lam-n+a)!)^2 / (a! c!) * C(3(lam-n) + 3a + b + 2, b),

    with full factorials (math.factorial, math.comb) and exact divisions.
    A division that leaves a remainder raises ArithmeticError.  It builds
    lam!, so it is only a reference for aps_g at modest lam.
    """
    _check_n_lam("aps_literal", n, lam)
    if lam < n:
        raise ValueError(f"aps_literal: the literal form needs lam >= n, got n={n} lam={lam}")
    f = math.factorial
    d = lam - n

    def exact(num: int, den: int, what: str) -> int:
        quotient, remainder = divmod(num, den)
        if remainder:
            raise ArithmeticError(f"aps_literal({n}, {lam}): {what} leaves remainder {remainder}")
        return quotient

    total = 0
    for a in range(n + 1):
        for b in range(n - a + 1):
            c = n - a - b
            term = exact(f(n) * f(d + a) ** 2, f(a) * f(c), f"n! ((d+a)!)^2 / (a! c!) at a={a} c={c}")
            total += (-1) ** b * 2**c * term * math.comb(3 * d + 3 * a + b + 2, b)
    return exact(f(lam) * total, f(d) ** 3, "lam! * sum / ((lam-n)!)^3")


def _check_split(lam: int, k: int, l: int) -> None:
    if k < 0 or l < 0:
        raise ValueError(f"need k, l >= 0, got k={k} l={l}")
    if lam < k + l:
        raise ValueError(f"need lam >= k + l, got lam={lam} k={k} l={l}")


def _term_a(d: int, l: int, t1: int, t2: int, row_l: list[int]) -> int:
    """term_A / C(k, t1), with d = lam - n and row_l[t] = gen_derangement(l, l, t).

    C(k, t1) does not depend on t2, so callers multiply it in once per t1.
    """
    return binom(l, t2) * binom(d, l - t1 - t2) * row_l[t2]


def _term_b(d: int, k: int, t1: int, row_k: list[int]) -> int:
    """term_B with d = lam - n and row_k[t] = gen_derangement(k, k, t)."""
    return sum(
        binom(k - t1, t3) * binom(d + t1, k - t3) * row_k[t3]
        for t3 in range(k - t1 + 1)
    )


def term_A(lam: int, k: int, l: int, t1: int, t2: int) -> int:
    """The A factor: ways to pick the color sets T1, T2, S for the identified
    columns, times the constrained injection count for the merged vertices.

        C(k,t1) * C(l,t2) * C(lam-n, l-t1-t2) * gen_derangement(l, l, t2)

    with n = k + l.
    """
    _check_split(lam, k, l)
    if not 0 <= t1 <= min(k, l):
        raise ValueError(f"term_A: need 0 <= t1 <= min(k,l), got t1={t1} k={k} l={l}")
    if not 0 <= t2 <= l - t1:
        raise ValueError(f"term_A: need 0 <= t2 <= l - t1, got t2={t2} l={l} t1={t1}")
    return binom(k, t1) * _term_a(lam - k - l, l, t1, t2, derangement_table(l)[l])


def term_B(lam: int, k: int, l: int, t1: int) -> int:
    """The B factor: colorings of one full row over the deleted columns,
    independent between the two surviving rows (hence B appears squared):

        sum_{t3=0}^{k-t1} C(k-t1,t3) * C(lam-n+t1, k-t3) * gen_derangement(k, k, t3)

    with n = k + l.
    """
    _check_split(lam, k, l)
    if not 0 <= t1 <= min(k, l):
        raise ValueError(f"term_B: need 0 <= t1 <= min(k,l), got t1={t1} k={k} l={l}")
    return _term_b(lam - k - l, k, t1, derangement_table(k)[k])


def _split_sum(d: int, k: int, l: int, table: list[list[int]]) -> int:
    """sum_{t1} sum_{t2} A * B^2 for the split (k, l), with d = lam - n and
    table = derangement_table(m) for some m >= max(k, l)."""
    row_k, row_l = table[k], table[l]
    total = 0
    for t1 in range(min(k, l) + 1):
        b_val = _term_b(d, k, t1, row_k)
        a_sum = sum(_term_a(d, l, t1, t2, row_l) for t2 in range(l - t1 + 1))
        total += binom(k, t1) * a_sum * b_val * b_val
    return total


def g_npq_closed(n: int, k: int, l: int, lam: int) -> int:
    """Proper lam-colorings of the surgered graph G(n,k,l) when k + l = n:

        falling(lam, n) * sum_{t1=0}^{min(k,l)} sum_{t2=0}^{l-t1} A * B^2.

    B depends only on t1, so it is hoisted out of the inner sum.  Every
    gen_derangement(m, m, t) the factors need is read from one
    derangement_table(n), built once per call by the recurrence
    D(m, t) = D(m, t-1) - D(m-1, t-1).  Row 3 of G(n,k,l) is still an
    n-clique, so for 0 <= lam < n the count is 0.  The closed form is stated
    only for k + l = n; other splits are rejected (the engine handles them).
    """
    _check_n_lam("g_npq_closed", n, lam)
    if k < 0 or l < 0 or k + l != n:
        raise ValueError(f"g_npq_closed: need k + l = n with k, l >= 0, got k={k} l={l} n={n}")
    if lam < n:
        return 0
    return falling(lam, n) * _split_sum(lam - n, k, l, derangement_table(n))


def thm3_g(n: int, lam: int) -> int:
    """Number of 3 x n Latin rectangles on {1..lam}: theorem2_sum at m = n
    with the closed form for the split counts,

        sum_{l=0}^{n} (-1)^l C(n,l) g_npq_closed(n, n-l, l, lam).

    The evaluator is g_npq_closed without its per-call setup: all n + 1
    splits share one derangement_table(n), built once per call by
    D(m, t) = D(m, t-1) - D(m-1, t-1) in O(n^2) subtractions, and
    falling(lam, n) is computed once.  The count is 0 for 0 <= lam < n.
    Agrees with aps_g and with the chromatic engine on G(n); the test suite
    holds all three routes together.
    """
    _check_n_lam("thm3_g", n, lam)
    if lam < n:
        return 0
    d = lam - n
    table = derangement_table(n)
    factor = falling(lam, n)
    return theorem2_sum(n, n, lam, lambda _n, k, l, _lam: factor * _split_sum(d, k, l, table))


def theorem2_sum(
    n: int, m: int, lam: int, g_eval: Callable[[int, int, int, int], int]
) -> int:
    """The alternating binomial sum over splits of the first m columns:

        sum_{q=0}^{m} C(m,q) (-1)^q g_eval(n, m-q, q, lam)

    where g_eval(n, p, q, lam) evaluates the surgered-graph count G(n,p,q)
    by any route (typically the chromatic engine).  For every 1 <= m <= n the
    value is the same and equals the plain G(n) count; that m-invariance is
    one of the identities the verifier checks.
    """
    if n < 1:
        raise ValueError(f"theorem2_sum: n must be >= 1, got {n}")
    if not 1 <= m <= n:
        raise ValueError(f"theorem2_sum: need 1 <= m <= n, got m={m} n={n}")
    total = 0
    for q in range(m + 1):
        term = binom(m, q) * g_eval(n, m - q, q, lam)
        total += -term if q % 2 else term
    return total
