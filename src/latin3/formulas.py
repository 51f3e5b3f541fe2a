"""Closed-form counts of 3 x n Latin rectangles on lambda symbols.

Three independent closed forms live here, plus the alternating-sum scaffold
that ties the surgered-graph counts together:

* riordan_l3(n)        -- rectangles over {1..n} with first row pinned to 1..n
* aps_g(n, lam)        -- rectangles over {1..lam}, triple-sum closed form
* thm3_g(n, lam)       -- the same count: g_npq_closed(n, 0, 0, lam)
* g_npq_closed         -- the surgered-graph count G(n,p,q) for p + q <= n:
                          an alternating sum over the plain columns of
                          splits, each a sum of C(k, t1) * A * B^2 over t1
* theorem2_sum         -- the binomial alternating sum over split counts,
                          usable with any evaluator for the surgered graphs

Every route is exact integer arithmetic throughout; agreement between them
(and with the enumeration oracles) is what the test suite enforces.

The sums are evaluated so that a term costs about one multiply-add: a
product that gains one factor per step of an index is carried across the
loop instead of rebuilt, powers of two are shifts, binomials are math.comb
calls or reads from tables shared by a whole call, and riordan_l3 sums each
of its rows in one C-level map pass.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import Callable, NamedTuple

from .combinatorics import binom, derangement_table, falling


def riordan_l3(n: int) -> int:
    """Number of 3 x n Latin rectangles on {1..n} whose first row is 1..n in order.

    Evaluates, with all-integer intermediates,

        n! * sum_{k+j<=n} (2^j / j!) * k! * gen_binom(-3(k+1), n-k-j).

    n!/j! is math.perm(n, s) with s = n - j, and 2^j is a shift by j.  The
    generalized binomial is inlined by its reflection,
    gen_binom(-3(k+1), s-k) = (-1)^(s-k) C(s+2k+2, s-k), so with the signed
    factorials (-1)^k k! listed once per call, the inner sum for each s is

        (-1)^s * sum_{k=0}^{s} ((-1)^k k!) * C(s+2k+2, s-k),

    one C-level pass (map over math.comb, summed) per row.  The double sum
    thus costs O(n) interpreted steps and O(n^2) big-integer products.
    Degenerate widths n = 1, 2 evaluate to 0, matching the enumeration
    oracle (a column needs three distinct symbols).
    """
    if n < 1:
        raise ValueError(f"riordan_l3: n must be >= 1, got {n}")
    signed_fact = list(accumulate(range(-1, -n - 1, -1), operator.mul, initial=1))
    total = 0
    for s in range(n + 1):
        binoms = map(math.comb, range(s + 2, 3 * s + 3, 2), range(s, -1, -1))
        term = (math.perm(n, s) * sum(map(operator.mul, signed_fact, binoms))) << (n - s)
        total += -term if s % 2 else term
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
    n!/(a! c!) = C(n, a) * C(n-a, c) * b!, so

        falling(lam, n) * sum_a falling(d+a, a)^2 C(n, a)
            * sum_{b+c=n-a} (-1)^b 2^c C(n-a, c) b! C(3d + 3a + b + 2, b).

    Every factor is an integer of O(n log lam) bits, so no lam! is built and
    nothing is divided.  Each factor is carried rather than rebuilt: with
    x = 3d + 3a + 2, (-1)^b b! C(x + b, b) is the signed rising product
    (-(x+1)) ... (-(x+b)), one multiplication per step of b, and
    falling(d+a, a) grows by one factor per step of a.  2^c C(n-a, c) is
    math.comb(n-a, b) shifted left by c.  A term of the inner sum is thus one
    math.comb call, one shift and one multiply-add.
    """
    _check_n_lam("aps_g", n, lam)
    if lam < n:
        return 0
    d = lam - n
    total = 0
    lead = 1  # falling(d + alpha, alpha)
    for alpha in range(n + 1):
        m = n - alpha
        x = 3 * d + 3 * alpha + 2
        rising = 1  # (-1)^beta beta! C(x + beta, beta)
        inner = 0
        for beta in range(m + 1):
            inner += (math.comb(m, beta) << (m - beta)) * rising
            rising *= -(x + beta + 1)
        total += lead * lead * math.comb(n, alpha) * inner
        lead *= d + alpha + 1
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


def _pascal(row: list[int], count: int) -> list[list[int]]:
    """count rows, each the one before extended by Pascal's rule: if row[j] =
    C(x, j), the result's entry [s][j] is C(x + s, j)."""
    rows = [row]
    for _ in range(count - 1):
        prev = rows[-1]
        rows.append([1, *map(operator.add, prev[1:], prev)])
    return rows


def _triangle(n: int) -> list[list[int]]:
    """Rows 0..n of Pascal's triangle: row a holds C(a, 0..a), no zeros."""
    rows = [[1]]
    for _ in range(n):
        prev = rows[-1]
        rows.append([1, *map(operator.add, prev[1:], prev), 1])
    return rows


class _Tables(NamedTuple):
    """Everything the Theorem-3 factors read for one n and one d = lam - n.

    derange[m][t] = gen_derangement(m, m, t) for t <= m <= n;
    comb[a][b]    = C(a, b) for b <= a <= n (row a has a + 1 entries);
    comb_d[s][j]  = C(d + s, j) for s <= n // 2 and j <= n.

    t1 <= min(k, l) <= n // 2, so comb_d covers every C(d + t1, .) a split
    of n needs.  Built once per call by _tables and dropped with it.
    """

    d: int
    derange: list[list[int]]
    comb: list[list[int]]
    comb_d: list[list[int]]


def _tables(d: int, n: int) -> _Tables:
    """The tables for width n at d = lam - n: O(n^2) additions and n + 1
    math.comb calls, besides derangement_table(n)."""
    return _Tables(
        d,
        derangement_table(n),
        _triangle(n),
        _pascal([binom(d, j) for j in range(n + 1)], n // 2 + 1),
    )


def _split_sum(k: int, l: int, tab: _Tables) -> int:
    """sum_{t1} C(k, t1) * A(t1) * B(t1)^2 for the split (k, l), with tab =
    _tables(lam - n, n) for n = k + l.  A and B are the factors of Theorem 3:

        A(t1) = sum_{t2=0}^{l-t1} C(l, t2) C(d, l-t1-t2) gen_derangement(l, l, t2)

    counts the color sets T2, S of the identified columns times the
    constrained injections of the merged vertices (C(k, t1), the choice of
    T1, is multiplied in once per t1), and

        B(t1) = sum_{t3=0}^{k-t1} C(k-t1, t3) C(d+t1, k-t3) gen_derangement(k, k, t3)

    colors one full row over the deleted columns, independently for the two
    surviving rows, hence squared.  Only nonzero terms are visited: C(d, .)
    vanishes for t2 < l-t1-d and C(d+t1, .) for t3 < k-t1-d.  The table
    rows a split reads are hoisted out of its loop, and the product
    C(l, t2) gen_derangement(l, l, t2) does not depend on t1, so it is
    formed once per split.  At d = 0 one t2 and one t3 survive per t1, so a
    split costs O(min(k, l)) table reads and big-integer products.
    """
    comb, comb_d, d = tab.comb, tab.comb_d, tab.d
    comb_k, row_k, comb_d0 = comb[k], tab.derange[k], comb_d[0]
    row_l = list(map(operator.mul, comb[l], tab.derange[l]))
    total = 0
    for t1 in range(min(k, l) + 1):
        comb_kt, comb_dt, r = comb[k - t1], comb_d[t1], l - t1
        b_val = 0
        for t3 in range(max(0, k - t1 - d), k - t1 + 1):
            b_val += comb_kt[t3] * comb_dt[k - t3] * row_k[t3]
        a_val = 0
        for t2 in range(max(0, r - d), r + 1):
            a_val += row_l[t2] * comb_d0[r - t2]
        total += comb_k[t1] * a_val * b_val * b_val
    return total


def g_npq_closed(n: int, p: int, q: int, lam: int) -> int:
    """Proper lam-colorings of the surgered graph G(n,p,q), p, q >= 0 and
    p + q <= n.

    A split (k, l), k + l = n, has k deleted and l identified columns and
    counts falling(lam, n) * _split_sum(k, l): the sum over t1 of
    C(k, t1) * A * B^2.  Deletion-contraction on the row-1/row-2 edge of a
    plain column makes it a deleted column minus an identified one, so with
    r = n - p - q plain columns

        falling(lam, n) * sum_{j=0}^{r} (-1)^j C(r, j) _split_sum(p+r-j, q+j).

    At r = 0 that is the single split (p, q); at p = q = 0 it is Theorem 2's
    alternating sum at m = n, which is thm3_g.  On the closed-form side this
    sum turns Theorem 2's m-invariance into Vandermonde's identity, so it is
    no independent test of Theorem 2: the chromatic engine remains the
    independent side.

    Every binomial and every gen_derangement(m, m, t) the splits need is
    read from tables built once per call (see _tables), and each split
    skips the terms that are exactly 0 for d = lam - n.  Row 3 of G(n,p,q)
    is still an n-clique, so for 0 <= lam < n the count is 0.
    """
    _check_n_lam("g_npq_closed", n, lam)
    if p < 0 or q < 0 or p + q > n:
        raise ValueError(f"g_npq_closed: need p, q >= 0 and p + q <= n, got p={p} q={q} n={n}")
    if lam < n:
        return 0
    tab, r = _tables(lam - n, n), n - p - q
    return falling(lam, n) * sum(
        (-1) ** j * c * _split_sum(p + r - j, q + j, tab) for j, c in enumerate(tab.comb[r])
    )


def thm3_g(n: int, lam: int) -> int:
    """Number of 3 x n Latin rectangles on {1..lam}: the count of G(n) =
    G(n,0,0) by g_npq_closed, whose n plain columns make it Theorem 2's sum

        falling(lam, n) * sum_{l=0}^{n} (-1)^l C(n,l) _split_sum(n-l, l).

    All n + 1 splits share one set of tables, and at lam = n the whole sum
    is O(n^2) table reads and products.  The count is 0 for 0 <= lam < n.
    Agrees with aps_g and with the chromatic engine on G(n); the test suite
    holds all three routes together.
    """
    return g_npq_closed(n, 0, 0, lam)


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
