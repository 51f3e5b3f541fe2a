"""Closed-form counts of 3 x n Latin rectangles on lambda symbols.

Three independent closed forms live here, the paper's literal form of one
of them, and the surgered-graph count that Theorem 3 assembles the plain
one from:

* riordan_l3(n)        -- rectangles over {1..n} with first row pinned to 1..n
* aps_g(n, lam)        -- rectangles over {1..lam}, triple-sum closed form
* aps_literal(n, lam)  -- the same APS sum as the paper writes it, with
                          full factorials and exact divisions; a reference
                          for aps_g at modest lam
* thm3_g(n, lam)       -- the same count: g_npq_closed's sum at p = q = 0,
                          each split paired with its mirror
* g_npq_closed         -- the surgered-graph count G(n,p,q) for p + q <= n:
                          an alternating sum over the plain columns of
                          splits, each a sum over t1 of C(k, t1) * A * B^2

Every route is exact integer arithmetic throughout; agreement between them
(and with the enumeration oracles) is what the test suite enforces.

Theorem 3's factors A and B are window sums over t2 and t3, and both have
closed forms in the generalized derangement numbers GD(a, b, t) =
gen_derangement(a, b, t), with d = lam - n:

* B(k, t1) = GD(k+d, k, k-t1): sort those injections by how many of the
  k - t1 constrained points their image holds (see g_npq_closed);
* C(k, t1) B(k, t1) = C(d+t1, t1) A(k, t1), term by term, by trinomial
  revision of C(k, t1) C(k-t1, t) C(d+t1, k-t).

So every split reads one band of generalized derangement numbers,
e(m, s) = GD(m+d, m, m-s) for s <= n // 2 and m = s..n-s, read reduced by
the F_s = falling(d+s, s) that divides column s
(combinatorics.derangement_columns), and no window sum is evaluated.

The sums are evaluated so that a term costs about one multiply-add.
riordan_l3 takes each inner hypergeometric sum from the linear recurrence
its generating function satisfies, so a step is a few small-by-big
products and calls no binomial, and takes the outer sum by Horner's rule.
aps_g folds its whole double sum into one power series and steps the
linear recurrence in n that the series' differential equation gives, so
it too is O(n) small-by-big products.  g_npq_closed sums every split at
once, one band column per list comprehension.  It reads each column
whole, with a sign of 0 wherever no split is summed, and each column is
built only when the sum reaches it, so the band is held one column at a
time and none past the splits' reach is built.  thm3_g walks the same
columns, but at p = q = 0 the binomials of column s collapse to one row
C(n - 2s, i), so it adds each split to its mirror and takes half the big
products.  Powers of two are shifts, and every division outside
aps_literal is exact.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat

# binom is bound here, not called: the benchmark tracer patches formulas.binom
from .combinatorics import binom, derangement_columns, falling


def riordan_l3(n: int) -> int:
    """Number of 3 x n Latin rectangles on {1..n} whose first row is 1..n in order.

    Evaluates, with all-integer intermediates,

        n! * sum_{k+j<=n} (2^j / j!) * k! * C(-3(k+1), n-k-j),

    where C(a, b) = a (a-1) ... (a-b+1) / b! is the generalized binomial.
    With s = n - j, n!/j! = perm(n, s), and the reflection
    C(-3(k+1), s-k) = (-1)^(s-k) C(s+2k+2, s-k) makes it

        sum_{s=0}^{n} (-1)^s perm(n, s) 2^(n-s) R_s,
        R_s = sum_{k=0}^{s} (-1)^k k! C(s+2k+2, s-k).

    No R_s is summed term by term.  As (-1)^k C(s+2k+2, s-k) is
    [t^s] (1-t)^(-3) (-t/(1-t)^3)^k, the R_s have the generating function
    G(t) = (1-t)^(-3) F(-t/(1-t)^3), where F(z) = sum_k k! z^k is Euler's
    series, fixed by F = 1 + z F + z^2 F' (k! = (k-1)! + (k-1) (k-1)!).
    Substituting F = (1-t)^3 G and z = -t/(1-t)^3 into that equation and
    multiplying it by -(1+2t) gives

        (t^3 - t^2) G' + (2t^4 - 5t^3 + 4t^2 - 1) G + 1 + 2t = 0,

    whose coefficient of t^s reads R_0 = 1, R_1 = 2 and

        R_s = -(s-1) R_{s-1} + (s+2) R_{s-2} - 5 R_{s-3} + 2 R_{s-4},

    with R_{<0} = 0.  The sign (-1)^s is folded in: S_s = (-1)^s R_s has
    S_0 = 1, S_1 = -2 and S_s = (s-1) S_{s-1} + (s+2) S_{s-2} + 5 S_{s-3}
    + 2 S_{s-4}.  The outer sum runs by Horner's rule from s = n down,
    acc = (S_s << (n-s)) + (n-s) * acc, since perm(n, s+1) = (n-s) perm(n, s).
    Each step is a few small-by-big products, so the whole count is O(n)
    of them and no binomial.  Degenerate widths n = 1, 2 evaluate to 0,
    matching the enumeration oracle (a column needs three distinct symbols).
    """
    if n < 1:
        raise ValueError(f"riordan_l3: n must be >= 1, got {n}")
    rows = [0, 0, 1, -2]  # S_{-2}, S_{-1}, S_0, S_1
    for s in range(2, n + 1):
        rows.append((s - 1) * rows[-1] + (s + 2) * rows[-2] + 5 * rows[-3] + 2 * rows[-4])
    total = 0
    for j, row in enumerate(reversed(rows[2:])):  # s = n - j
        total = (row << j) + j * total
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
    n!/(a! c!) = C(n, a) * C(n-a, c) * b!, and with x = 3d + 3a + 2,
    b! C(x+b, b) is the rising product (x+1)(x+2)...(x+b).  So the count is
    falling(lam, n) * S(n), where

        S(n) = sum_a falling(d+a, a)^2 C(n, a) I(n-a, x),
        I(m, x) = sum_{b+c=m} C(m, b) 2^c (-1)^b (x+1)(x+2)...(x+b).

    Neither sum is taken term by term.  The exponential generating function
    of I(m, x) in m is the product of those of 2^c and of
    (-1)^b (x+1)...(x+b), that is e^(2t) (1+t)^(-(x+1)).  Three facts fold
    the sum over a into the same series, with d held fixed:
    C(n, a) (n-a)! = n!/a!, falling(d+a, a) = (d+1)_a, the rising product
    (d+1)(d+2)...(d+a), and x + 1 = 3(d+1) + 3a.  So

        S(n) = n! [t^n] H(t),  H(t) = e^(2t) (1+t)^(-3(d+1)) G(t/(1+t)^3),
        G(z) = sum_a ((d+1)_a)^2 z^a / a!.

    G's coefficients c_a satisfy (a+1) c_{a+1} = (a+d+1)^2 c_a, so with
    theta = z d/dz, G' = (theta + d + 1)^2 G, that is

        z^2 G'' + ((2d+3) z - 1) G' + (d+1)^2 G = 0.

    Substituting z = t/(1+t)^3, whose derivative is (1-2t)/(1+t)^4, and
    G = e^(-2t) (1+t)^(3(d+1)) H, then multiplying the equation by
    (2t-1)^3 e^(2t) (1+t)^(-3d-4), gives P2 H'' + P1 H' + P0 H = 0 with

        P2 = -t^2 + t^3 + 2t^4,
        P1 = 1 - (2d+4) t + (2d-1) t^2 + (4d+3) t^3 + 4t^5,
        P0 = d - d^2 + (d^2-3d) t + (2d^2-9d-1) t^2 + (4d+2) t^3
             + (12d+4) t^4 - 8t^5.

    P2 starts at t^2 and P1 at 1, so the coefficient of t^m of that
    equation holds (m+1) [t^(m+1)] H and coefficients of lower powers
    only.  Multiplied by m!, it turns (m+1)! [t^(m+1)] H into S(m+1) and
    m! [t^(m-i)] H into m(m-1)...(m-i+1) S(m-i), and reads S(0) = 1,
    S(<0) = 0 and, with e = m + d,

        S(m+1) = (e^2 + 3m - d) S(m) - m (e^2 - 4m - 5d + 3) S(m-1)
                 - m(m-1) (2e^2 - 7m - 17d + 5) S(m-2)
                 - 2(2d+1) m(m-1)(m-2) S(m-3)
                 - 4(m + 3d - 3) m(m-1)(m-2)(m-3) S(m-4)
                 + 8 m(m-1)(m-2)(m-3)(m-4) S(m-5).

    The step runs nested, S(m+1) = A S(m) - m (B S(m-1) + (m-1) (...)), so
    the falling factors m(m-1)... fold into ten small-by-big products.  The
    whole count is O(n) of them: no binomial is called and nothing divides.
    """
    _check_n_lam("aps_g", n, lam)
    if lam < n:
        return 0
    d = lam - n
    k1, k2, k3, k4 = 5 * d - 3, 17 * d - 5, 4 * d + 2, 3 * d - 3  # the terms in d alone
    s5 = s4 = s3 = s2 = s1 = 0  # S(m-5) .. S(m-1)
    s0 = 1  # S(m), from m = 0
    for m in range(n):
        e2 = (m + d) ** 2
        s5, s4, s3, s2, s1, s0 = s4, s3, s2, s1, s0, (e2 + 3 * m - d) * s0 - m * (
            (e2 - 4 * m - k1) * s1
            + (m - 1) * (
                (2 * e2 - 7 * m - k2) * s2
                + (m - 2) * (k3 * s3 + (m - 3) * (4 * (m + k4) * s4 - 8 * (m - 4) * s5))
            )
        )
    return falling(lam, n) * s0


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


def g_npq_closed(n: int, p: int, q: int, lam: int) -> int:
    """Proper lam-colorings of the surgered graph G(n,p,q), p, q >= 0 and
    p + q <= n.

    With d = lam - n and GD(a, b, t) = gen_derangement(a, b, t), Theorem 3
    counts a split (k, l), k + l = n, with k deleted and l identified
    columns, as falling(lam, n) * sum_{t1} C(k, t1) * A(l, t1) * B(k, t1)^2,

        A(l, t1) = sum_{t2} C(l, t2) C(d, l-t1-t2) GD(l, l, t2),
        B(k, t1) = sum_{t3} C(k-t1, t3) C(d+t1, k-t3) GD(k, k, t3).

    Both window sums have closed forms:

    * B(k, t1) = GD(k+d, k, k-t1).  Sort the injections of {1..k} into
      {1..k+d} with no fixed point among 1..k-t1 by the t3 of those points
      their image holds and the k - t3 other image points, taken from the
      d + t1 remaining symbols; each is then a bijection onto its image
      that must move those t3 points, GD(k, k, t3) ways.
    * C(k, t1) B(k, t1) = C(d+t1, t1) A(k, t1), term by term (t3 = t2): by
      trinomial revision C(k, t1) C(k-t1, t) C(d+t1, k-t) and
      C(d+t1, t1) C(k, t) C(d, k-t1-t) both equal
      k! (d+t1)! / (t1! t! (k-t)! (k-t1-t)! (d+t1+t-k)!).

    So A(l, t1) = C(l, t1) e(l, t1) / C(d+t1, t1) over the band e(m, s) =
    GD(m+d, m, m-s).  With F_s = falling(d+s, s) = s! C(d+s, s) and the
    reduced band b = e / F_s of derangement_columns(n, d), the split is

        falling(lam, n) sum_{t1} t1! F_t1^2 C(l, t1) b(l, t1) C(k, t1) b(k, t1)^2.

    Deletion-contraction on the row-1/row-2 edge of a plain column makes it
    a deleted column minus an identified one, so with r = n - p - q plain
    columns the count is the alternating sum over j = 0..r of (-1)^j C(r, j)
    times the split (p+r-j, q+j).  At r = 0 that is the single split (p, q);
    at p = q = 0 it is Theorem 2's alternating sum at m = n, the count of
    G(n), which thm3_g takes with each split paired with its mirror.
    On the closed-form side this sum turns Theorem 2's m-invariance into
    Vandermonde's identity, so it is no independent test of Theorem 2: the
    chromatic engine remains the independent side.

    The double sum runs with t1 = s outside.  Column s of the band holds
    every b(m, s) a split with min(k, l) >= s reads, m = s..n-s.  Each
    split has one sign, (-1)^j C(r, j) at l = q + j and 0 at every other
    l, so a column is read whole: u = C(m, s) b(m, s) is formed once per
    entry, v = u b(m, s) is read from its far end, at k = n - l, and the
    terms sign_l u_l v_k with sign_l != 0 are added in one list
    comprehension, which is faster here than chained maps.  The weight
    s! F_s^2, a running product of the small factors s (d+s)^2, multiplies
    that column's sum once, and falling(lam, n) the whole sum.  The columns
    are zipped with the weights of s = 0..min(p, q) + r, which bounds
    min(k, l) in every split, and derangement_columns stops at s = n // 2,
    so no column past min(min(p, q) + r, n // 2) is built.  Row 3
    of G(n,p,q) is still an n-clique, so for 0 <= lam < n the count is 0.
    """
    _check_n_lam("g_npq_closed", n, lam)
    if p < 0 or q < 0 or p + q > n:
        raise ValueError(f"g_npq_closed: need p, q >= 0 and p + q <= n, got p={p} q={q} n={n}")
    if lam < n:
        return 0
    d, r = lam - n, n - p - q
    top = min(p, q) + r  # min(k, l) <= top in every split
    weights = accumulate(range(1, top + 1), lambda w, s: w * s * (d + s) ** 2, initial=1)
    # signs[l] = (-1)^j C(r, j) at l = q + j, the split (n-l, l), else 0
    binoms = map(math.comb, repeat(r), range(r + 1))
    signs = [0] * q + [-c if j % 2 else c for j, c in enumerate(binoms)] + [0] * p
    total = 0
    for s, (weight, column) in enumerate(zip(weights, derangement_columns(n, d))):
        # entry i of u is at m = l = s + i; v = u b is read at m = k = n - l
        u = [math.comb(m, s) * b for m, b in enumerate(column, s)]
        # zip stops at u's n - 2s + 1 entries anyway; the slice's end is
        # there for cost, so that no sign past them is copied
        terms = zip(signs[s : n - s + 1], u, reversed(u), reversed(column))
        total += weight * sum([sign * x * (y * b) for sign, x, y, b in terms if sign])
    return falling(lam, n) * total


def thm3_g(n: int, lam: int) -> int:
    """Number of 3 x n Latin rectangles on {1..lam}: the count of G(n) =
    G(n,0,0), whose n plain columns make it Theorem 2's sum over the n + 1
    splits (n-l, l) with signs (-1)^l C(n, l).

    That is g_npq_closed's sum at p = q = 0, taken here with each split
    paired with its mirror.  In column s of the reduced band b, the split
    (n-l, l) adds falling(lam, n) s! F_s^2 times (-1)^l C(n, l) C(l, s)
    b(l, s) C(n-l, s) b(n-l, s)^2.  With N = n - 2s and l = s + i, the three
    binomials are one row in i times a factor of the column,

        C(n, l) C(l, s) C(n-l, s) = n! / (s! s! i! (N-i)!)
                                  = C(n, 2s) C(2s, s) C(N, i),

    and with a_i = b(s+i, s), entry i of the column, b(n-l, s) = a_{N-i}.
    So column s adds falling(lam, n) w_s T_s, where w_0 = 1,
    w_{s+1} = -w_s N (N-1) (d+s+1)^2 / (s+1) exactly, and

        w_s = (-1)^s C(n, 2s) C(2s, s) s! F_s^2,
        T_s = sum_{i=0}^{N} (-1)^i C(N, i) a_i a_{N-i}^2.

    Terms i and N - i share C(N, i) and a_i a_{N-i}, and (-1)^(N-i) =
    (-1)^N (-1)^i, so for i < N - i the two add to

        (-1)^i C(N, i) a_i a_{N-i} (a_{N-i} + (-1)^N a_i),

    and when N is even the middle term is (-1)^(N/2) C(N, N/2) a_{N/2}^3.
    T_s is then one pass over ceil(N/2) pairs, the product a_i a_{N-i}
    times the signed binomial (-1)^i C(N, i) times the pair sum, in a list
    comprehension, which is faster here than chained maps.
    That is about N big-by-big products per column, where g_npq_closed's
    general loop takes about 2N.  Only the plain columns of G(n) give the
    single binomial row, so g_npq_closed keeps that loop for the surgered
    cells.

    The signed row is built once, at N = n, and carried from column to
    column with no binomial called per pair: its prefix sums are the
    signed row of N - 1, sum_{j<=i} (-1)^j C(N, j) = (-1)^i C(N-1, i) by
    Pascal's rule, so two C-level prefix-sum passes step N down by 2.  A
    prefix sum reads only the entries before it, so the row is kept to
    the N // 2 + 1 entries that column s reads.

    The band is built and held one column of at most n + 1 numbers at a
    time, and the whole sum is O(n^2) big-integer products, whose only
    divisions are exact ones by small ints.  The count is 0 for
    0 <= lam < n.  Agrees with g_npq_closed(n, 0, 0, lam), with aps_g and
    with the chromatic engine on G(n); the test suite and verify hold them
    together.
    """
    _check_n_lam("thm3_g", n, lam)
    if lam < n:
        return 0
    d, total = lam - n, 0
    # row[i] = (-1)^i C(N, i) for i <= N // 2, from N = n
    row = [-c if i % 2 else c for i, c in enumerate(map(math.comb, repeat(n), range(n // 2 + 1)))]
    weight = 1  # (-1)^s C(n, 2s) C(2s, s) s! F_s^2, from s = 0
    for s, a in enumerate(derangement_columns(n, d)):
        N = n - 2 * s
        h = (N + 1) // 2  # the pairs (i, N - i) with i < N - i
        far = a[: N - h : -1]  # a_{N-i} for i < h
        if N % 2:
            column_sum = sum([r * (x * y) * (y - x) for r, x, y in zip(row, a, far)])
        else:
            column_sum = sum([r * (x * y) * (y + x) for r, x, y in zip(row, a, far)])
            column_sum += row[h] * a[h] ** 3
        total += weight * column_sum
        weight = -weight * N * (N - 1) * (d + s + 1) ** 2 // (s + 1)
        row = list(accumulate(accumulate(row[: N // 2])))  # the row of N - 2
    return falling(lam, n) * total
