"""Tests for the four counting routes and the identities tying them together.

Expected values fall into three classes:
  - hand-checkable small cases, asserted directly;
  - values frozen after being computed by the independent enumeration
    oracles in latin3.oracle (noted inline);
  - structural identities checked across whole parameter grids.
"""

import tracemalloc
from math import comb, factorial

import pytest

from latin3 import formulas
from latin3.chromatic import Poly, chromatic_poly, eval_poly
from latin3.combinatorics import (
    binom,
    falling,
    gen_derangement,
)
from latin3.formulas import (
    aps_g,
    aps_literal,
    g_npq_closed,
    riordan_l3,
    thm3_g,
)
from latin3.graphs import build_gn, build_gnpq
from latin3.oracle import count_latin


# --- Row-count series -------------------------------------------------------

# Frozen after cross-checking count_latin(n, n, fixed_first_row=True) for
# n <= 4; the n=5 value is confirmed by the same oracle in
# test_riordan_matches_enumeration_past_n_4 and by the g(n,n) = n! * L3(n)
# bridge.
L3_SERIES = {1: 0, 2: 0, 3: 2, 4: 24, 5: 552}


def test_riordan_series():
    for n, expected in L3_SERIES.items():
        assert riordan_l3(n) == expected


def test_riordan_matches_enumeration():
    for n in range(1, 4):
        assert riordan_l3(n) == count_latin(n, n, fixed_first_row=True)


def test_riordan_rejects_nonpositive():
    with pytest.raises(ValueError):
        riordan_l3(0)


# --- Closed form for g(n, lambda) -------------------------------------------

def test_aps_single_column_is_falling_factorial():
    # One column, entries distinct: lam * (lam-1) * (lam-2) ways.
    assert aps_g(1, 3) == 6
    for lam in range(3, 9):
        assert aps_g(1, lam) == lam * (lam - 1) * (lam - 2)


def test_aps_two_columns_matches_engine():
    # G(2) is the triangular prism; frozen value 12 at lam = 3.
    assert aps_g(2, 3) == 12
    poly = chromatic_poly(build_gn(2))
    for lam in range(2, 7):
        assert aps_g(2, lam) == eval_poly(poly, lam)


def test_aps_rejects_bad_arguments():
    with pytest.raises(ValueError):
        aps_g(0, 3)
    with pytest.raises(ValueError):
        aps_g(3, -1)
    with pytest.raises(ValueError, match="needs lam >= n"):
        aps_literal(3, 2)


def test_closed_forms_are_zero_below_n_symbols():
    # Fewer than n symbols cannot fill a row; the engine's polynomials vanish
    # there too, so every closed form must return exactly their value, 0.
    for n in range(1, 4):
        gn = chromatic_poly(build_gn(n))
        for lam in range(n):
            assert aps_g(n, lam) == thm3_g(n, lam) == eval_poly(gn, lam) == 0
            for p in range(n + 1):
                for q in range(n - p + 1):
                    engine = eval_poly(chromatic_poly(build_gnpq(n, p, q)), lam)
                    assert g_npq_closed(n, p, q, lam) == engine == 0


def test_aps_divisibility_never_trips():
    # aps_g cancels the factorials into falling factorials and divides by
    # nothing, so a mis-cancelled term would show up as a wrong value, never as
    # a raise.  The count must still be a count everywhere on the grid; exact
    # divisibility of the literal form is checked against aps_literal below.
    for n in range(1, 7):
        for lam in range(n, n + 5):
            assert aps_g(n, lam) >= 0


def test_aps_matches_literal_factorial_form():
    for n in range(1, 7):
        for lam in [*range(n, n + 9), 1000, 2500]:
            assert aps_g(n, lam) == aps_literal(n, lam)


def test_aps_agrees_with_thm3_at_large_lambda():
    # At lam = 10^6 the literal form needs 10^6! and a quadratic-time division
    # of multi-million-bit integers; aps_g's integers grow only with log(lam),
    # so a return to the literal form would make this test visibly slow.
    for n in range(1, 7):
        for lam in (10**4, 3 * 10**4, 10**6):
            assert aps_g(n, lam) == thm3_g(n, lam)


def _gen_binom(a, b):
    """Generalized binomial a * (a-1) * ... * (a-b+1) / b! for b >= 0; a < 0
    by the reflection (-1)^b * C(b - a - 1, b)."""
    if a >= 0:
        return comb(a, b)
    return (-1) ** b * comb(b - a - 1, b)


def test_gen_binom_literal_definition():
    # a * (a-1) * ... * (a-b+1) / b!, computed here from the product itself
    for a in range(-40, 41):
        for b in range(26):
            num = 1
            for i in range(b):
                num *= a - i
            quotient, remainder = divmod(num, factorial(b))
            assert remainder == 0 and _gen_binom(a, b) == quotient, (a, b)


def _riordan_l3_calling_factorial(n):
    """riordan_l3 term by term: a factorial, _gen_binom and 2**j call each."""
    total = 0
    for j in range(n + 1):
        inner = sum(
            factorial(k) * _gen_binom(-3 * (k + 1), n - k - j) for k in range(n - j + 1)
        )
        total += 2**j * falling(n, n - j) * inner
    return total


def _aps_g_calling_factorial(n, lam):
    """aps_g term by term: factorial, binom, falling and 2**gamma calls each."""
    if lam < n:
        return 0
    d = lam - n
    total = 0
    for alpha in range(n + 1):
        inner = 0
        for beta in range(n - alpha + 1):
            gamma = n - alpha - beta
            term = (
                2**gamma
                * binom(n - alpha, gamma)
                * factorial(beta)
                * binom(3 * d + 3 * alpha + beta + 2, beta)
            )
            inner += -term if beta % 2 else term
        total += falling(d + alpha, alpha) ** 2 * binom(n, alpha) * inner
    return falling(lam, n) * total


def test_recurrences_match_the_term_by_term_sums_to_n_60():
    for n in range(1, 61):
        assert riordan_l3(n) == _riordan_l3_calling_factorial(n), n
        for lam in (0, n - 1, n, n + 1, 2 * n, 10**4):
            assert aps_g(n, lam) == _aps_g_calling_factorial(n, lam), (n, lam)


def test_recurrences_match_the_term_by_term_sums_past_n_60():
    # riordan_l3 steps its inner sums, and aps_g its whole sum, by
    # recurrences whose integers grow with every step; the grid above stops
    # at n = 60.
    for n in (61, 100, 150):
        assert riordan_l3(n) == _riordan_l3_calling_factorial(n), n
    for n in (80, 100, 150):
        for lam in (n, n + 1, 10**4):
            assert aps_g(n, lam) == _aps_g_calling_factorial(n, lam), (n, lam)


def test_aps_g_equals_n_factorial_riordan_to_n_300():
    # two O(n) recurrences from different generating functions: aps_g's in n
    # from the APS sum, riordan_l3's inner one from Euler's series
    for n in range(1, 301):
        assert aps_g(n, n) == factorial(n) * riordan_l3(n), n


# --- Surgery building blocks -------------------------------------------------

def _A_def(lam, k, l, t1, t2):
    """Theorem 3's A factor at one (t1, t2) of the split (k, l), with the
    C(k, t1) that g_npq_closed multiplies in, straight from the definition."""
    d = lam - k - l
    return binom(k, t1) * binom(l, t2) * binom(d, l - t1 - t2) * gen_derangement(l, l, t2)


def _B_def(lam, k, l, t1):
    """Theorem 3's B factor at one t1, summed over the full t3 range."""
    d = lam - k - l
    return sum(
        binom(k - t1, t3) * binom(d + t1, k - t3) * gen_derangement(k, k, t3)
        for t3 in range(k - t1 + 1)
    )


def test_term_A_hand_values():
    # All-zero indices: every factor is a binomial at (x, 0) or D(l, l, 0)
    # with l = 0, so the product collapses to 1.
    assert _A_def(3, 3, 0, 0, 0) == 1
    assert _A_def(4, 0, 2, 0, 2) == 1
    assert _A_def(5, 1, 2, 1, 1) == 2
    # G(1,0,1) on 3 colors: B = 1 and A = C(2, 1) = 2 at t2 = 0 (D(1,1,1) = 0
    # kills t2 = 1), times falling(3, 1).
    a_sum = _A_def(3, 0, 1, 0, 0) + _A_def(3, 0, 1, 0, 1)
    assert (a_sum, _B_def(3, 0, 1, 0)) == (2, 1)
    assert falling(3, 1) * a_sum == g_npq_closed(1, 0, 1, 3) == 6


def test_term_B_hand_values():
    assert _B_def(3, 0, 3, 0) == 1
    assert _B_def(3, 3, 0, 0) == 2
    assert _B_def(4, 1, 0, 0) == 3
    # G(1,1,0) on 3 colors: A = 1 and B = C(2, 1) = 2, squared, times
    # falling(3, 1).
    assert (_A_def(3, 1, 0, 0, 0), _B_def(3, 1, 0, 0)) == (1, 2)
    assert falling(3, 1) * _B_def(3, 1, 0, 0) ** 2 == g_npq_closed(1, 1, 0, 3) == 12


def test_g_npq_hand_cells():
    # g(1,1,0,3): delete the one rung from K3 x K1 = a triangle, leaving a
    # path on 3 vertices; 3 * 2 * 2 = 12 colorings.
    assert g_npq_closed(1, 1, 0, 3) == 12
    # g(1,0,1,3): merge the rung endpoints instead, leaving a single edge.
    assert g_npq_closed(1, 0, 1, 3) == 6
    # Frozen from the chromatic engine on build_gnpq(2, 1, 1).
    assert g_npq_closed(2, 1, 1, 4) == 204


def test_g_npq_matches_engine_exhaustively():
    # every split p + q <= n, plain columns included; 3n + 1 is past the
    # degree of each polynomial, so agreement there is an identity in lam
    for n in range(1, 5):
        for p in range(n + 1):
            for q in range(n - p + 1):
                poly = chromatic_poly(build_gnpq(n, p, q))
                for lam in range(3 * n + 2):
                    assert g_npq_closed(n, p, q, lam) == eval_poly(poly, lam), (n, p, q, lam)


def test_engine_proves_theorem3_and_surgery_at_n5():
    # G(5) and every G(5, k, 5 - k) have at most 15 vertices, so their
    # chromatic polynomials have degree at most 15; for lam >= n the closed
    # forms are polynomials too, and agreement at the 16 points 5..20 makes
    # each an identity in lam.
    lams = range(5, 21)
    gn = chromatic_poly(build_gn(5), max_vertices=15)
    for lam in lams:
        assert thm3_g(5, lam) == aps_g(5, lam) == eval_poly(gn, lam)
    for k in range(6):
        poly = chromatic_poly(build_gnpq(5, k, 5 - k), max_vertices=15)
        for lam in lams:
            assert g_npq_closed(5, k, 5 - k, lam) == eval_poly(poly, lam), (k, lam)


def test_split_sums_rebuild_from_per_term_bodies():
    # falling(lam, n) * sum C(k, t1) A * B^2 over the full ranges of t1, t2
    # (and t3 inside _B_def), term by term from the definitions, must equal
    # g_npq_closed, which sums neither window and reads A and B from one
    # derangement table.  lam < 2n makes d = lam - n < n, where some
    # window terms vanish.
    for n in range(1, 13):
        for lam in range(n, n + 5):
            for k in range(n + 1):
                l = n - k
                total = 0
                for t1 in range(min(k, l) + 1):
                    b_val = _B_def(lam, k, l, t1)
                    for t2 in range(l - t1 + 1):
                        total += _A_def(lam, k, l, t1, t2) * b_val * b_val
                assert falling(lam, n) * total == g_npq_closed(n, k, l, lam), (n, lam, k)


def test_terms_match_their_full_range_definitions():
    # Each t1 term of a split that g_npq_closed sums,
    # t1! falling(lam, n-t1) C(l, t1) e(l, t1) C(k, t1) e(k, t1)^2 with
    # e(m, t1) = GD(m+d, m, m-t1), must equal falling(lam, n) C(k, t1) A B^2
    # with A and B summed over their full t2 and t3 ranges.
    for n in range(1, 13):
        for lam in range(n, n + 5):
            d = lam - n
            for k in range(n + 1):
                l = n - k
                for t1 in range(min(k, l) + 1):
                    full = falling(lam, n) * _B_def(lam, k, l, t1) ** 2 * sum(
                        _A_def(lam, k, l, t1, t2) for t2 in range(l - t1 + 1)
                    )
                    read = (factorial(t1) * falling(lam, n - t1)
                            * binom(l, t1) * gen_derangement(l + d, l, l - t1)
                            * binom(k, t1) * gen_derangement(k + d, k, k - t1) ** 2)
                    assert read == full, (lam, k, l, t1)


def test_b_is_a_generalized_derangement_number():
    # B(k, t1) = GD(k+d, k, k-t1): no window sum over t3 is needed.  B does
    # not depend on l beyond d = lam - k - l.
    for d in range(16):
        for k in range(14):
            for l in range(14):
                for t1 in range(min(k, l) + 1):
                    want = gen_derangement(k + d, k, k - t1)
                    assert _B_def(k + l + d, k, l, t1) == want, (d, k, l, t1)


def test_a_is_b_by_trinomial_revision():
    # C(k, t1) B(k, t1) = C(d+t1, t1) A(k, t1), term by term, so
    # C(d+t1, t1) A(l, t1) = C(l, t1) GD(l+d, l, l-t1); _A_def carries the
    # split's C(k, t1).
    for d in range(16):
        for k in range(14):
            for t1 in range(k + 1):
                for t in range(k - t1 + 1):
                    left = binom(k, t1) * binom(k - t1, t) * binom(d + t1, k - t)
                    right = binom(d + t1, t1) * binom(k, t) * binom(d, k - t1 - t)
                    assert left == right, (d, k, t1, t)
        for k in range(14):
            for l in range(14):
                for t1 in range(min(k, l) + 1):
                    a_val = sum(_A_def(k + l + d, k, l, t1, t2) for t2 in range(l - t1 + 1))
                    want = binom(k, t1) * binom(l, t1) * gen_derangement(l + d, l, l - t1)
                    assert binom(d + t1, t1) * a_val == want, (d, k, l, t1)


def test_g_npq_rejects_bad_arguments():
    for p, q in ((2, 1), (-1, 1), (1, -1)):  # p + q > n, p < 0, q < 0
        with pytest.raises(ValueError):
            g_npq_closed(2, p, q, 4)
    # a plain column is no error: G(2,1,0) has one, and the engine's 384
    assert g_npq_closed(2, 1, 0, 4) == 384
    with pytest.raises(ValueError):
        g_npq_closed(0, 0, 0, 4)
    with pytest.raises(ValueError):
        g_npq_closed(2, 1, 1, -1)


def test_band_is_held_one_column_at_a_time():
    # G(400,0,400) reads column 0 alone, and thm3_g(200, 200) holds one
    # column of at most 201 numbers at a time; building the whole band, 200
    # and 100 further columns, peaks at about 8.3 and 1.2 MiB
    want_cell = falling(401, 400) * gen_derangement(401, 400, 400)
    want_square = factorial(200) * riordan_l3(200)
    tracemalloc.start()
    try:
        assert g_npq_closed(400, 0, 400, 401) == want_cell
        cell_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert thm3_g(200, 200) == want_square
        square_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cell_peak < 2**20
    assert square_peak < 2**19


def test_g_npq_builds_no_band_column_past_its_splits(monkeypatch):
    # with r = n - p - q plain columns, every split (k, l) has min(k, l) <=
    # min(p, q) + r, and the band stops at column n // 2 on its own
    real = formulas.derangement_columns
    pulled = 0

    def counted(n, d):
        nonlocal pulled
        for column in real(n, d):
            pulled += 1
            yield column

    monkeypatch.setattr(formulas, "derangement_columns", counted)
    for n, p, q, want in ((10, 7, 1, 4), (10, 0, 0, 6), (9, 9, 0, 1)):
        pulled = 0
        g_npq_closed(n, p, q, n + 2)
        assert pulled == min(min(p, q) + n - p - q, n // 2) + 1 == want, (n, p, q)


# --- Alternating-sum route ----------------------------------------------------

def test_thm3_small_values():
    assert thm3_g(1, 3) == 6
    assert thm3_g(2, 2) == 0
    assert thm3_g(3, 3) == 12
    assert thm3_g(3, 3) == factorial(3) * riordan_l3(3)


def test_thm3_agrees_with_aps_on_grid():
    for n in range(1, 7):
        for lam in range(n, n + 5):
            assert thm3_g(n, lam) == aps_g(n, lam)


def test_thm3_equals_aps_as_polynomials():
    # For lam >= n both routes are polynomials in lam of degree 3n, so
    # agreement at the 3n + 1 points lam = n..4n proves the identity for n.
    for n in range(1, 21):
        for lam in range(n, 4 * n + 1):
            assert thm3_g(n, lam) == aps_g(n, lam), (n, lam)


@pytest.mark.parametrize("n", range(1, 61))
def test_thm3_square_matches_aps_and_riordan(n):
    # The square benchmark runs n = 10..51; this covers all of it and more.
    assert thm3_g(n, n) == aps_g(n, n) == factorial(n) * riordan_l3(n)


def test_thm3_paired_sum_equals_the_split_sum():
    # thm3_g pairs split l with split n - l inside each band column; the
    # unpaired sum is g_npq_closed's at p = q = 0.  n <= 30 reaches both
    # parities of a column's length N = n - 2s and its ends N = 0 and 1.
    for n in range(1, 31):
        for lam in (*range(3 * n + 2), 10**3, 10**6):
            assert thm3_g(n, lam) == g_npq_closed(n, 0, 0, lam), (n, lam)


def test_thm3_rejects_bad_arguments():
    with pytest.raises(ValueError, match="thm3_g"):
        thm3_g(0, 1)
    with pytest.raises(ValueError, match="thm3_g"):
        thm3_g(2, -1)


# --- Splitting-sum invariance --------------------------------------------------

def alternating_sum(n, m, lam, g_eval):
    """Theorem 2's sum_{q=0}^{m} (-1)^q C(m, q) g_eval(n, m-q, q, lam)."""
    return sum((-1) ** q * binom(m, q) * g_eval(n, m - q, q, lam) for q in range(m + 1))


def test_theorem2_engine_m_invariance():
    # As polynomial identities, not at points: for every 1 <= m <= n <= 4,
    # sum_q (-1)^q C(m, q) P(G(n, m-q, q)) is P(G(n)) itself.
    for n in range(1, 5):
        polys = {
            (p, q): chromatic_poly(build_gnpq(n, p, q))
            for p in range(n + 1)
            for q in range(n - p + 1)
        }
        for m in range(1, n + 1):
            total = Poly((0,))
            for q in range(m + 1):
                total = total + Poly(((-1) ** q * binom(m, q),)) * polys[(m - q, q)]
            assert total == polys[(0, 0)], (n, m)


def test_theorem2_full_split_equals_alternating_sum():
    # With m = n every summand is one split, p + q = n, and the sum must
    # reproduce thm3_g, which takes the same alternating sum with each split
    # paired with its mirror.
    for n in range(1, 4):
        for lam in range(n, 6):
            total = alternating_sum(n, n, lam, g_npq_closed)
            assert total == thm3_g(n, lam)


def test_theorem2_surgered_cells_match_aps_past_brute_force():
    # Theorem 2 on g_npq_closed's surgered cells (p or q != 0) against the
    # APS triple sum, an independent route, at n far past the engine's and
    # the oracles' reach; m = 1 and m = n//2 leave plain columns in every
    # cell, and m = n reads only the split cells p + q = n.
    for n in (11, 17, 24, 31, 40):
        for lam in (n, n + 3):
            want = aps_g(n, lam)
            for m in (1, n // 2, n):
                assert alternating_sum(n, m, lam, g_npq_closed) == want, (n, m, lam)


# --- Bridge to actual rectangle counts ------------------------------------------

def test_closed_forms_count_rectangles():
    for n in range(1, 4):
        for lam in range(n, 7):
            expected = count_latin(n, lam)
            assert aps_g(n, lam) == expected
            assert thm3_g(n, lam) == expected


@pytest.mark.parametrize("n, lam", [(4, 6), (5, 5), (6, 6)])
def test_closed_forms_count_rectangles_past_n_4(n, lam):
    assert count_latin(n, lam) == thm3_g(n, lam) == aps_g(n, lam)


@pytest.mark.parametrize("n", [5, 6])
def test_riordan_matches_enumeration_past_n_4(n):
    assert count_latin(n, n, fixed_first_row=True) == riordan_l3(n)
