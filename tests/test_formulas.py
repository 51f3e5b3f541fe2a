"""Tests for the four counting routes and the identities tying them together.

Expected values fall into three classes:
  - hand-checkable small cases, asserted directly;
  - values frozen after being computed by the independent enumeration
    oracles in latin3.oracle (noted inline);
  - structural identities checked across whole parameter grids.
"""

import pytest

from latin3.chromatic import chromatic_poly, eval_poly
from latin3.combinatorics import factorial, falling
from latin3.formulas import (
    aps_g,
    g_npq_closed,
    riordan_l3,
    term_A,
    term_B,
    theorem2_sum,
    thm3_g,
)
from latin3.graphs import build_gn, build_gnpq
from latin3.oracle import count_latin


# --- Row-count series -------------------------------------------------------

# Frozen after cross-checking count_latin(n, n, fixed_first_row=True) for
# n <= 4; the n=5 value is confirmed by the same oracle in the acceptance
# suite's slow lane and by the g(n,n) = n! * L3(n) bridge.
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


def test_closed_forms_are_zero_below_n_symbols():
    # Fewer than n symbols cannot fill a row; the engine's polynomials vanish
    # there too, so every closed form must return exactly their value, 0.
    for n in range(1, 4):
        gn = chromatic_poly(build_gn(n))
        for lam in range(n):
            assert aps_g(n, lam) == thm3_g(n, lam) == eval_poly(gn, lam) == 0
            for p in range(n + 1):
                engine = eval_poly(chromatic_poly(build_gnpq(n, p, n - p)), lam)
                assert g_npq_closed(n, p, n - p, lam) == engine == 0


def test_aps_divisibility_never_trips():
    # The scheme divides by ((lam-n)!)^3 at the end; exactness must hold
    # everywhere on the grid, not just where we check values.
    for n in range(1, 7):
        for lam in range(n, n + 5):
            assert aps_g(n, lam) >= 0


# --- Surgery building blocks -------------------------------------------------

def test_term_A_hand_values():
    # All-zero indices: every factor is a binomial at (x, 0) or D(l, l, 0)
    # with l = 0, so the product collapses to 1.
    assert term_A(3, 3, 0, 0, 0) == 1
    assert term_A(4, 0, 2, 0, 2) == 1
    assert term_A(5, 1, 2, 1, 1) == 2


def test_term_B_hand_values():
    assert term_B(3, 0, 3, 0) == 1
    assert term_B(3, 3, 0, 0) == 2
    assert term_B(4, 1, 0, 0) == 3


def test_term_validation():
    with pytest.raises(ValueError):
        term_A(3, 1, 2, 2, 0)  # t1 > min(k, l) is out of range
    with pytest.raises(ValueError):
        term_A(3, 1, 2, 1, 2)  # t2 > l - t1
    with pytest.raises(ValueError):
        term_A(2, 1, 2, 0, 0)  # lam < k + l
    with pytest.raises(ValueError):
        term_B(2, 1, 2, 0)


def test_g_npq_hand_cells():
    # g(1,1,0,3): delete the one rung from K3 x K1 = a triangle, leaving a
    # path on 3 vertices; 3 * 2 * 2 = 12 colorings.
    assert g_npq_closed(1, 1, 0, 3) == 12
    # g(1,0,1,3): merge the rung endpoints instead, leaving a single edge.
    assert g_npq_closed(1, 0, 1, 3) == 6
    # Frozen from the chromatic engine on build_gnpq(2, 1, 1).
    assert g_npq_closed(2, 1, 1, 4) == 204


def test_g_npq_matches_engine_exhaustively():
    for n in range(1, 4):
        for p in range(n + 1):
            q = n - p
            poly = chromatic_poly(build_gnpq(n, p, q))
            for lam in range(n, 7):
                assert g_npq_closed(n, p, q, lam) == eval_poly(poly, lam)


def test_split_sums_rebuild_from_public_terms():
    # falling(lam, n) * sum A * B^2 from the per-term functions, each of
    # which builds its own derangement row, must equal g_npq_closed, which
    # shares one table across the whole sum.
    for n in range(1, 11):
        for lam in (n, n + 3):
            for k in range(n + 1):
                l = n - k
                total = 0
                for t1 in range(min(k, l) + 1):
                    b_val = term_B(lam, k, l, t1)
                    for t2 in range(l - t1 + 1):
                        total += term_A(lam, k, l, t1, t2) * b_val * b_val
                assert falling(lam, n) * total == g_npq_closed(n, k, l, lam)


def test_g_npq_rejects_bad_arguments():
    with pytest.raises(ValueError):
        g_npq_closed(2, 1, 0, 4)  # p + q != n has no closed form here
    with pytest.raises(ValueError):
        g_npq_closed(0, 0, 0, 4)
    with pytest.raises(ValueError):
        g_npq_closed(2, 1, 1, -1)


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


@pytest.mark.parametrize("n", [30, 51])
def test_thm3_square_matches_aps_and_riordan(n):
    # n = 51 is the top of the square benchmark's range.
    assert thm3_g(n, n) == aps_g(n, n) == factorial(n) * riordan_l3(n)


def test_thm3_rejects_bad_arguments():
    with pytest.raises(ValueError):
        thm3_g(0, 1)
    with pytest.raises(ValueError):
        thm3_g(2, -1)


# --- Splitting-sum invariance --------------------------------------------------

def test_theorem2_engine_m_invariance():
    def engine_eval(n, p, q, lam):
        return eval_poly(chromatic_poly(build_gnpq(n, p, q)), lam)

    for n in range(1, 4):
        polys = {
            (p, q): chromatic_poly(build_gnpq(n, p, q))
            for p in range(n + 1)
            for q in range(n - p + 1)
        }

        def cached_eval(n_, p, q, lam):
            return eval_poly(polys[(p, q)], lam)

        for lam in range(1, 7):
            values = {
                theorem2_sum(n, m, lam, cached_eval) for m in range(1, n + 1)
            }
            assert len(values) == 1
            assert values == {eval_poly(polys[(0, 0)], lam)}


def test_theorem2_full_split_equals_alternating_sum():
    # With m = n every summand has p + q = n, so the closed surgery form
    # applies and the sum must reproduce the alternating-sum route.
    for n in range(1, 4):
        for lam in range(n, 6):
            total = theorem2_sum(
                n, n, lam, lambda n_, p, q, lam_: g_npq_closed(n_, p, q, lam_)
            )
            assert total == thm3_g(n, lam)


def test_theorem2_rejects_bad_m():
    dummy = lambda n, p, q, lam: 0
    with pytest.raises(ValueError):
        theorem2_sum(3, 0, 4, dummy)
    with pytest.raises(ValueError):
        theorem2_sum(3, 4, 4, dummy)


# --- Bridge to actual rectangle counts ------------------------------------------

def test_closed_forms_count_rectangles():
    for n in range(1, 4):
        for lam in range(n, 7):
            expected = count_latin(n, lam)
            assert aps_g(n, lam) == expected
            assert thm3_g(n, lam) == expected
