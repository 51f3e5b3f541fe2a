"""Unit and property tests for the big-integer primitives."""

import pytest
from hypothesis import given, strategies as st

from latin3.combinatorics import (
    binom,
    derangement_columns,
    falling,
    gen_derangement,
)
from latin3.oracle import injection_counts


def test_falling_examples():
    assert falling(5, 2) == 20
    assert falling(4, 0) == 1
    assert falling(3, 5) == 0


@given(st.integers(0, 80), st.integers(0, 80))
def test_falling_recurrence(x, n):
    if n >= x:
        assert falling(x, n + 1) == 0
    else:
        assert falling(x, n + 1) == falling(x, n) * (x - n)


def test_falling_rejects_negative():
    with pytest.raises(ValueError):
        falling(-1, 2)
    with pytest.raises(ValueError):
        falling(3, -1)


def test_binom_examples():
    assert binom(5, 2) == 10
    assert binom(4, -1) == 0
    assert binom(10, 10) == 1
    assert binom(3, 7) == 0
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        binom(-1, 0)


def test_binom_symmetry_exhaustive():
    for n in range(31):
        for k in range(n + 1):
            assert binom(n, k) == binom(n, n - k)


@given(st.integers(1, 60), st.integers(-2, 62))
def test_binom_pascal(n, k):
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_gen_derangement_examples():
    assert gen_derangement(5, 3, 0) == 60
    assert gen_derangement(3, 3, 3) == 2
    assert gen_derangement(4, 3, 2) == 14


def test_gen_derangement_t0_is_falling():
    for lam in range(13):
        for n in range(lam + 1):
            assert gen_derangement(lam, n, 0) == falling(lam, n)


def test_gen_derangement_classical_sequence():
    # derangement numbers via their own recurrence D(n) = n D(n-1) + (-1)^n
    d = 1
    for n in range(1, 11):
        d = n * d + (-1) ** n
        assert gen_derangement(n, n, n) == d


@pytest.mark.parametrize("lam,n,t", [(3, 4, 0), (5, 3, 4), (2, 3, 1), (4, 2, 3)])
def test_gen_derangement_rejects_bad_ranges(lam, n, t):
    with pytest.raises(ValueError):
        gen_derangement(lam, n, t)


def _band(n, d):
    """derangement_columns(n, d) as {(m, s): b(m, s)}, checking its shape."""
    columns = list(derangement_columns(n, d))
    assert [len(column) for column in columns] == [n - 2 * s + 1 for s in range(n // 2 + 1)]
    return {(m, s): b for s, column in enumerate(columns) for m, b in enumerate(column, s)}


def _reduced(e, d, s):
    """e(m, s) in the band's units: e // falling(d + s, s), which must divide it."""
    b, remainder = divmod(e, falling(d + s, s))
    assert remainder == 0, (e, d, s)
    return b


def test_derangement_columns_match_inclusion_exclusion():
    # column s of derangement_columns(n, d) holds b(m, s) = e(m, s) / F_s for
    # m = s..n-s, where e(m, s) = GD(m+d, m, m-s) counts the injections of m
    # points into m + d symbols that may fix only the last s points (d = 0
    # is the permutation band) and F_s = falling(d + s, s)
    for d in range(31):
        want = {(m, s): gen_derangement(m + d, m, m - s) for m in range(31) for s in range(m + 1)}
        for n in range(31):
            band = _band(n, d)
            assert band.keys() == {(m, s) for s in range(n // 2 + 1) for m in range(s, n - s + 1)}
            for (m, s), b in band.items():
                assert falling(d + s, s) * b == want[m, s], (n, d, m, s)
    assert list(derangement_columns(30, 0)) == list(derangement_columns(30))


def test_shifted_derangement_columns_match_inclusion_exclusion():
    # far more symbols than points, where the diagonal's factor m + d - 1
    # and its seed e(1, 0) = d dwarf the (m - 1) e(m-2, 0) part, and each
    # column's divisor d + s is near d
    for d in (10**3, 10**6):
        for n in range(13):
            assert _band(n, d) == {
                (m, s): _reduced(gen_derangement(m + d, m, m - s), d, s)
                for s in range(n // 2 + 1)
                for m in range(s, n - s + 1)
            }, (n, d)


def test_derangement_column_zero_is_the_fixed_point_free_diagonal():
    # F_0 = 1, so column 0 is unreduced
    for d in [*range(12), 10**3, 10**6]:
        assert next(derangement_columns(24, d)) == [gen_derangement(m + d, m, m) for m in range(25)], d


def _assert_band_matches_enumeration(d):
    # injection_counts(m + d, m)[t] counts injections with no fixed point
    # among 1..t by walking them, and e(m, s) is its entry t = m - s
    walked = [injection_counts(m + d, m) for m in range(7)]
    for n in range(7):
        for (m, s), b in _band(n, d).items():
            assert b == _reduced(walked[m][m - s], d, s), (n, d, m, s)


def test_derangement_columns_match_enumeration():
    # the permutation band, d = 0
    _assert_band_matches_enumeration(0)


def test_shifted_derangement_columns_match_enumeration():
    # m points into m + d symbols, d = 1..3
    for d in range(1, 4):
        _assert_band_matches_enumeration(d)


def test_derangement_columns_reject_negative():
    assert list(derangement_columns(0)) == [[1]]
    assert list(derangement_columns(1, 5)) == [[1, 5]]
    with pytest.raises(ValueError):
        derangement_columns(-1)
    with pytest.raises(ValueError):
        derangement_columns(3, -1)
