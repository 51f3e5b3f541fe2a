"""Unit and property tests for the big-integer primitives."""

import pytest
from hypothesis import given, strategies as st

from latin3.combinatorics import (
    binom,
    derangement_table,
    factorial,
    falling,
    gen_binom,
    gen_derangement,
)
from latin3.oracle import injection_counts


def test_factorial_small_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == 2432902008176640000


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


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


def test_binom_symmetry_exhaustive():
    for n in range(31):
        for k in range(n + 1):
            assert binom(n, k) == binom(n, n - k)


@given(st.integers(1, 60), st.integers(-2, 62))
def test_binom_pascal(n, k):
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_gen_binom_examples():
    assert gen_binom(-3, 2) == 6
    assert gen_binom(-1, 5) == -1
    assert gen_binom(7, 3) == 35


@given(st.integers(0, 40), st.integers(0, 40))
def test_gen_binom_matches_binom_on_nonneg(a, b):
    assert gen_binom(a, b) == binom(a, b)


@given(st.integers(-40, -1), st.integers(0, 20))
def test_gen_binom_reflection(a, b):
    # gen_binom evaluates negative a by this reflection, so this restates the
    # implementation; test_gen_binom_literal_definition is the independent check
    assert gen_binom(a, b) == (-1) ** b * binom(-a + b - 1, b)


def test_gen_binom_literal_definition():
    # a * (a-1) * ... * (a-b+1) / b!, computed here from the product itself
    for a in range(-40, 41):
        for b in range(26):
            num = 1
            for i in range(b):
                num *= a - i
            quotient, remainder = divmod(num, factorial(b))
            assert remainder == 0 and gen_binom(a, b) == quotient, (a, b)


def test_gen_binom_pascal_exhaustive():
    for a in range(-10, 11):
        for b in range(11):
            lhs = gen_binom(a, b)
            rhs = (gen_binom(a - 1, b - 1) if b else 0) + gen_binom(a - 1, b)
            assert lhs == rhs, f"Pascal identity fails at a={a} b={b}"


def test_gen_binom_rejects_negative_lower():
    with pytest.raises(ValueError):
        gen_binom(5, -1)


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


def test_derangement_table_matches_inclusion_exclusion():
    table = derangement_table(30)
    assert [len(row) for row in table] == list(range(1, 32))
    for m, row in enumerate(table):
        assert row == [gen_derangement(m, m, t) for t in range(m + 1)]


def test_derangement_table_matches_enumeration():
    for m, row in enumerate(derangement_table(6)):
        assert row == injection_counts(m, m)


def test_derangement_table_rejects_negative():
    assert derangement_table(0) == [[1]]
    with pytest.raises(ValueError):
        derangement_table(-1)
    with pytest.raises(ValueError):
        derangement_table(3, -1)


def test_shifted_derangement_table_matches_inclusion_exclusion():
    # row m of derangement_table(n, d) counts injections of m points into
    # m + d symbols; d = 0 is the permutation table
    for d in range(8):
        table = derangement_table(15, d)
        assert [len(row) for row in table] == list(range(1, 17))
        for m, row in enumerate(table):
            assert row == [gen_derangement(m + d, m, t) for t in range(m + 1)], (m, d)
    assert derangement_table(30, 0) == derangement_table(30)


def test_shifted_derangement_table_matches_enumeration():
    for d in range(4):
        for m, row in enumerate(derangement_table(6, d)):
            assert row == injection_counts(m + d, m), (m, d)
