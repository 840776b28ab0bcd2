"""Tests for the exact scalar layer."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rectchar.exact import (
    catalan,
    double_factorial,
    double_rising_factorial,
    falling_factorial,
)


def test_falling_factorial_examples():
    assert falling_factorial(4, 3) == 24
    assert falling_factorial(4, 0) == 1
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(-2, 3) == -24
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_falling_factorial_rejects_negative_k():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_double_rising_factorial_examples():
    assert double_rising_factorial(3, 2) == 15
    assert double_rising_factorial(1, 4) == 105
    assert double_rising_factorial(5, 0) == 1
    assert double_rising_factorial(-3, 2) == 3


def test_double_factorial_values():
    assert [double_factorial(m) for m in (-1, 1, 3, 5, 7, 9)] == [
        1, 1, 3, 15, 105, 945]


def test_double_factorial_rejects_even_or_too_small():
    with pytest.raises(ValueError):
        double_factorial(4)
    with pytest.raises(ValueError):
        double_factorial(0)
    with pytest.raises(ValueError):
        double_factorial(-3)


def test_catalan_values():
    assert [catalan(m) for m in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430]
    with pytest.raises(ValueError):
        catalan(-1)


@given(st.integers(min_value=1, max_value=40))
def test_catalan_recurrence(m):
    assert (m + 1) * catalan(m) == 2 * (2 * m - 1) * catalan(m - 1)
