"""Exact scalar arithmetic for the factorial families behind character formulas.

Everything here is exact: integers are Python ints and rationals are
``fractions.Fraction``.  No floating point is used anywhere in the package.

>>> falling_factorial(4, 3)
24
>>> double_factorial(-1)
1
>>> catalan(4)
14
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

__all__ = [
    "falling_factorial",
    "double_rising_factorial",
    "double_factorial",
    "catalan",
]


def falling_factorial(a: int | Fraction, k: int) -> int | Fraction:
    """a (a - 1) ... (a - k + 1), with the empty product equal to 1.

    >>> falling_factorial(6, 2)
    30
    >>> falling_factorial(Fraction(1, 2), 2)
    Fraction(-1, 4)
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    out: int | Fraction = 1
    for i in range(k):
        out *= a - i
    return out


def double_rising_factorial(a: int | Fraction, k: int) -> int | Fraction:
    """a (a + 2) (a + 4) ... (a + 2(k - 1)), with the empty product equal to 1.

    >>> double_rising_factorial(3, 2)
    15
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    out: int | Fraction = 1
    for i in range(k):
        out *= a + 2 * i
    return out


def double_factorial(m: int) -> int:
    """m!! for odd m >= -1, with (-1)!! == 1.

    >>> double_factorial(5)
    15
    """
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double factorial needs an odd argument >= -1, got {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def catalan(m: int) -> int:
    """The m-th Catalan number (2m)! / (m! (m+1)!), by exact division.

    >>> [catalan(m) for m in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return factorial(2 * m) // (factorial(m) * factorial(m + 1))


if __name__ == "__main__":
    import doctest
    doctest.testmod()
