"""The package's one rule for exact numbers, and the Catalan numbers.

Every public function that takes a number asks integer or rational here
instead of checking for itself.  An integer argument (a part, a side, a
cycle length or an index) must be an int; a rational one (a side or a
coordinate a polynomial is evaluated at) may also be a
``fractions.Fraction``.  A float, a bool, a string, None or anything else
raises TypeError, even when it equals an integer: its value is not exact,
or is not a number.  No floating point is used anywhere in the package.

>>> integer("k", 3)
3
>>> rational("p", Fraction(1, 2))
Fraction(1, 2)
>>> catalan(4)
14
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = [
    "integer",
    "rational",
    "catalan",
]


def integer(name: str, value):
    """value, when it is an int and not a bool; TypeError otherwise.

    >>> integer("k", True)
    Traceback (most recent call last):
    ...
    TypeError: k must be an int, got bool
    """
    if isinstance(value, int) and type(value) is not bool:
        return value
    raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def rational(name: str, value):
    """value, when it is an int (not a bool) or a Fraction; TypeError
    otherwise.

    >>> rational("q", 0.5)
    Traceback (most recent call last):
    ...
    TypeError: q must be an int or a Fraction, got float
    """
    if isinstance(value, (int, Fraction)) and type(value) is not bool:
        return value
    raise TypeError(
        f"{name} must be an int or a Fraction, got {type(value).__name__}")


def catalan(m: int) -> int:
    """The m-th Catalan number C(2m, m) / (m + 1), by exact division.

    >>> [catalan(m) for m in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if integer("m", m) < 0:
        raise ValueError("m must be non-negative")
    return comb(2 * m, m) // (m + 1)
