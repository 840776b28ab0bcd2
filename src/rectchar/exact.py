"""The package's one rule for exact numbers, and the Catalan numbers.

Every public function that takes a number asks integer or rational here
instead of checking for itself.  An integer argument (a part, a side, a
cycle length or an index) must be an int; a rational one (a side or a
coordinate a polynomial is evaluated at) may also be a
``fractions.Fraction``.  A float, a bool, a string, None or anything else
raises TypeError, even when it equals an integer: its value is not exact,
or is not a number.  No floating point is used anywhere in the package.

This module is the only one that knows the Fraction type, and it does not
import ``fractions`` up front: the package's formulas are integer products,
and ``fractions`` brings ``decimal`` and ``numbers`` with it.  A Fraction
can exist only once some module has imported ``fractions``, so is_fraction
looks for that module in ``sys.modules`` and imports nothing; fraction
imports the class the first time a value the package returns is rational,
and keeps it.  So ``fractions`` loads only when a Fraction is passed in or
returned.

>>> from fractions import Fraction
>>> integer("k", 3)
3
>>> rational("p", Fraction(1, 2))
Fraction(1, 2)
>>> fraction(6, 4)
Fraction(3, 2)
>>> catalan(4)
14
"""

from __future__ import annotations

import sys
from math import comb

__all__ = [
    "integer",
    "rational",
    "is_fraction",
    "fraction",
    "catalan",
]

_FRACTION = None  # fractions.Fraction, once fraction has imported it


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
    if isinstance(value, int):
        if type(value) is not bool:
            return value
    else:
        # is_fraction, inlined: a Fraction side is stanley_eval's hot path
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(value, fractions.Fraction):
            return value
    raise TypeError(
        f"{name} must be an int or a Fraction, got {type(value).__name__}")


def is_fraction(value) -> bool:
    """Whether value is a fractions.Fraction, without importing fractions.

    >>> is_fraction(1)
    False
    """
    module = sys.modules.get("fractions")
    return module is not None and isinstance(value, module.Fraction)


def fraction(numerator: int, denominator: int):
    """numerator / denominator as a fractions.Fraction in lowest terms;
    ``fractions`` is imported at the first call."""
    global _FRACTION
    if _FRACTION is None:
        from fractions import Fraction
        _FRACTION = Fraction
    return _FRACTION(numerator, denominator)


def catalan(m: int) -> int:
    """The m-th Catalan number C(2m, m) / (m + 1), by exact division.

    >>> [catalan(m) for m in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if integer("m", m) < 0:
        raise ValueError("m must be non-negative")
    return comb(2 * m, m) // (m + 1)
