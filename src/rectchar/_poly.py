"""Sparse exact bivariate polynomials.

One representation serves three rings: rectangle characters live in Z[P,Q],
their recentered form in Q[D,E] with D half the side difference and E half
the side sum, and the product-form coefficient families in (J,N) with J the
half-cycle index and N the box count (graded with deg J = 1, deg N = 2).

_collect is the one place where terms are summed.  The constructor checks
what it is given against the package's input rule (rectchar.exact): each
exponent an int, each coefficient an int or a Fraction.  Polynomials the
package builds from its own exact terms skip that check through _of.

_digits is the one reader of the packed form that Stanley's content
products and the closed families share: a polynomial at x = 2^B, each
coefficient one balanced base-2^B digit (Kronecker substitution).

>>> p, q = BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1})
>>> print((p + q) * (q - p))
-1*P^2 + 1*Q^2
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import chain

from .exact import integer, is_fraction, rational

__all__ = ["BiPoly", "DEPoly", "JNPoly"]


def _collect(items) -> dict:
    """The (key, coefficient) pairs summed per key, zero sums left out."""
    acc: dict = {}
    for key, c in items:
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def _digits(packed: int, bits: int, count: int) -> tuple[list[int], int]:
    """The count balanced base-2^bits digits of packed, lowest first, and
    what is left above them."""
    base = 1 << bits
    half, mask = base >> 1, base - 1
    out = []
    for _ in range(count):
        digit = packed & mask
        packed >>= bits
        if digit > half:  # negative: borrow 1 from the next digit
            digit -= base
            packed += 1
        out.append(digit)
    return out, packed


def _is_number(value) -> bool:
    # an int or a Fraction; a bool is not a number under the input rule
    if isinstance(value, int):
        return type(value) is not bool
    return is_fraction(value)


def _checked(key, c):
    # one term given from outside the package, under the input rule
    i, j = key
    if integer("exponent", i) < 0 or integer("exponent", j) < 0:
        raise ValueError("exponents must be non-negative")
    return (i, j), rational("coefficient", c)


class _Poly2:
    """Shared core: an exponent-pair to coefficient map with ring operations."""

    VARS = ("X", "Y")
    __slots__ = ("_terms",)

    def __init__(self, terms: "Mapping | Iterable" = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _collect(_checked(key, c) for key, c in items)

    @classmethod
    def _of(cls, terms: dict):
        # terms that are exact, collected and free of zeros by construction,
        # not checked again
        out = cls.__new__(cls)
        out._terms = terms
        return out

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def constant(cls, c: "int | Fraction"):
        return cls._of({(0, 0): c} if rational("constant", c) else {})

    # queries ----------------------------------------------------------------

    def terms(self) -> dict:
        return dict(self._terms)

    def coefficient(self, i: int, j: int) -> "int | Fraction":
        return self._terms.get((i, j), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        """Largest exponent sum; -1 for the zero polynomial."""
        return max((i + j for (i, j) in self._terms), default=-1)

    def evaluate(self, x, y):
        """The value at X = x, Y = y, each an int or a Fraction."""
        rational("x", x)
        rational("y", y)
        total = 0
        for (i, j), c in self._terms.items():
            total += c * x ** i * y ** j
        return total

    # ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, _Poly2):
            if type(other) is not type(self):
                raise TypeError(
                    f"cannot mix {type(self).__name__} with {type(other).__name__}")
            return other
        if isinstance(other, int) or is_fraction(other):
            return type(self).constant(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return type(self)._of(
            _collect(chain(self._terms.items(), rhs._terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return type(self)._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __mul__(self, other):
        if _is_number(other):
            # a number scales each coefficient; 0 gives the zero polynomial
            return type(self)._of({key: c * other
                                   for key, c in self._terms.items()}
                                  if other else {})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return type(self)._of(_collect([
            ((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in self._terms.items()
            for (i2, j2), c2 in rhs._terms.items()]))

    __rmul__ = __mul__

    # comparison and text -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Poly2):
            return type(self) is type(other) and self._terms == other._terms
        if _is_number(other):
            if other == 0:
                return not self._terms
            return self._terms == {(0, 0): other}
        return NotImplemented

    def __hash__(self) -> int:
        if self._terms.keys() <= {(0, 0)}:
            # a constant hashes like the number it equals
            return hash(self._terms.get((0, 0), 0))
        return hash((type(self).__name__, frozenset(self._terms.items())))

    def _sort_key(self, key):
        i, j = key
        return (-i, -j)

    def _monomial_text(self, i: int, j: int) -> str:
        pieces = []
        if i:
            pieces.append(self.VARS[0] if i == 1 else f"{self.VARS[0]}^{i}")
        if j:
            pieces.append(self.VARS[1] if j == 1 else f"{self.VARS[1]}^{j}")
        return "*".join(pieces)

    def _term_text(self, coeff: "int | Fraction", mono: str) -> str:
        # explicit coefficient on every term, matching "-1*P^2*Q + 1*P*Q^2"
        if not mono:
            return str(coeff)
        return f"{coeff}*{mono}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(self._terms.items(), key=lambda kv: self._sort_key(kv[0]))
        chunks = []
        for key, c in ordered:
            mono = self._monomial_text(*key)
            if not chunks:
                chunks.append(self._term_text(c, mono))
            elif c < 0:
                chunks.append("- " + self._term_text(-c, mono))
            else:
                chunks.append("+ " + self._term_text(c, mono))
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"


class BiPoly(_Poly2):
    """Polynomial in the rectangle sides: P rows, Q columns, integer coefficients."""

    VARS = ("P", "Q")

    def swap(self) -> "BiPoly":
        """Exchange the two variables."""
        return BiPoly._of({(j, i): c for (i, j), c in self._terms.items()})

    def substitute_p(self, value) -> dict:
        """Coefficients in Q after setting P to an int or a Fraction; zeros
        dropped."""
        rational("value", value)
        return _collect((j, c * value ** i)
                        for (i, j), c in self._terms.items())

    def substitute_q(self, value) -> dict:
        """Coefficients in P after setting Q to an int or a Fraction; zeros
        dropped."""
        return self.swap().substitute_p(value)


class DEPoly(_Poly2):
    """Polynomial in D (half side difference) and E (half side sum)."""

    VARS = ("D", "E")

    def d_degree(self) -> int:
        return max((i for (i, _) in self._terms), default=-1)

    def is_even_in_d(self) -> bool:
        return all(i % 2 == 0 for (i, _) in self._terms)


class JNPoly(_Poly2):
    """Polynomial in J (half-cycle index) and N (box count).

    The natural grading gives J degree 1 and N degree 2.  Canonical text
    sorts terms by that weighted degree, descending, breaking ties by N
    degree and then J degree; unit coefficients are left implicit.
    """

    VARS = ("J", "N")

    def _sort_key(self, key):
        i, j = key
        return (-(i + 2 * j), -j, -i)

    def _term_text(self, coeff: "int | Fraction", mono: str) -> str:
        if not mono:
            return str(coeff)
        if coeff == 1:
            return mono
        if coeff == -1:
            return f"-{mono}"
        return f"{coeff}*{mono}"
