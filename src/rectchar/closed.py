"""Closed product formulas for rectangle characters on a single cycle.

Write the rectangle as p x q, put n = p q, and track the half-difference
d = (q - p) / 2 together with the half-sum e = (p + q) / 2, so n = e^2 - d^2.
The character of a single cycle splits into four cases by the parity of the
cycle length and the parity of q - p, and in each case it is a fixed
prefactor times a short structured sum times a run of linear factors in n:

  odd cycle 2j-1, q - p even   ->  catalan prefactor and family G
  odd cycle 2j-1, q - p odd    ->  catalan prefactor and family H
  even cycle 2j,  q - p even   ->  central binomial prefactor and family I
  even cycle 2j,  q - p odd    ->  binomial prefactor and family J

Each family member is a polynomial in j and n with integer coefficients,
exposed symbolically by corollary_poly.  It builds all four families with
one integer loop in D = q - p: the factors are 4 n + D^2 - t^2 and
D^2 - t^2 over the offsets t of the parity of D below |D|, the family
coefficients are integer polynomials in j over one common denominator, and
a single checked exact division ends the sum.  ch_rect_fast evaluates the
sum for all four cases at once in the integers S = p + q and D = q - p,
also ending in one checked exact division.  Their reference,
closed_char_ed, is Kerov's transition measure, which shares no formula.

Both integer evaluators run one pass up the offsets t below |D|.  It
keeps a term, the family coefficient times the factors D^2 - t^2 below t,
stepped by an exact recurrence, and a total, which is multiplied by the
next factor S^2 - t^2 (4 n + D^2 - t^2 for the families) before the new
term is added.  The term is 0 from t = |D| on, so the rest is the run of
linear factors alone.  At t = |D| + 2 i each of them is 4 (lo - i)(hi + i),
with lo the shorter side and hi the longer one, so ch_rect_fast takes the
whole run as two falling factorials (math.perm, a product tree in C).
Its pass has head = min(j, |D| / 2) steps, and step k divides by the odd
number 1 + h + 2 k, so its common denominator c0 is the first
min(head, j - 1) odd numbers from 1 + h: at head = j the last divisor,
2j - 1 + h, cancels the numerator's first factor.  The final division is
by c0 4^head.  Every step multiplies a long number, of about k digits
times the digits of the sides, by a short one, so a k-cycle costs head
such steps plus two falling factorials.

The module imports only the polynomial types and the exactness rule of
rectchar.exact, nothing from the oracle or from Stanley's route, so the
three routes stay independent in code and can check one another.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, perm, prod

from ._poly import BiPoly, JNPoly
from .exact import integer, rational

__all__ = [
    "coeff_f",
    "closed_char_ed",
    "corollary_poly",
    "ch_rect_fast",
    "minus_one_row_char",
    "minus_one_col_char",
    "integrality_witness",
]


def coeff_f(j: int, k: int) -> Fraction:
    """Interior coefficient for the odd-cycle families G and H.

    >>> coeff_f(2, 1)
    Fraction(-6, 1)
    >>> coeff_f(5, 0)
    Fraction(1, 1)
    """
    # (-1)^k C(j, k) times the odd numbers from 2j - 1 up, k of them, over
    # those from 1 up to 2k - 1
    if min(integer("j", j), integer("k", k)) < 0:
        raise ValueError("j and k must be non-negative")
    num = perm(j, k) * prod(range(2 * j - 1, 2 * j - 1 + 2 * k, 2))
    den = factorial(k) * prod(range(1, 2 * k, 2))
    return Fraction(-num if k % 2 else num, den)


def closed_char_ed(k_cycle: int, e, d, diff_parity: str = "even"):
    """Single-cycle rectangle character in the (e, d) coordinates.

    The value at p = e - d, q = e + d from Kerov's transition measure
    (S. Kerov, Funct. Anal. Appl. 27, 1993; P. Biane, Lecture Notes in
    Math. 1815, 2003), which shares no formula with the sums it checks:

      Ch_k = -(1/k!) sum_{j<k} (-1)^(k-1-j) C(k-1, j) f(j),
      f(j) = prod_{m=j-k+1}^{j} (m - p)(m + q).

    e and d may be ints or Fractions; any other type, a float or a bool
    included, raises TypeError (rectchar.exact.rational).  diff_parity
    must be "even" or "odd" and changes nothing.

    >>> closed_char_ed(3, Fraction(2), Fraction(0))
    Fraction(-12, 1)
    >>> closed_char_ed(2, Fraction(5, 2), Fraction(1, 2), "odd")
    Fraction(6, 1)
    """
    k = integer("cycle length", k_cycle)
    e, d = rational("e", e), rational("d", d)
    if k < 1:
        raise ValueError("cycle length must be positive")
    if diff_parity not in ("even", "odd"):
        raise ValueError(f"bad difference parity {diff_parity!r}")
    # p = a / b, q = c / g: (b g)^k f(j) is x(m) = (m b - a)(m g + c) over
    # the window, split at m = 0 into high = x(1) ... x(j) and low[i] =
    # (-1)^(i + 1) x(0) ... x(-i), which holds the signs; nothing divides.
    p, q = e - d, e + d
    a, b, c, g = p.numerator, p.denominator, q.numerator, q.denominator
    low = [a * c]
    for m in range(1, k):
        low.append(low[-1] * (m * b + a) * (c - m * g))
    total, high, binom = 0, 1, 1
    for j, below in enumerate(reversed(low), 1):
        total += below * high * binom
        high *= (j * b - a) * (j * g + c)
        binom = binom * (k - j) // j
    return Fraction(total, factorial(k) * (b * g) ** k)


def corollary_poly(two_d: int, cycle_parity: str) -> JNPoly:
    """The family polynomial for the stated half-difference d = two_d / 2.

    cycle_parity "odd" yields the G (two_d even) or H (two_d odd) member,
    cycle_parity "even" the I or J member.  The result is a polynomial in
    J and N with integer coefficients; J stands for the half-length
    parameter of the cycle and N for the diagram size.

    >>> print(corollary_poly(2, "odd"))
    N - 2*J^2 + J + 1
    >>> print(corollary_poly(0, "even"))
    0
    """
    integer("two_d", two_d)
    if cycle_parity not in ("odd", "even"):
        raise ValueError(f"bad cycle parity {cycle_parity!r}")
    # Four times each factor of the (e, d) sum, with e^2 = N + d^2, in the
    # integer D = two_d: D^2 - t^2 and 4 N + D^2 - t^2 for the offsets t of
    # the parity of D below |D|, from 1 for odd D, else from 0 (odd cycles)
    # or 2 (even cycles).  term holds, in J, the family coefficient f_k
    # (h = 0) or g_k (h = 2) times the common denominator m! (2m - 1 + h)!!
    # and the factors below t; rows holds the total, one row of
    # J-coefficients per power of N.
    h = 0 if cycle_parity == "odd" else 2
    offsets = range(two_d % 2 or h, abs(two_d), 2)
    m = len(offsets)
    den = factorial(m) * prod(range(1 + h, 2 * m + h, 2))
    term, rows = [den], [[den]]
    for k, t in enumerate(offsets):
        w = two_d * two_d - t * t
        # times -w (J - k)(2J + 2k - 1 + h) / ((k + 1)(2k + 1 + h))
        lo, div = -k * (2 * k - 1 + h), (k + 1) * (2 * k + 1 + h)
        padded = [0, 0] + term + [0, 0]
        term = [-w * (lo * padded[i + 2] + (h - 1) * padded[i + 1]
                      + 2 * padded[i]) // div for i in range(len(term) + 2)]
        # times 4 N + w, plus the new term
        rows = [[w * a + 4 * b
                 for a, b in zip_longest(row, below, fillvalue=0)]
                for row, below in zip(rows + [[]], [[]] + rows)]
        rows[0] = [a + b for a, b in zip_longest(rows[0], term, fillvalue=0)]
    # even cycles carry d (two_d even) or 2 d (two_d odd) in front
    scale = 1 if h == 0 else two_d // (2 - two_d % 2)
    den *= 4 ** m
    terms = {}
    for n_exp, row in enumerate(rows):
        for j_exp, x in enumerate(row):
            value, rem = divmod(scale * x, den)
            if rem:
                raise ArithmeticError(
                    f"non-integer coefficient {scale * x}/{den} at "
                    f"{(j_exp, n_exp)} in family polynomial")
            if value:
                terms[j_exp, n_exp] = value
    return JNPoly._of(terms)


def ch_rect_fast(k_cycle: int, p: int, q: int) -> int:
    """Normalized character of the p x q rectangle on a k_cycle-cycle.

    Evaluates the closed formula in S = p + q and D = q - p: a pass of
    min(k_cycle, |q - p|) / 2 steps, each a long number times short ones,
    two falling factorials of the sides for the linear factors left, and
    one checked exact division.  A cycle longer than the longest hook,
    p + q - 1, is 0 at once, and so is an even cycle on a square, whose
    prefactor holds q - p.

    >>> ch_rect_fast(3, 2, 2)
    -12
    >>> ch_rect_fast(3, 2, 5)
    0
    >>> ch_rect_fast(1, 1, 5)
    5
    """
    integer("cycle length", k_cycle)
    integer("p", p)
    integer("q", q)
    if k_cycle < 1:
        raise ValueError("cycle length must be positive")
    if p < 1 or q < 1:
        raise ValueError("rectangle sides must be positive")
    if k_cycle >= p + q:
        return 0
    lo, hi = (p, q) if p < q else (q, p)
    dd = q - p
    # Four times each (e, d) factor of the sum: offsets t of the parity
    # of D, from 1 for odd D, else from h = 0 (odd cycles) or 2.
    j = (k_cycle + 1) // 2
    sign = -1 if j % 2 == 0 else 1
    if k_cycle % 2 == 0:
        h, pref = 2, sign * comb(2 * j - 1, j) * dd
    else:  # comb(2j - 2, j - 1) / j, the Catalan number
        h, pref = 0, sign * comb(2 * j - 2, j - 1) // j
    if pref == 0:  # an even cycle on a square: D = 0 in the prefactor
        return 0
    t0 = dd % 2 or h
    head = (hi - lo - t0) // 2
    if head > j:
        head = j
    run = j - head
    # term: c0 (-1)^k C(j, k) (2j - 1 + h) ... (2j + 2k - 3 + h) / ((1 + h)
    # ... (2k - 1 + h)) times the factors D^2 - t^2 below t; total: the
    # terms so far, each times the factors S^2 - t^2 from its own t up.
    s2, d2 = (p + q) ** 2, dd * dd
    c0 = prod(range(1 + h, 1 + h + 2 * (head if head < j else j - 1), 2))
    up, down = 2 * j - 1 + h, 1 + h
    total = term = c0
    for k in range(head):
        t = t0 + 2 * k
        term = (term * ((t * t - d2) * (j - k) * (up + 2 * k))
                // ((k + 1) * (down + 2 * k)))
        total = total * (s2 - t * t) + term
    if run:
        total *= perm(lo, run) * perm(hi + run - 1, run)
    num, den = pref * total, c0 << 2 * head
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integer character value {num}/{den}")
    return value


def minus_one_row_char(k: int, q):
    """Character polynomial of a k-cycle at the formal rectangle (-1) x q.

    q is an int, a Fraction (rectchar.exact.rational) or a BiPoly, such as
    the formal side Q itself.

    >>> minus_one_row_char(3, 4)
    -120
    """
    integer("k", k)
    if not isinstance(q, BiPoly):
        rational("side", q)
    if k < 1:
        raise ValueError("cycle length must be positive")
    out = -1
    for i in range(k):
        out = out * (q + i)
    return out


def minus_one_col_char(k: int, p):
    """Character polynomial of a k-cycle at the formal rectangle p x (-1).

    The transpose of the (-1) x p value: the same for odd k, negated for
    even k.

    >>> minus_one_col_char(3, 4)
    -120
    >>> minus_one_col_char(2, 4)
    20
    """
    row = minus_one_row_char(k, p)
    return row if k % 2 else -row


def integrality_witness(d: int, k: int) -> Fraction:
    """The ratio whose integrality underlies the family coefficients.

    Equals 2 d times the product of d + r over -k < r < k, divided by
    (2 k) factorial.  The value is always an integer for integer d.

    >>> integrality_witness(5, 3)
    Fraction(35, 1)
    >>> integrality_witness(-5, 3)
    Fraction(35, 1)
    """
    num = 2 * integer("d", d)
    if integer("k", k) < 0:
        raise ValueError("k must be non-negative")
    for r in range(-k + 1, k):
        num *= d + r
    return Fraction(num, factorial(2 * k))
