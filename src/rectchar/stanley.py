"""Stanley's character formula for rectangles, evaluated exactly.

For a cycle type pi of k, fix any permutation w of that type.  Summing
(-q)^cycles(s1) * p^cycles(s2) over all factorizations s1 s2 = w and
applying k sign flips gives the normalized character of the p x q
rectangle at pi.  The whole formula depends on nothing but the joint table
of cycle counts, which then feeds numeric values and the exact polynomial
alike.  Fixed points leave before it: by the definition of the normalized
character, Ch_{pi u 1^m}(p x q) = Ch_pi(p x q) times the falling factorial
(pq - |pi|) (pq - |pi| - 1) ... (pq - |pi| - m + 1), so the evaluators
build the table of the non-unit parts of pi only, once per such core, and
multiply by that one factor; 1^n builds no table, and the empty type has
value 1 at every side, as the oracle gives it.  The table itself still
takes any type, unit parts included.  What depends on the cycle type alone
is split once per type into a plan: |core|, the number m of unit parts and
the core's table, held by reference, not copied; the last 128 types keep
theirs.  The evaluators check the type, then the sides, and only then
fetch the plan, so a refused side builds neither.

The table comes from the Jucys-Murphy content identity (Jucys 1974;
Murphy 1981), not from the k! factorizations:

    sum_{s1 s2 = w} x^c(s1) y^c(s2)
        = (1/k!) sum_{lam |- k} f^lam chi^lam(w)
                 prod_{b in lam} (x + c(b)) (y + c(b)),

with c(b) the content of a box.  The column chi^lam(w) for every lam |- k
comes from one upward sweep of bead moves on a beta-set abacus, smallest
part first, with no Murnaghan-Nakayama recursion and no code shared with
the oracle.  A shape and its conjugate add the same term to every entry
the table keeps (below), so the sum visits one shape of each conjugate
pair, at twice its weight.  f^lam comes from a hook-length formula on the
same beta-sets, and each content product is one integer, a falling
factorial per row taken at x = 2^B and read back as base-2^B digits
(Kronecker substitution); both are cached per shape for the life of the
process, so every type of the same size shares them.  No step costs k!.

Most entries of the table are 0, and two bounds say which in advance.
With |s| = k - cycles(s) the Cayley length, the triangle inequality
|s1| + |s2| >= |w| >= | |s1| - |s2| | confines (c1, c2) to
c1 + c2 <= k + l(pi) and |c1 - c2| <= k - l(pi), and
sgn(s1) sgn(s2) = sgn(w) to c1 + c2 = k + l(pi) (mod 2).  The content sum
takes those entries only (for 1^k just the diagonal), and they must add
up to the k! factorizations, so none can lie outside.  One pass fills a
packed form of them, each row c1 as every second c2 between its bounds
(at k = 7-9, 17-27 entries where the square has 64-100, exactly the
nonzero ones).  The sum is symmetric in x and y: an entry with c1 <= c2
is summed and divided once by k!, and one with c2 < c1 read from row c2,
already built, so no square is filled and the symmetry holds by
construction (verify's oracle-match is the independent check).  Warm
shapes make a table 35-100 us at k = 7-9.  Cold, the dearest at size 24
are cores with no unit part: 8 4 3^4, 6 5 5 4 2^2 and 7 4 3 2^5 take
0.035-0.04 s, 2^12, 3^6 2^3 and 5 4 4 3 2^4 0.025-0.03 s (2-core host,
Python 3.11.7).

The module also carries the change of variables to (D, E) coordinates,
the leading E coefficient of an odd cycle read from it, the expansion in
the even basis prod (D^2 - r^2), and the Jucys-Murphy factorization check
in the integer group ring, on the inverse image words of S_k as bytes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm, prod
from operator import mul

from ._poly import BiPoly, DEPoly, _collect
from .exact import integer, rational
from .young import Partition

__all__ = [
    "stanley_eval",
    "stanley_poly",
    "substitute_ed",
    "leading_square_coeff",
    "decompose_even_basis",
    "jm_factorization_check",
]


def _column(k: int, parts: tuple[int, ...]) -> dict[int, int]:
    """The nonzero characters chi^lam(parts) of the shapes lam |- k.

    A shape is its k-bead beta-set, held as an int bitmask: row i (from 0)
    of lam is a bead at lam_i + k - 1 - i, so the empty shape is
    (1 << k) - 1.  The sweep adds a border strip for each part r, a bead
    moving up from x to an empty x + r, with the sign of the beads it
    jumps; unit parts are 1-strips.  The value does not depend on the
    order of the parts (James and Kerber 1981, 2.7), so the smallest go
    first, onto the few small shapes of the early steps, and the largest
    strip last, where it has the fewest places to go: 7 5 3 3 2 1^4 sweeps
    in about 2 ms, against 9-13 ms largest first.
    """
    column = {(1 << k) - 1: 1}
    for r in reversed(parts):
        step: dict[int, int] = {}
        for mask, value in column.items():
            movable = mask & ~(mask >> r)
            while movable:
                bead = movable & -movable
                movable ^= bead
                moved = mask ^ bead ^ (bead << r)
                # the beads strictly between x and x + r
                jumped = (mask & ((bead << r) - (bead << 1))).bit_count()
                step[moved] = step.get(moved, 0) + (-value if jumped % 2
                                                    else value)
        column = {mask: value for mask, value in step.items() if value}
    return column


def _conjugate_mask(k: int, mask: int) -> int:
    """The k-bead beta-set of the conjugate of the shape lam |- k with
    k-bead beta-set mask: the gaps of mask in positions 0 .. 2k - 1,
    reflected (Macdonald 1995, I.1.7)."""
    gaps = ((1 << 2 * k) - 1) ^ mask
    return int(format(gaps, f"0{2 * k}b")[::-1], 2)


def _content_coeffs(k: int, rows: list[int]) -> tuple[int, ...]:
    """The k + 1 coefficients of prod over the boxes of (x + content), for
    the shape with rows r_0 >= r_1 >= ... of k boxes in all; entry a
    multiplies x^a.

    Row i, its boxes of contents -i .. r_i - 1 - i, is the falling
    factorial perm(x + r_i - 1 - i, r_i).  The product is taken as one
    integer at x = X = 2^B (Kronecker substitution): a coefficient is at
    most prod (1 + |content|) <= k^k in size, so with B = k bitlen(k) + 1
    each is one balanced base-X digit.
    """
    bits = k * k.bit_length() + 1
    base = 1 << bits
    packed = 1
    for i, row in enumerate(rows):
        if not row:
            break
        packed *= perm(base + row - 1 - i, row)
    # a digit above base / 2 is negative and borrows 1 from the next
    half, low = base >> 1, base - 1
    coeffs = []
    for _ in range(k + 1):
        digit = packed & low
        packed >>= bits
        if digit > half:
            digit -= base
            packed += 1
        coeffs.append(digit)
    if packed:
        raise ArithmeticError(f"rows {rows} hold more than {k} boxes")
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _shape(k: int, mask: int) -> tuple[int, tuple[int, ...]]:
    """The pair weight of the shape lam |- k with k-bead beta-set mask, and
    the coefficients of its content product (_content_coeffs).

    The conjugate lam' has chi^lam'(w) = sgn(w) chi^lam(w), f^lam' = f^lam
    and the negated contents, so on every entry (a, b) of _spans it adds
    lam's term times (-1)^(a + b + k + l(w)) = 1.  One shape of each pair
    stands for both: the smaller mask weighs 2 f^lam, a self-conjugate
    shape f^lam, and the larger mask 0, with no coefficients.  A bead at x
    is a row with a box for each gap y < x, of hook length x - y, so
    f^lam = k! / (product of those).

    The 1165 shapes of 2^12's column, 588 of them kept, take about 0.024 s
    cold, about half of that type's cold table; a shape at k = 7-9 takes
    3-4 us (6-9 us box by box; 2-core host, Python 3.11.7).
    """
    conjugate = _conjugate_mask(k, mask)
    if conjugate < mask:
        return 0, ()
    hooks, gaps, rows = 1, [], []
    for x in range(mask.bit_length()):
        if mask >> x & 1:
            for y in gaps:
                hooks *= x - y
            rows.append(len(gaps))
        else:
            gaps.append(x)
    dim = factorial(k) // hooks
    return (dim if conjugate == mask else 2 * dim,
            _content_coeffs(k, rows[::-1]))


@lru_cache(maxsize=None)
def _spans(k: int, length: int) -> tuple[tuple[int, int, int], ...]:
    """(c1, first, last) for each c1: entry (c1, c2) of the joint table of a
    cycle type of k with length parts can be nonzero only for c2 = first,
    first + 2, ..., last.

    The bounds of the module docstring: |c1 - c2| <= k - length, and
    c1 + c2 <= k + length with the parity of k + length; a permutation of
    k >= 1 points has between 1 and k cycles.
    """
    floor = 1 if k else 0
    spans = []
    for c1 in range(floor, k + 1):
        top = k + length - c1  # of the parity every c2 in the row has
        first = max(c1 - k + length, floor)
        last = min(c1 + k - length, top, k)
        spans.append((c1, first + (top - first) % 2, last - (top - last) % 2))
    return tuple(spans)


@lru_cache(maxsize=None)
def _joint_cycle_table(parts: tuple[int, ...]) -> tuple:
    """The joint table of cycle counts of the factorizations s1 s2 = w of a
    permutation w of cycle type parts, packed: one (first, counts) per row
    c1 of _spans, counts[i] the factorizations with c1 cycles in s1 and
    first + 2 i in s2.  The rows are c1 = 1..k for a non-empty type.

    Built from the content identity in the module docstring, in integers,
    one shape of each conjugate pair at the weight _shape gives it, in one
    pass with no square: (a, b) with a <= b is one C-level sum of products
    over the kept shapes and one checked exact division by k!, and (a, b)
    with b < a is entry a of row b, already built.  Entries that sum to k!
    leave none outside the spans.  With the shapes warm a table takes about
    35-55, 60-80 and 65-100 us at k = 7, 8 and 9 (2-core host, Python 3.11.7).
    """
    k = sum(parts)
    spans = _spans(k, len(parts))
    scales, kept = [], []
    for mask, chi in _column(k, parts).items():
        weight, coeffs = _shape(k, mask)
        if weight:
            scales.append(weight * chi)
            kept.append(coeffs)
    # cols[a]: coefficient a of each kept shape; with none kept, the sums
    # are 0 and the sum-to-k! check refuses the table
    cols = list(zip(*kept)) or [()] * (k + 1)
    order, total, table, floor = factorial(k), 0, [], spans[0][0]
    for a, first, last in spans:
        counts = []
        for start, row in table[first - floor:last + 1 - floor:2]:
            counts.append(row[(a - start) // 2])
        upper = cols[max(first, a + (a - first) % 2):last + 1:2]
        if upper:
            weighted = list(map(mul, scales, cols[a]))
            for col in upper:
                count, rest = divmod(sum(map(mul, weighted, col)), order)
                if rest:
                    raise ArithmeticError(
                        f"content sum for {parts} is not divisible by {k}!")
                counts.append(count)
        total += sum(counts)
        table.append((first, tuple(counts)))
    if total != order:
        raise ArithmeticError(
            f"joint table of {parts} misses factorizations outside the spans")
    return tuple(table)


def _type_parts(pi) -> tuple[int, ...]:
    # the parts of the cycle type pi, validated; () is the empty type
    return pi.parts if isinstance(pi, Partition) else Partition(pi).parts


@lru_cache(maxsize=128)
def _plan(parts: tuple[int, ...]) -> tuple[int, int, tuple]:
    """(|core|, m, table) for the valid cycle type parts: its core, the
    non-unit parts, of total |core|, its m unit parts, and the core's joint
    cycle table (the same object _joint_cycle_table caches), () for the
    empty core, which has value 1.

    Only the last 128 types keep a plan: a caller meets a type's cases
    together, and a plan is cheap to redo from the cached table, where one
    per type of a long run would keep every type alive.
    """
    m = parts.count(1)
    core = parts[:len(parts) - m]
    return sum(core), m, _joint_cycle_table(core) if core else ()


def stanley_eval(pi, p, q):
    """Normalized character of the p x q rectangle at the cycle type pi.

    p and q may be any ints or Fractions, not only positive integers; the
    value is the character polynomial evaluated there, an int when p and q
    are ints and a Fraction otherwise.  Any other type, a float or a bool
    included, raises TypeError (rectchar.exact.rational).  The value is
    the core's times the falling factorial of pq - |core| of length m.

    >>> stanley_eval(Partition((2,)), 2, 3)
    6
    """
    parts = _type_parts(pi)
    int_sides = type(p) is int and type(q) is int
    if not int_sides:
        rational("p", p)
        rational("q", q)
        # an int subclass other than bool is an int side
        int_sides = not isinstance(p, Fraction) and not isinstance(q, Fraction)
    k, m, table = _plan(parts)
    # With p = a/b and -q = c/d, (b d)^k times the core's value is an
    # integer: one homogeneous Horner pass over the packed rows, in c1 with
    # (c, d) outside and in c2, two at a time, with (a^2, b^2) inside.  Row
    # c1 holds a^first b^(k - last) times its inner sum.  Each fixed point
    # adds a factor -a c - (k + i) b d over b d, so one division by
    # (b d)^|pi| ends the pass.  Int sides have b = d = 1, build no powers
    # of them and no Fraction.
    if int_sides:
        a, c = p, -q
        total = 1
        if table:
            a2 = a * a
            total = 0
            for first, counts in reversed(table):
                inner = 0
                for count in reversed(counts):
                    inner = inner * a2 + count
                total = total * c + inner * a ** first
            total *= -c if k % 2 else c
        if m:
            x = p * q - k
            total *= prod(range(x, x - m, -1))
        return total
    a, b = p.numerator, p.denominator
    c, d = -q.numerator, q.denominator
    total = 1
    if table:
        a2, b2 = a * a, b * b
        total, d_power = 0, 1
        for first, counts in reversed(table):
            inner, b_power = 0, b ** (k + 2 - first - 2 * len(counts))
            for count in reversed(counts):
                inner = inner * a2 + count * b_power
                b_power *= b2
            total = total * c + inner * a ** first * d_power
            d_power *= d
        total *= -c if k % 2 else c
    bd = b * d
    if m:
        x = -a * c - k * bd
        total *= prod(range(x, x - m * bd, -bd))
    return Fraction(total, bd ** (k + m))


def stanley_poly(pi) -> BiPoly:
    """The rectangle character at pi as an exact polynomial in P and Q,
    read from the joint cycle table of its core: after the sign flips, the
    core's polynomial times prod_{i<m} (PQ - |core| - i) for its m unit
    parts, that product expanded once in N = PQ.

    >>> print(stanley_poly(Partition((2,))))
    -1*P^2*Q + 1*P*Q^2
    """
    k, m, rows = _plan(_type_parts(pi))
    # the core's term P^c2 Q^c1 has the sign of (-1)^(|core| + c1); the
    # empty core has no rows and is the constant 1
    sign = -1 if k % 2 else 1
    terms = {} if rows else {(0, 0): 1}
    for c1, (first, counts) in enumerate(rows, 1):
        row_sign = -sign if c1 % 2 else sign
        for j, count in enumerate(counts):
            if count:
                terms[(first + 2 * j, c1)] = row_sign * count
    if m:
        # factor[e] is the coefficient of N^e in prod_{i<m} (N - k - i)
        factor = [1]
        for i in range(m):
            root = k + i
            factor = [low - root * high
                      for low, high in zip([0] + factor, factor + [0])]
        terms = _collect(((c2 + e, c1 + e), c * f)
                         for (c2, c1), c in terms.items()
                         for e, f in enumerate(factor))
    return BiPoly._of(terms)


def substitute_ed(poly: BiPoly) -> DEPoly:
    """Substitute P = E - D and Q = E + D, exactly.

    poly must be a BiPoly; anything else, a DEPoly included, raises
    TypeError.

    >>> print(substitute_ed(BiPoly({(1, 1): 1})))
    -1*D^2 + 1*E^2
    """
    if not isinstance(poly, BiPoly):
        raise TypeError(f"poly must be a BiPoly, got {type(poly).__name__}")
    return DEPoly._of(_collect(_ed_terms(poly.terms())))


def _ed_terms(terms: dict):
    # c P^i Q^j = c (E - D)^i (E + D)^j, one binomial term at a time
    for (i, j), c in terms.items():
        for a in range(i + 1):
            ca = -c * comb(i, a) if a % 2 else c * comb(i, a)
            for b in range(j + 1):
                yield (a + b, i + j - a - b), ca * comb(j, b)


def leading_square_coeff(j: int) -> int:
    """Coefficient of E^(2 j) in the (2 j - 1)-cycle character polynomial.

    Substitutes P = E - D, Q = E + D into Stanley's polynomial for a
    single odd cycle and reads off the top coefficient in E, which is
    (-1)^(j - 1) times the (j - 1)-th Catalan number; verify's
    leading-catalan suite checks that.

    >>> leading_square_coeff(2)
    -1
    """
    if integer("j", j) < 1:
        raise ValueError("j must be positive")
    poly = substitute_ed(stanley_poly(Partition((2 * j - 1,))))
    return poly.coefficient(0, 2 * j)


def decompose_even_basis(poly: DEPoly, j: int) -> list[DEPoly]:
    """Coefficients of poly in the basis prod_{r=0}^{k-1} (D^2 - r^2).

    poly must be a DEPoly (TypeError otherwise) that is even in D with
    D-degree at most 2j (ValueError otherwise).  Entry k of the result
    multiplies the k-th basis product; each entry is a polynomial in E
    alone, returned as a DEPoly with no D exponents.

    >>> parts = decompose_even_basis(DEPoly({(0, 2): 1, (2, 0): -1}), 1)
    >>> [str(f) for f in parts]
    ['1*E^2', '-1']
    """
    if not isinstance(poly, DEPoly):
        raise TypeError(f"poly must be a DEPoly, got {type(poly).__name__}")
    if integer("j", j) < 1:
        raise ValueError("j must be positive")
    if not poly.is_even_in_d():
        raise ValueError("polynomial is not even in D")
    if poly.d_degree() > 2 * j:
        raise ValueError(
            f"D-degree {poly.d_degree()} exceeds the basis bound {2 * j}")
    # basis[k] = prod_{r<k} (D^2 - r^2); entry k is the D^(2k) row of what
    # is left once the entries above it are taken out
    d2 = DEPoly._of({(2, 0): 1})
    basis = [DEPoly.constant(1)]
    for r in range(j):
        basis.append(basis[-1] * (d2 - r * r))
    out, rest = [], poly
    for k in range(j, -1, -1):
        entry = DEPoly._of({(0, e): c for (dexp, e), c in rest.terms().items()
                            if dexp == 2 * k})
        out.append(entry)
        rest = rest - entry * basis[k]
    return out[::-1]


def jm_factorization_check(k: int) -> bool:
    """Whether (1 + J_1)(1 + J_2) ... (1 + J_k) equals the sum of all of S_k.

    J_i = (1,i) + (2,i) + ... + (i-1,i) are the Jucys-Murphy elements of
    the integer group ring; J_1 is the empty sum.  Each term of the running
    product is held as the bytes of its inverse's image word, one entry per
    term.  Since (sigma (a, i))^-1 = (a, i) sigma^-1, multiplying sigma on
    the right by (a, i) swaps the values a and i of the inverse word, one
    C-level bytes.translate per term; the 1 of each factor keeps a copy of
    the list.  The list ends with prod (i + 1) = k! words, each a
    rearrangement of range(k), and inversion is a bijection of S_k, so the
    product is the sum of S_k, every coefficient 1, exactly when the list
    holds k! words and they are distinct.  Memory grows as k! * k: the
    first call in a fresh process takes 0.6-1.3 ms at k = 7, 6.5-10 ms at
    k = 8 and 0.11-0.14 s at k = 9, and the process peaks at 15, 19 and
    64 MB RSS, against 15 MB for a bare import (2-core host, Python
    3.11.7).  k > 9 raises ValueError before anything is built.  Bytes are
    not tracked by the garbage collector, so the words start no collections.

    >>> jm_factorization_check(3)
    True
    """
    if integer("k", k) < 1:
        raise ValueError("k must be positive")
    if k > 9:
        raise ValueError(f"k = {k} is above the cap of 9: the check holds "
                         "k! words of about 135 bytes, 0.5 GB at k = 10")
    words = [bytes(range(k))]
    for i in range(1, k):
        step = words.copy()
        for a in range(i):
            table = bytes.maketrans(bytes((a, i)), bytes((i, a)))
            step += [word.translate(table) for word in words]
        words = step
    # a dict's table is a third of a set's at k = 7, where verify stops
    return len(dict.fromkeys(words)) == len(words) == factorial(k)
