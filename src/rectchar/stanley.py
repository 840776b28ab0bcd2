"""Stanley's character formula for rectangles, evaluated exactly.

For a cycle type pi of k, fix any permutation w of that type.  Summing
(-q)^cycles(s1) * p^cycles(s2) over all factorizations s1 s2 = w and
applying k sign flips gives the normalized character of the p x q
rectangle at pi.  The whole formula depends on nothing but the joint table
of cycle counts, built once per cycle type, which then feeds numeric
values and the exact polynomial alike.

The table comes from the Jucys-Murphy content identity (Jucys 1974;
Murphy 1981), not from the k! factorizations:

    sum_{s1 s2 = w} x^c(s1) y^c(s2)
        = (1/k!) sum_{lam |- k} f^lam chi^lam(w)
                 prod_{b in lam} (x + c(b)) (y + c(b)),

with c(b) the content of a box.  That is one Murnaghan-Nakayama character
and one content product per partition of k, then one exact division by
k!, with no k! term in the cost.

The module also carries the change of variables to (D, E) coordinates,
the expansion in the even basis prod (D^2 - r^2), and the Jucys-Murphy
factorization check in the integer group ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from ._poly import BiPoly, DEPoly
from .mn import character_mn
from .young import Partition, dim_f, partitions

__all__ = [
    "Perm",
    "GroupRingElem",
    "BiPoly",
    "DEPoly",
    "BasisMismatch",
    "cycle_type_representative",
    "stanley_eval",
    "stanley_poly",
    "substitute_ed",
    "decompose_even_basis",
    "jm_factorization_check",
]


class BasisMismatch(ValueError):
    """The polynomial does not fit the requested even basis."""


class Perm:
    """A permutation of {1..k} in one-line form: images[i-1] = sigma(i).

    >>> (Perm((2, 1, 3)) * Perm((1, 3, 2))).images
    (2, 3, 1)
    """

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, k: int) -> "Perm":
        return cls(range(1, k + 1))

    @classmethod
    def transposition(cls, k: int, a: int, b: int) -> "Perm":
        if not (1 <= a <= k and 1 <= b <= k and a != b):
            raise ValueError(f"bad transposition ({a}, {b}) in S_{k}")
        imgs = list(range(1, k + 1))
        imgs[a - 1], imgs[b - 1] = b, a
        return cls(imgs)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.size != other.size:
            raise ValueError("sizes differ")
        return Perm(self.images[x - 1] for x in other.images)

    def inverse(self) -> "Perm":
        inv = [0] * self.size
        for i, x in enumerate(self.images):
            inv[x - 1] = i + 1
        return Perm(inv)

    def cycle_count(self) -> int:
        seen = [False] * self.size
        count = 0
        for i in range(self.size):
            if not seen[i]:
                count += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = self.images[j] - 1
        return count

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Perm):
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({self.images!r})"


class GroupRingElem:
    """A finitely supported integer combination of permutations of {1..k}."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs=None) -> None:
        self.k = k
        clean: dict[Perm, int] = {}
        for perm, c in (coeffs or {}).items():
            if perm.size != k:
                raise ValueError(f"permutation size {perm.size} in ring over S_{k}")
            if c:
                clean[perm] = clean.get(perm, 0) + c
                if clean[perm] == 0:
                    del clean[perm]
        self.coeffs = clean

    @classmethod
    def zero(cls, k: int) -> "GroupRingElem":
        return cls(k)

    @classmethod
    def one(cls, k: int) -> "GroupRingElem":
        return cls(k, {Perm.identity(k): 1})

    @classmethod
    def basis(cls, perm: Perm) -> "GroupRingElem":
        return cls(perm.size, {perm: 1})

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        if self.k != other.k:
            raise ValueError("sizes differ")
        merged = dict(self.coeffs)
        for perm, c in other.coeffs.items():
            merged[perm] = merged.get(perm, 0) + c
        return GroupRingElem(self.k, merged)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem(self.k, {p: -c for p, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElem(self.k, {p: c * other for p, c in self.coeffs.items()})
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        if self.k != other.k:
            raise ValueError("sizes differ")
        acc: dict[Perm, int] = {}
        for p1, c1 in self.coeffs.items():
            for p2, c2 in other.coeffs.items():
                prod = p1 * p2
                acc[prod] = acc.get(prod, 0) + c1 * c2
        return GroupRingElem(self.k, acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GroupRingElem):
            return self.k == other.k and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"GroupRingElem({self.k}, {self.coeffs!r})"


def cycle_type_representative(pi) -> Perm:
    """The permutation whose cycles fill consecutive blocks, largest first.

    >>> cycle_type_representative(Partition((3, 2))).images
    (2, 3, 1, 5, 4)
    """
    pi = Partition(pi)
    images: list[int] = []
    start = 1
    for part in pi.parts:
        images.extend(range(start + 1, start + part))
        images.append(start)
        start += part
    return Perm(images)


def _content_product(parts: tuple[int, ...]) -> list[int]:
    """Coefficients of prod over the boxes of the shape of (x + content).

    Entry a multiplies x^a; the content of the box in row i, column j
    (from 0) is j - i.
    """
    coeffs = [1]
    for i, row in enumerate(parts):
        for j in range(row):
            content = j - i
            coeffs.append(0)
            for a in range(len(coeffs) - 1, 0, -1):
                coeffs[a] = coeffs[a - 1] + content * coeffs[a]
            coeffs[0] *= content
    return coeffs


@lru_cache(maxsize=None)
def _joint_cycle_table(parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Entry (c1, c2) counts the factorizations s1 s2 = w of a permutation
    w of cycle type parts with c1 cycles in s1 and c2 in s2.

    Built from the content identity in the module docstring, in integers,
    with one checked exact division by k! at the end.
    """
    k = sum(parts)
    acc = [[0] * (k + 1) for _ in range(k + 1)]
    for lam in partitions(k):
        weight = dim_f(lam) * character_mn(lam, parts)
        if not weight:
            continue
        coeffs = _content_product(lam.parts)
        for a, ca in enumerate(coeffs):
            if ca:
                scaled, row = weight * ca, acc[a]
                for b, cb in enumerate(coeffs):
                    row[b] += scaled * cb
    order = factorial(k)
    if any(entry % order for row in acc for entry in row):
        raise ArithmeticError(
            f"content sum for {parts} is not divisible by {k}!")
    return tuple(tuple(entry // order for entry in row) for row in acc)


def stanley_eval(pi, p, q):
    """Normalized character of the p x q rectangle at the cycle type pi.

    p and q may be any rationals, not only positive integers; the value
    is the character polynomial evaluated there, an int when p and q are
    ints and a Fraction otherwise.

    >>> stanley_eval(Partition((2,)), 2, 3)
    6
    """
    pi = Partition(pi)
    if pi.size == 0:
        raise ValueError("cycle type must be non-empty")
    table = _joint_cycle_table(pi.parts)
    k = pi.size
    sign = -1 if k % 2 else 1
    # With p = a/b and q = c/d, every term count (-q)^c1 p^c2 is an integer
    # over (b d)^k, so the sum runs in integers and divides once.
    p_frac, q_frac = Fraction(p), Fraction(q)
    a, b = p_frac.numerator, p_frac.denominator
    c, d = -q_frac.numerator, q_frac.denominator
    p_terms = [a ** i * b ** (k - i) for i in range(k + 1)]
    total = 0
    for c1, row in enumerate(table):
        inner = 0
        for c2, count in enumerate(row):
            if count:
                inner += count * p_terms[c2]
        if inner:
            total += inner * c ** c1 * d ** (k - c1)
    if isinstance(p, int) and isinstance(q, int):
        return sign * total
    return Fraction(sign * total, (b * d) ** k)


def stanley_poly(pi) -> BiPoly:
    """The rectangle character at pi as an exact polynomial in P and Q.

    >>> print(stanley_poly(Partition((2,))))
    -1*P^2*Q + 1*P*Q^2
    """
    pi = Partition(pi)
    if pi.size == 0:
        raise ValueError("cycle type must be non-empty")
    return _stanley_poly_cached(pi.parts)


@lru_cache(maxsize=None)
def _stanley_poly_cached(parts: tuple[int, ...]) -> BiPoly:
    table = _joint_cycle_table(parts)
    sign = -1 if sum(parts) % 2 else 1
    terms: dict[tuple[int, int], int] = {}
    for c1, row in enumerate(table):
        for c2, count in enumerate(row):
            if count:
                coeff = sign * count if c1 % 2 == 0 else -sign * count
                terms[(c2, c1)] = terms.get((c2, c1), 0) + coeff
    return BiPoly(terms)


def substitute_ed(poly: BiPoly) -> DEPoly:
    """Substitute P = E - D and Q = E + D, exactly.

    >>> print(substitute_ed(BiPoly({(1, 1): 1})))
    -1*D^2 + 1*E^2
    """
    acc: dict[tuple[int, int], int] = {}
    for (i, j), c in poly.terms().items():
        for a in range(i + 1):
            ca = comb(i, a) * (-1 if a % 2 else 1)
            for b in range(j + 1):
                coeff = c * ca * comb(j, b)
                key = (a + b, i + j - a - b)
                value = acc.get(key, 0) + coeff
                if value == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = value
    return DEPoly(acc)


@lru_cache(maxsize=None)
def _even_basis_x_coeffs(k: int) -> tuple[int, ...]:
    """Coefficients of prod_{r=0}^{k-1} (x - r^2) as a polynomial in x."""
    coeffs = [1]
    for r in range(k):
        longer = [0] * (len(coeffs) + 1)
        for m, c in enumerate(coeffs):
            longer[m + 1] += c
            longer[m] -= c * r * r
        coeffs = longer
    return tuple(coeffs)


def decompose_even_basis(poly: DEPoly, j: int) -> list[DEPoly]:
    """Coefficients of poly in the basis prod_{r=0}^{k-1} (D^2 - r^2).

    The input must be even in D with D-degree at most 2j.  Entry k of the
    result multiplies the k-th basis product; each entry is a polynomial
    in E alone, returned as a DEPoly with no D exponents.

    >>> parts = decompose_even_basis(DEPoly({(0, 2): 1, (2, 0): -1}), 1)
    >>> [str(f) for f in parts]
    ['1*E^2', '-1']
    """
    if j < 1:
        raise ValueError("j must be positive")
    if not poly.is_even_in_d():
        raise BasisMismatch("polynomial is not even in D")
    if poly.d_degree() > 2 * j:
        raise BasisMismatch(
            f"D-degree {poly.d_degree()} exceeds the basis bound {2 * j}")
    # rows[m] holds the E-coefficients of (D^2)^m
    rows: list[dict[int, object]] = [{} for _ in range(j + 1)]
    for (dexp, eexp), c in poly.terms().items():
        rows[dexp // 2][eexp] = c
    out: list[DEPoly] = [DEPoly()] * (j + 1)
    for k in range(j, -1, -1):
        pk = {e: c for e, c in rows[k].items() if c != 0}
        out[k] = DEPoly({(0, e): c for e, c in pk.items()})
        if pk:
            basis = _even_basis_x_coeffs(k)
            for m in range(k):
                if basis[m]:
                    row = rows[m]
                    for e, c in pk.items():
                        row[e] = row.get(e, 0) - c * basis[m]
    return out


def jm_factorization_check(k: int) -> bool:
    """Whether (1 + J_1)(1 + J_2) ... (1 + J_k) equals the sum of all of S_k.

    J_i = (1,i) + (2,i) + ... + (i-1,i) are the Jucys-Murphy elements of
    the integer group ring; J_1 is the empty sum.

    >>> jm_factorization_check(3)
    True
    """
    if k < 1:
        raise ValueError("k must be positive")
    product = GroupRingElem.one(k)
    for i in range(2, k + 1):
        factor = GroupRingElem.one(k)
        for a in range(1, i):
            factor = factor + GroupRingElem.basis(Perm.transposition(k, a, i))
        product = product * factor
    from itertools import permutations as _perms
    expected = GroupRingElem(
        k, {Perm(images): 1 for images in _perms(range(1, k + 1))})
    return product == expected


if __name__ == "__main__":
    import doctest
    doctest.testmod()
