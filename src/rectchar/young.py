"""Partitions, rectangles and dimensions.

Partitions are immutable, hashable, and validated on construction: every
part must be an int by the rule of rectchar.exact (a float, bool or
Fraction equal to one raises TypeError), positive, and no larger than the
part before it.  All functions accept either a Partition or any iterable
of parts.  rectangle and partitions, which build shapes themselves,
validate their own inputs once and wrap the tuples they build, partitions
by construction, without checking them again.  f, the number of standard
tableaux, comes from the hook lengths of the first column or row
(beta-numbers), in O(min(rows, columns)^2) products rather than one per
box.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from math import factorial

from .exact import integer

__all__ = [
    "Partition",
    "rectangle",
    "dim_f",
    "partitions",
]


class Partition:
    """A weakly decreasing tuple of positive ints; () partitions 0.

    A part that is not an int raises TypeError, one that is not positive or
    larger than the part before it ValueError.

    >>> Partition((3, 2)).size
    5
    >>> str(Partition((3, 2)))
    '[3,2]'
    """

    __slots__ = ("parts",)

    def __init__(self, parts: "Iterable[int] | Partition" = ()) -> None:
        if isinstance(parts, Partition):
            self.parts = parts.parts
            return
        pt = tuple(parts)
        for x in pt:
            integer("a part", x)
        previous = None
        for x in pt:
            if x <= 0:
                raise ValueError(f"parts must be positive, got {pt}")
            if previous is not None and x > previous:
                raise ValueError(f"parts must be weakly decreasing, got {pt}")
            previous = x
        self.parts = pt

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.parts) + "]"


def _built(parts: tuple[int, ...]) -> Partition:
    # a Partition of a tuple that is one by construction, not checked again
    lam = Partition.__new__(Partition)
    lam.parts = parts
    return lam


def rectangle(p: int, q: int) -> Partition:
    """The p x q rectangle: p rows of length q; empty when either side is 0.

    Both sides must be ints (TypeError otherwise) and non-negative.
    """
    if min(integer("p", p), integer("q", q)) < 0:
        raise ValueError("sides must be non-negative")
    if p == 0 or q == 0:
        return Partition()
    return _built((q,) * p)


def dim_f(shape) -> int:
    """Number of standard Young tableaux of the shape.

    With beta_i = lam_i + l - i the hook lengths of the first column (rows
    i = 1..l), f = n! prod_{i<j} (beta_i - beta_j) / prod_i beta_i!
    (Frobenius); a shape with more rows than columns takes the hook
    lengths of its first row instead, those of its transpose's first
    column, so the cost is the square of the shorter side.  The division
    happens once at the end so every intermediate stays integral.

    >>> dim_f(Partition((2, 2)))
    2
    """
    return _dim_from_parts(Partition(shape).parts)


@lru_cache(maxsize=None)
def _dim_from_parts(parts: tuple[int, ...]) -> int:
    if not parts:
        return 1
    rows = len(parts)
    top = parts[0] + rows - 1
    betas = [row + rows - 1 - i for i, row in enumerate(parts)]
    if rows > parts[0]:
        # fewer columns than rows: the first-row hook lengths, top minus
        # each number in 0..top that is not a first-column one, serve as
        # the beta-numbers of the transpose, which has the same f
        present = set(betas)
        betas = [top - x for x in range(top + 1) if x not in present]
    num, den = factorial(sum(parts)), 1
    for i, beta in enumerate(betas):
        den *= factorial(beta)
        for lower in betas[i + 1:]:
            num *= beta - lower
    return num // den


def partitions(n: int, max_part: "int | None" = None) -> Iterator[Partition]:
    """Yield every partition of n, in reverse lexicographic order.

    >>> [p.parts for p in partitions(4, max_part=2)]
    [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    integer("n", n)
    cap = n if max_part is None else min(integer("max_part", max_part), n)
    if n < 0:
        raise ValueError("n must be non-negative")
    for parts in _tuples(n, cap):
        yield _built(parts)


def _tuples(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    # the partitions of n with parts <= cap, as plain tuples
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in _tuples(n - first, first):
            yield (first,) + rest


if __name__ == "__main__":
    import doctest
    doctest.testmod()
