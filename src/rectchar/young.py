"""Partitions and rectangles.

Partitions are immutable, hashable, and validated on construction: every
part must be an int by the rule of rectchar.exact (a float, bool or
Fraction equal to one raises TypeError), positive, and no larger than the
part before it.  All functions accept either a Partition or any iterable
of parts.  rectangle and partitions, which build shapes themselves,
validate their own inputs once and wrap the tuples they build, partitions
by construction, without checking them again.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .exact import integer

__all__ = [
    "Partition",
    "rectangle",
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


def partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n, in reverse lexicographic order.

    >>> [p.parts for p in partitions(4)]
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if integer("n", n) < 0:
        raise ValueError("n must be non-negative")
    for parts in _tuples(n, n):
        yield _built(parts)


def _tuples(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    # the partitions of n with parts <= cap, as plain tuples
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in _tuples(n - first, first):
            yield (first,) + rest
