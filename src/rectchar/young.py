"""Partitions, rectangles, transposes, dimensions and rim hooks.

Partitions are immutable, hashable, and validated on construction; all
functions accept either a Partition or any iterable of parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "RimHook",
    "rectangle",
    "transpose",
    "dim_f",
    "rim_hooks_of_length",
    "partitions",
]


class Partition:
    """A weakly decreasing tuple of positive parts; () is the partition of 0.

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
        pt = tuple(int(x) for x in parts)
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


@dataclass(frozen=True)
class RimHook:
    """A removable border strip, recorded by what it leaves behind.

    height is the number of rows the strip spans minus one, the exponent of
    the sign it contributes in character recursions.
    """

    remainder: Partition
    height: int


def rectangle(p: int, q: int) -> Partition:
    """The p x q rectangle: p rows of length q; empty when either side is 0."""
    if p < 0 or q < 0:
        raise ValueError("sides must be non-negative")
    if p == 0 or q == 0:
        return Partition()
    return Partition((q,) * p)


def transpose(shape) -> Partition:
    """The conjugate partition: rows become columns.

    >>> transpose(Partition((4, 2, 1)))
    Partition([3, 2, 1, 1])
    """
    lam = Partition(shape)
    if not lam.parts:
        return lam
    cols = [0] * lam.parts[0]
    for row in lam.parts:
        for j in range(row):
            cols[j] += 1
    return Partition(cols)


def dim_f(shape) -> int:
    """Number of standard Young tableaux of the shape, by hook lengths.

    The product of all hook lengths divides n! exactly; the division
    happens once at the end so every intermediate stays integral.

    >>> dim_f(Partition((2, 2)))
    2
    """
    return _dim_from_parts(Partition(shape).parts)


@lru_cache(maxsize=None)
def _dim_from_parts(parts: tuple[int, ...]) -> int:
    n = sum(parts)
    if n == 0:
        return 1
    cols = [0] * parts[0]
    for row in parts:
        for j in range(row):
            cols[j] += 1
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(n) // hooks


def rim_hooks_of_length(shape, k: int) -> list[RimHook]:
    """All border strips of exactly k cells removable from the shape.

    A strip spans a contiguous band of rows; inside the band every row above
    the last is forced, so a strip is determined by its first and last row.
    Results are ordered by starting column descending, with lower starting
    rows first on ties.

    >>> [(h.remainder.parts, h.height) for h in rim_hooks_of_length((5, 5), 3)]
    [((5, 2), 0), ((4, 3), 1)]
    """
    lam = Partition(shape).parts
    if k < 1:
        raise ValueError("hook length must be positive")
    found = []
    rows = len(lam)
    for s in range(rows):
        for t in range(s, rows):
            nu_t = lam[s] + (t - s) - k
            below = lam[t + 1] if t + 1 < rows else 0
            if nu_t < below or nu_t > lam[t] - 1:
                continue
            rest = list(lam)
            for r in range(s, t):
                rest[r] = lam[r + 1] - 1
            rest[t] = nu_t
            remainder = Partition(x for x in rest if x > 0)
            found.append((lam[s], s, RimHook(remainder, t - s)))
    found.sort(key=lambda item: (-item[0], -item[1]))
    return [hook for _, _, hook in found]


def partitions(n: int, max_part: "int | None" = None) -> Iterator[Partition]:
    """Yield every partition of n, in reverse lexicographic order.

    >>> [p.parts for p in partitions(4, max_part=2)]
    [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    cap = n if max_part is None else min(max_part, n)
    if n == 0:
        yield Partition()
        return
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield Partition((first,) + rest.parts)


if __name__ == "__main__":
    import doctest
    doctest.testmod()
