"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately naive: standard tableaux are counted by
corner removal, border strips by filtering all sub-partitions, Stirling
numbers by the textbook recurrence, factorizations of a permutation by
trying all k! of them.  The point is that none of it shares
code or ideas with the library implementations it checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations


@lru_cache(maxsize=None)
def syt_count(parts: tuple[int, ...]) -> int:
    """Number of standard tableaux, by removing one corner cell at a time."""
    if not parts:
        return 1
    total = 0
    for i, row in enumerate(parts):
        below = parts[i + 1] if i + 1 < len(parts) else 0
        if row > below:
            rest = parts[:i] + ((row - 1,) if row > 1 else ()) + parts[i + 1:]
            total += syt_count(rest)
    return total


def sub_partitions(parts: tuple[int, ...]):
    """All partitions contained in the given one, row by row."""
    def rec(i: int, cap: int):
        if i == len(parts):
            yield ()
            return
        top = min(cap, parts[i])
        for row in range(top, -1, -1):
            if row == 0:
                yield ()
                return
            for rest in rec(i + 1, row):
                yield (row,) + rest
    yield from rec(0, parts[0] if parts else 0)


def _skew_cells(outer: tuple[int, ...], inner: tuple[int, ...]):
    cells = []
    for i, row in enumerate(outer):
        start = inner[i] if i < len(inner) else 0
        for j in range(start, row):
            cells.append((i, j))
    return cells


def _is_border_strip(cells) -> bool:
    cellset = set(cells)
    for (i, j) in cells:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cellset:
            return False
    seen = {cells[0]}
    frontier = [cells[0]]
    while frontier:
        i, j = frontier.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cellset and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cells)


def border_strips(parts: tuple[int, ...], k: int) -> set:
    """All (remainder, height) pairs for k-cell border strips, brute force."""
    n = sum(parts)
    out = set()
    for inner in sub_partitions(parts):
        if sum(inner) != n - k:
            continue
        cells = _skew_cells(parts, inner)
        if not cells or not _is_border_strip(cells):
            continue
        rows = {i for (i, _) in cells}
        out.add((inner, len(rows) - 1))
    return out


def stirling_first_unsigned(n: int) -> list[int]:
    """Row n of the unsigned Stirling numbers of the first kind."""
    row = [1]
    for m in range(1, n + 1):
        nxt = [0] * (m + 1)
        for k, c in enumerate(row):
            nxt[k] += (m - 1) * c
            nxt[k + 1] += c
        row = nxt
    return row


def _cycle_count(images) -> int:
    seen = [False] * len(images)
    count = 0
    for i in range(len(images)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = images[j]
    return count


def factorization_table(w) -> list[list[int]]:
    """Joint cycle-count table of all factorizations s1 s2 = w, by brute force.

    w is a permutation of 0..k-1 in one-line form; entry (c1, c2) counts the
    s1 with c1 cycles whose cofactor s2 = s1^{-1} w has c2 cycles.
    """
    k = len(w)
    table = [[0] * (k + 1) for _ in range(k + 1)]
    inverse = [0] * k
    for i, x in enumerate(w):
        inverse[x] = i
    for s1 in permutations(range(k)):
        # s2 has as many cycles as its inverse w^{-1} s1: i -> w^{-1}(s1(i))
        s2_inverse = [inverse[x] for x in s1]
        table[_cycle_count(s1)][_cycle_count(s2_inverse)] += 1
    return table
