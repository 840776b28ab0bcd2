"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately naive: standard tableaux are counted by
corner removal or by the hook of every box, content products multiplied
out box by box, border strips found by filtering all sub-partitions,
characters by stripping those border strips, Stirling numbers by the
textbook recurrence, factorizations of a permutation by trying all k! of
them, the Jucys-Murphy product as a dict of image tuples.  The point is
that none of it shares code or ideas with the library implementations it
checks.  The one exception is column_largest_first, the library's abacus
sweep with the parts in the opposite order, the reference that shows the
order of the strips does not change the column.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial


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


def hook_length_dim(parts: tuple[int, ...]) -> int:
    """Number of standard tableaux, n! over the product of every box's hook."""
    n = sum(parts)
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            leg = sum(1 for below in parts[i + 1:] if below > j)
            hooks *= row - j + leg
    return factorial(n) // hooks


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate partition: column j is as long as the number of rows
    longer than j."""
    return tuple(sum(1 for row in parts if row > j)
                 for j in range(parts[0] if parts else 0))


def content_coefficients(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the product over the boxes of (x + content), entry a
    multiplying x^a, one box at a time; the box in row i, column j (from 0)
    has content j - i."""
    coeffs = [1]
    for i, row in enumerate(parts):
        for j in range(row):
            content = j - i
            coeffs.append(0)
            for a in range(len(coeffs) - 1, 0, -1):
                coeffs[a] = coeffs[a - 1] + content * coeffs[a]
            coeffs[0] *= content
    return tuple(coeffs)


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


def cycle_type_representative(parts: tuple[int, ...]) -> list[int]:
    """The permutation of 0..k-1 whose cycles fill consecutive blocks in the
    order of the parts, as its list of images."""
    images: list[int] = []
    start = 0
    for part in parts:
        images.extend(range(start + 1, start + part))
        images.append(start)
        start += part
    return images


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


def jm_product(k: int) -> dict[tuple[int, ...], int]:
    """(1 + J_1)(1 + J_2) ... (1 + J_k) in the integer group ring of S_k.

    An element is a dict from image tuples to coefficients, and
    J_i = (1,i) + ... + (i-1,i); sigma (a, i) is sigma's image tuple with
    positions a and i swapped.
    """
    product = {tuple(range(k)): 1}
    for i in range(1, k):
        step: dict[tuple[int, ...], int] = {}
        for sigma, c in product.items():
            step[sigma] = step.get(sigma, 0) + c
            images = list(sigma)
            for a in range(i):
                images[a], images[i] = images[i], images[a]
                swapped = tuple(images)
                step[swapped] = step.get(swapped, 0) + c
                images[a], images[i] = images[i], images[a]
        product = step
    return product


@lru_cache(maxsize=None)
def character_bruteforce(parts: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character of the shape at the class mu, by Murnaghan-Nakayama.

    The parts of mu are stripped in the order listed, each as a brute-force
    border strip; once only 1-cycles are left, the character at the identity
    is the number of standard tableaux.
    """
    assert sum(parts) == sum(mu), (parts, mu)
    if all(m == 1 for m in mu):
        return syt_count(parts)
    total = 0
    for inner, height in border_strips(parts, mu[0]):
        value = character_bruteforce(inner, mu[1:])
        total += -value if height % 2 else value
    return total


def column_largest_first(k: int, parts: tuple[int, ...]) -> dict[int, int]:
    """The nonzero characters chi^lam(parts) of the shapes lam |- k, keyed
    by k-bead beta-set bitmask, by the abacus sweep with the largest part
    first: each part r moves a bead from x up to an empty x + r, with the
    sign of the beads it jumps."""
    column = {(1 << k) - 1: 1}
    for r in parts:
        step: dict[int, int] = {}
        for mask, value in column.items():
            movable = mask & ~(mask >> r)
            while movable:
                bead = movable & -movable
                movable ^= bead
                moved = mask ^ bead ^ (bead << r)
                jumped = (mask & ((bead << r) - (bead << 1))).bit_count()
                step[moved] = step.get(moved, 0) + (-value if jumped % 2
                                                    else value)
        column = {mask: value for mask, value in step.items() if value}
    return column
