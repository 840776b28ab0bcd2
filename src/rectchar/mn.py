"""The normalized character by the Murnaghan-Nakayama recursion.

There is one recursion, and it computes the normalized character
Ch_pi(lam) = n (n-1) ... (n-k+1) chi^lam(pi) / f^lam directly, for a shape
lam of n boxes and a cycle type pi of k.  A shape is the bitmask of its
beta-set: row i of l rows is a bead at lam_i + l - 1 - i.  Removing an
r-cell border strip moves a bead x down to an empty x - r >= 0, signed by
the parity of the beads it jumps (James and Kerber 1981, 2.7).  Dividing the
Murnaghan-Nakayama sum by f^lam turns each branch into a ratio of hook
products (Frame, Robinson and Thrall):

    Ch_(r, rest)(lam) = sum over strips of +-H(lam) / H(lam') Ch_rest(lam'),

    H(lam) / H(lam') = x! / (x - r)! prod_{b != x} (x - r - b) / (x - b),

which does not involve n.  Each memo node does all of its work in one
frame: it finds the beads that can move, is 0 when none can, splits its
beta-set into runs of consecutive beads once, and for each branch whose
rest is nonzero takes the ratio one run at a time, each run as O(r)
factors, signed by the strip.  It sums its branches over a common
denominator and ends with one checked exact division.  Fixed points leave
the recursion at once: with m the total of the parts greater than 1,
Ch_pi = (n - m) (n - m - 1) ... (n - k + 1) Ch_pi', pi' those parts.
So the cost follows the non-unit parts of pi and the strips they remove,
not n; only the bitmask, lam_1 + l bits (p + q on a rectangle), grows
with the shape.

The recursion is memoized for the life of the process on (shape as a
beta-set with no empty-row beads, remaining non-unit parts), so a later
call that meets a subproblem an earlier one solved, such as the same
rectangle at the same cycle type, reuses it.  Beads at the bottom of a
beta-set, from position 0 up, are rows of length 0 (James and Kerber 1981,
2.7): a strip that empties a row leaves such a bead, and the child is
shifted down past them before the lookup, so a shape reached with and
without that row is one entry.  What depends on the cycle type alone, its
size, its parts greater than 1 and their total, is split once per type
and kept for the last 128 types.
"""

from __future__ import annotations

from functools import lru_cache
from math import perm

from .young import Partition

__all__ = ["normalized_character"]


def _beads(parts: tuple[int, ...]) -> int:
    # the beta-set bitmask of a valid shape
    rows = len(parts)
    mask = 0
    for i, row in enumerate(parts):
        mask |= 1 << (row + rows - 1 - i)
    return mask


@lru_cache(maxsize=None)
def _ch(mask: int, parts: tuple[int, ...]) -> int:
    """Ch at the non-empty, weakly decreasing parts > 1 of the shape with
    beta-set mask: one bead move per part, largest part first.

    A bead x >= r whose x - r is empty starts one r-strip.  Each branch is
    weighted by top / bottom = +-H(lam) / H(lam'), taken over the maximal
    runs a..e-1 of consecutive beads.  Over a run below y = x - r the
    product of (y - b) / (x - b) telescopes to r factors each way,
    perm(x - e, r) / perm(x - a, r), and likewise above x; the fewer than
    r jumped beads between y and x are taken one factor each, as
    (b - y) / (x - b), and their count signs the branch.  Every beta-set of
    a shape gives the same value; each child is looked up shifted past its
    empty-row beads, so the memo holds one entry per shape.
    """
    r, rest = parts[0], parts[1:]
    movable = mask & ~(mask << r) & -(1 << r)
    if not movable:
        return 0
    runs = []  # as [start, end) from the bottom
    beads = mask
    while beads:
        low = beads & -beads
        carried = beads + low  # the run cleared, its end bit set
        runs.append((low.bit_length() - 1,
                     (carried & ~beads).bit_length() - 1))
        beads &= carried
    num, den = 0, 1
    while movable:
        bead = movable & -movable
        movable ^= bead
        if rest:
            child = mask ^ bead ^ (bead >> r)
            if child & 1:  # drop the empty rows, the run of beads from 0
                child >>= (~child & (child + 1)).bit_length() - 1
            value = _ch(child, rest)
            if not value:
                continue
        else:
            value = 1
        x = bead.bit_length() - 1
        y = x - r
        top, bottom, jumped = perm(x, r), 1, 0
        for a, e in runs:
            if e <= y:  # below the gap
                top *= perm(x - e, r)
                bottom *= perm(x - a, r)
            elif a > x:  # above x
                top *= perm(e - 1 - y, r)
                bottom *= perm(a - 1 - y, r)
            else:  # jumped beads a..c - 1, then any of the run from x + 1
                c = e if e < x else x
                top *= perm(c - 1 - y, c - a)
                bottom *= perm(x - a, c - a)
                jumped += c - a
                if e > x + 1:
                    top *= perm(e - 1 - y, r)
                    bottom *= perm(x - y, r)
        if jumped % 2:
            top = -top
        num = num * bottom + top * value * den
        den *= bottom
    quotient, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integer normalized character {num}/{den}")
    return quotient


@lru_cache(maxsize=128)
def _split(cycle: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
    # the size k of a valid cycle type, its parts > 1 and their total m;
    # kept for the last 128 types only, as a caller meets a type's cases
    # together and one entry per type of a long run would keep every type
    # alive
    parts = cycle[:cycle.index(1)] if 1 in cycle else cycle
    return sum(cycle), parts, sum(parts)


def normalized_character(cycle, shape) -> int:
    """The normalized character Ch: falling factorial times character ratio.

    For a cycle type pi of k and a shape of n boxes this is
    n (n-1) ... (n-k+1) times the character at pi completed with fixpoints,
    divided by the dimension; it is 0 whenever n < k.  It is an integer,
    z_pi times the central character (class size times character over
    dimension), so every division is checked and raises ArithmeticError
    on a remainder.

    >>> normalized_character(Partition((3,)), Partition((2, 2)))
    -12
    """
    # a Partition as it is, anything else once validated
    shape = shape.parts if type(shape) is Partition else Partition(shape).parts
    cycle = cycle.parts if type(cycle) is Partition else Partition(cycle).parts
    k, parts, m = _split(cycle)
    rows = len(shape)
    if rows and shape[0] == shape[-1]:  # a rectangle, its beads one run
        n, mask = rows * shape[0], ((1 << rows) - 1) << shape[0]
    else:
        n, mask = sum(shape), _beads(shape)
    if n < k:
        return 0
    if not parts:
        return perm(n, k)
    return perm(n - m, k - m) * _ch(mask, parts)

