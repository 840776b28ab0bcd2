"""Murnaghan-Nakayama character evaluation and the normalized character.

There is one rim-hook recursion.  It removes a rim hook for each part of
the cycle type greater than 1, largest part first, and closes every branch
with f of the remaining shape: the character at the identity class is the
number of standard tableaux.  Fixed points cost nothing, so the cost is one
hook removal per non-unit part, whatever the size of the diagram.  The
recursion runs on plain tuples and is memoized for the life of the process
on (remaining shape, remaining non-unit parts), so a later call that meets
a subproblem an earlier one solved, such as the same rectangle at the same
cycle type, reuses it.  character_mn, one_cycle_character and
normalized_character all run it.  normalized_character is the degree-k
falling-factorial normalization that turns character ratios into
polynomial data.  It validates its input once and keeps each integer
result for the life of the process, keyed on the shape and the full cycle
type, unit parts included (Ch at (3, 1) and at (3) differ by a falling
factorial), so a check that asks again for a value another check already
computed pays one lookup.  f at the leaves comes from the beta-numbers,
the hook lengths of the first column or row (young.dim_f).
"""

from __future__ import annotations

from functools import lru_cache

from .exact import falling_factorial
from .young import Partition, _dim_from_parts, _strips

__all__ = [
    "SizeMismatch",
    "OutOfRange",
    "character_mn",
    "one_cycle_character",
    "normalized_character",
]


class SizeMismatch(ValueError):
    """Shape and cycle type do not partition the same number."""


class OutOfRange(ValueError):
    """Requested cycle length does not fit inside the diagram."""


@lru_cache(maxsize=None)
def _character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # the character of shape at cycles completed with fixed points; cycles
    # is weakly decreasing and fits inside the shape
    if not cycles:
        return _dim_from_parts(shape)
    rest = cycles[1:]
    total = 0
    for remainder, height in _strips(shape, cycles[0]):
        value = _character(remainder, rest)
        total += -value if height % 2 else value
    return total


def character_mn(shape, cycle_type) -> int:
    """Irreducible character of the shape, evaluated at the cycle type.

    A rim hook is removed for each part greater than 1, largest part first,
    with results memoized across calls on the remaining shape and the parts
    still to remove; each branch ends in f of what is left.  The cost
    depends on the non-unit parts and their hook counts, not on the number
    of fixed points.

    >>> character_mn(Partition((2, 2)), Partition((3, 1)))
    -1
    """
    lam = Partition(shape)
    mu = Partition(cycle_type)
    if lam.size != mu.size:
        raise SizeMismatch(f"shape {lam} has size {lam.size}, "
                           f"cycle type {mu} has size {mu.size}")
    return _character(lam.parts, tuple(x for x in mu.parts if x > 1))


def one_cycle_character(shape, k: int) -> int:
    """Character at one k-cycle plus fixpoints.

    >>> one_cycle_character(Partition((2, 2)), 3)
    -1
    """
    lam = Partition(shape)
    if k < 1 or k > lam.size:
        raise OutOfRange(f"cycle length {k} does not fit in a diagram of "
                         f"size {lam.size}")
    return _character(lam.parts, (k,))


def normalized_character(cycle, shape) -> int:
    """The normalized character Ch: falling factorial times character ratio.

    For a cycle type pi of k and a shape of n boxes this is
    n (n-1) ... (n-k+1) times the character at pi completed with fixpoints,
    divided by the dimension; it is 0 whenever n < k.  It is an integer,
    z_pi times the central character (class size times character over
    dimension), so the one division is checked and raises ArithmeticError
    on a remainder.

    >>> normalized_character(Partition((3,)), Partition((2, 2)))
    -12
    """
    return _normalized(Partition(shape).parts, Partition(cycle).parts)


@lru_cache(maxsize=None)
def _normalized(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # normalized_character on valid tuples; cycles is the full cycle type
    n = sum(shape)
    k = sum(cycles)
    if n < k:
        return 0
    if k == 0:
        return 1
    chi = _character(shape, tuple(x for x in cycles if x > 1))
    num, den = falling_factorial(n, k) * chi, _dim_from_parts(shape)
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integer normalized character {num}/{den}")
    return value


if __name__ == "__main__":
    import doctest
    doctest.testmod()
