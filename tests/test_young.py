"""Tests for partitions and rectangles."""

from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bruteforce import conjugate
from rectchar.young import (
    Partition,
    partitions,
    rectangle,
)

small_partitions = st.lists(
    st.integers(min_value=1, max_value=8), max_size=6,
).map(lambda xs: Partition(sorted(xs, reverse=True)))


def test_partition_validation():
    assert Partition(()).parts == ()
    assert Partition((3, 3, 1)).size == 7
    assert Partition((3, 3, 1)).length == 3
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((1, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    # a part must be an int: one of another type is refused even when it
    # equals an integer
    for parts in ((2.5, 1), ("3",), (3, Fraction(1, 2)), (Fraction(3), 2),
                  (3, 2.0), (True,)):
        with pytest.raises(TypeError, match="must be an int"):
            Partition(parts)


def test_partition_protocols():
    lam = Partition((4, 2, 1))
    assert str(lam) == "[4,2,1]"
    assert repr(lam) == "Partition([4, 2, 1])"
    assert lam == Partition([4, 2, 1])
    # a tuple of the same parts is not a partition
    assert lam.__eq__((4, 2, 1)) is NotImplemented
    assert lam != (4, 2, 1)
    assert hash(lam) == hash(Partition((4, 2, 1)))
    assert Partition(lam).parts is lam.parts


def test_rectangle():
    assert rectangle(2, 3).parts == (3, 3)
    assert rectangle(0, 5).parts == ()
    assert rectangle(5, 0).parts == ()
    # an int subclass other than bool is an int side
    Side = IntEnum("Side", {"TWO": 2, "THREE": 3})
    assert rectangle(Side.TWO, Side.THREE).parts == (3, 3)
    for p, q in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            rectangle(p, q)
    for p, q in ((3, Fraction(1, 2)), (2.5, 2), (Fraction(3, 2), 4),
                 ("2", 3), (3, Fraction(4)), (Fraction(2), 3), (2.0, 3),
                 (True, 3)):
        with pytest.raises(TypeError):
            rectangle(p, q)


@given(small_partitions)
def test_transpose_involution(lam):
    assert conjugate(conjugate(lam.parts)) == lam.parts
    assert sum(conjugate(lam.parts)) == lam.size


def test_partitions_enumeration():
    assert [lam.parts for lam in partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [lam.parts for lam in partitions(0)] == [()]
    counts = [sum(1 for _ in partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    with pytest.raises(ValueError):
        list(partitions(-1))


def test_built_shapes_are_valid_partitions():
    # partitions and rectangle wrap tuples they built without checking them
    # again; the checked constructor accepts each
    for n in range(9):
        for lam in partitions(n):
            assert type(lam) is Partition and Partition(lam.parts) == lam
    assert Partition(rectangle(4, 3).parts) == rectangle(4, 3)
