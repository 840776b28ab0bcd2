"""Tests for partitions, rim hooks and dimensions."""

from math import factorial

import pytest
from hypothesis import given, strategies as st

from bruteforce import border_strips, syt_count
from rectchar.young import (
    Partition,
    dim_f,
    partitions,
    rectangle,
    rim_hooks_of_length,
    transpose,
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


def test_partition_protocols():
    lam = Partition((4, 2, 1))
    assert str(lam) == "[4,2,1]"
    assert list(lam) == [4, 2, 1]
    assert lam[0] == 4
    assert len(lam) == 3
    assert lam == Partition([4, 2, 1])
    assert hash(lam) == hash(Partition((4, 2, 1)))
    assert bool(Partition(())) is False
    assert Partition(lam).parts is lam.parts


def test_rectangle():
    assert rectangle(2, 3).parts == (3, 3)
    assert rectangle(0, 5).parts == ()
    assert rectangle(5, 0).parts == ()
    with pytest.raises(ValueError):
        rectangle(-1, 2)


def test_transpose_examples():
    assert transpose(Partition((4, 2, 1))).parts == (3, 2, 1, 1)
    assert transpose(Partition(())).parts == ()
    assert transpose(rectangle(2, 5)) == rectangle(5, 2)


@given(small_partitions)
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert transpose(lam).size == lam.size


def test_dim_examples():
    assert dim_f(Partition(())) == 1
    assert dim_f(Partition((5,))) == 1
    assert dim_f(Partition((2, 1))) == 2
    assert dim_f(Partition((2, 2))) == 2
    assert dim_f(rectangle(2, 5)) == 42


def test_dim_matches_bruteforce_counting():
    for n in range(7):
        for lam in partitions(n):
            assert dim_f(lam) == syt_count(lam.parts), lam


def test_dim_squares_sum_to_factorial():
    for n in range(9):
        assert sum(dim_f(lam) ** 2 for lam in partitions(n)) == factorial(n)


@given(small_partitions)
def test_dim_transpose_symmetry(lam):
    assert dim_f(lam) == dim_f(transpose(lam))


def test_rim_hooks_examples():
    got = [(h.remainder.parts, h.height)
           for h in rim_hooks_of_length((5, 5), 3)]
    assert got == [((5, 2), 0), ((4, 3), 1)]
    got = [(h.remainder.parts, h.height)
           for h in rim_hooks_of_length((3, 3, 3), 3)]
    assert got == [((3, 3), 0), ((3, 2, 1), 1), ((2, 2, 2), 2)]
    assert [(h.remainder.parts, h.height)
            for h in rim_hooks_of_length((3, 1), 4)] == [((), 1)]
    assert rim_hooks_of_length((2, 2), 4) == []
    with pytest.raises(ValueError):
        rim_hooks_of_length((2, 2), 0)


def test_rim_hooks_match_bruteforce():
    for n in range(1, 9):
        for lam in partitions(n):
            for k in range(1, n + 1):
                got = {(h.remainder.parts, h.height)
                       for h in rim_hooks_of_length(lam, k)}
                assert got == border_strips(lam.parts, k), (lam, k)


def test_partitions_enumeration():
    assert [lam.parts for lam in partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [lam.parts for lam in partitions(4, max_part=2)] == [
        (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [lam.parts for lam in partitions(0)] == [()]
    counts = [sum(1 for _ in partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    with pytest.raises(ValueError):
        list(partitions(-1))
