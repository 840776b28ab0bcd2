"""Tests for the Murnaghan-Nakayama oracle."""

from fractions import Fraction
from math import perm
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import character_bruteforce, syt_count
from rectchar.closed import ch_rect_fast
from rectchar.mn import (
    OutOfRange,
    SizeMismatch,
    _character,
    _normalized,
    character_mn,
    normalized_character,
    one_cycle_character,
)
from rectchar.stanley import stanley_eval
from rectchar.young import Partition, partitions, rectangle, transpose

# Full character table of S_4: rows are shapes, columns are the classes
# 1^4, (2,1,1), (2,2), (3,1), (4).
S4_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_s4_character_table():
    for shape, row in S4_TABLE.items():
        got = [character_mn(Partition(shape), Partition(mu))
               for mu in S4_CLASSES]
        assert got == row, shape


def test_character_examples():
    assert character_mn(Partition((2, 2)), Partition((3, 1))) == -1
    assert character_mn(Partition((1, 1)), Partition((2,))) == -1
    assert character_mn(Partition(()), Partition(())) == 1


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        character_mn(Partition((2, 2)), Partition((3,)))


def test_identity_class_gives_dimension():
    for n in range(11):
        ones = Partition((1,) * n)
        for lam in partitions(n):
            assert character_mn(lam, ones) == syt_count(lam.parts)


def test_character_table_matches_bruteforce():
    for n in range(9):
        for lam in partitions(n):
            for mu in partitions(n):
                assert (character_mn(lam, mu)
                        == character_bruteforce(lam.parts, mu.parts)), (lam, mu)


def test_rectangles_match_bruteforce():
    for p in range(1, 21):
        for q in range(1, 20 // p + 1):
            n = p * q
            for k in range(1, min(n, 6) + 1):
                for pi in partitions(k):
                    mu = pi.parts + (1,) * (n - k)
                    chi = character_bruteforce((q,) * p, mu)
                    assert character_mn(rectangle(p, q), mu) == chi, (pi, p, q)
                    assert (normalized_character(pi, rectangle(p, q))
                            == Fraction(perm(n, k) * chi,
                                        syt_count((q,) * p))), (pi, p, q)


def test_conjugate_shape_sign():
    for n in range(8):
        for lam in partitions(n):
            for mu in partitions(n):
                sign = -1 if (n - mu.length) % 2 else 1
                assert (character_mn(transpose(lam), mu)
                        == sign * character_mn(lam, mu)), (lam, mu)


def test_one_cycle_matches_full_recursion():
    for n in range(1, 10):
        for lam in partitions(n):
            for k in range(1, n + 1):
                mu = Partition((k,) + (1,) * (n - k))
                assert one_cycle_character(lam, k) == character_mn(lam, mu)


def test_one_cycle_out_of_range():
    with pytest.raises(OutOfRange):
        one_cycle_character(Partition((2, 2)), 5)
    with pytest.raises(OutOfRange):
        one_cycle_character(Partition((2, 2)), 0)


def test_one_cycle_cancellation():
    # the two 3-hook removals from the 2 x 5 rectangle have equal dimension
    # and opposite sign
    assert one_cycle_character(Partition((5, 5)), 3) == 0


def test_normalized_examples():
    assert normalized_character(Partition((2,)), rectangle(2, 3)) == 6
    assert normalized_character(Partition((3,)), rectangle(2, 2)) == -12
    assert normalized_character(Partition((3,)), rectangle(2, 5)) == 0
    assert normalized_character(Partition((2, 2)), Partition((2, 1, 1))) == -8


def test_normalized_small_and_empty_cycles():
    assert normalized_character(Partition(()), Partition((3, 1))) == 1
    assert normalized_character(Partition((5,)), Partition((2, 2))) == 0


def test_normalized_general_shapes():
    assert normalized_character(Partition((2,)), Partition((2, 1))) == 0
    assert normalized_character(Partition((3,)), Partition((2, 1))) == -3
    value = normalized_character(Partition((2,)), Partition((3, 1)))
    assert isinstance(value, int)
    assert value == 4


@pytest.mark.parametrize("cycle, p, q", [((3, 2), 6, 10), ((2, 2), 7, 9)])
def test_fixed_points_cost_nothing(cycle, p, q):
    # a recursion that peels the n - k fixed points one box at a time needs
    # ~0.3 s for each of these
    start = perf_counter()
    value = normalized_character(Partition(cycle), rectangle(p, q))
    assert perf_counter() - start < 0.1
    assert value == stanley_eval(Partition(cycle), p, q)


def test_many_two_cycles_stay_cheap():
    start = perf_counter()
    normalized_character(Partition((2,) * 10), rectangle(6, 10))
    assert perf_counter() - start < 0.1


def test_values_do_not_depend_on_the_shared_cache():
    # the recursion is memoized across calls; a cold cache gives the same
    # values as one that earlier calls filled
    cases = [(pi, p, q) for size in range(1, 7) for pi in partitions(size)
             for p, q in ((2, 3), (3, 2), (4, 5), (6, 10))]
    warm = [normalized_character(pi, rectangle(p, q)) for pi, p, q in cases]
    _character.cache_clear()
    _normalized.cache_clear()
    assert _character.cache_info().currsize == 0
    assert _normalized.cache_info().currsize == 0
    cold = [normalized_character(pi, rectangle(p, q)) for pi, p, q in cases]
    assert cold == warm
    assert cold == [stanley_eval(pi, p, q) for pi, p, q in cases]


def test_memo_tells_unit_parts_apart():
    # Ch at (3, 1) and at (3) share their non-unit parts but differ by a
    # falling factorial; each must match the brute force in either order
    shapes = [(2, 2), (3, 1), (4, 2), (3, 3), (2, 2, 1, 1), (5, 4, 1)]
    for order in (((3, 1), (3,)), ((3,), (3, 1))):
        _normalized.cache_clear()
        for lam in shapes:
            n = sum(lam)
            for pi in order:
                k = sum(pi)
                chi = character_bruteforce(lam, pi + (1,) * (n - k))
                want = Fraction(perm(n, k) * chi, syt_count(lam))
                assert normalized_character(pi, lam) == want, (pi, lam)


@st.composite
def cycles_and_rectangles(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    parts = []
    left = k
    while left:
        part = draw(st.integers(min_value=1, max_value=left))
        parts.append(part)
        left -= part
    p = draw(st.integers(min_value=1, max_value=60))
    q = draw(st.integers(min_value=1, max_value=60 // p))
    if draw(st.booleans()):
        p, q = q, p
    return Partition(sorted(parts, reverse=True)), p, q


@given(cycles_and_rectangles())
@settings(max_examples=200, deadline=None)
def test_routes_agree_on_random_rectangles(case):
    pi, p, q = case
    value = normalized_character(pi, rectangle(p, q))
    assert value == stanley_eval(pi, p, q)
    if pi.length == 1:
        assert value == ch_rect_fast(pi.size, p, q)
