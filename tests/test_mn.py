"""Tests for the Murnaghan-Nakayama oracle."""

from fractions import Fraction
from functools import lru_cache
from hashlib import sha256
from math import factorial, perm
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    border_strips,
    character_bruteforce,
    conjugate,
    hook_length_dim,
    syt_count,
)
from rectchar.cli import ORACLE_WIDTH_CAP, main
from rectchar.closed import ch_rect_fast
from rectchar.mn import _beads, _ch, _split, normalized_character
from rectchar.stanley import stanley_eval
from rectchar.young import Partition, partitions, rectangle

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


def _from_chi(chi, shape, k):
    # Ch_mu(lam) = n (n-1) ... (n-k+1) chi^lam(mu) / f^lam, mu of k
    # completed with fixed points, f counted by brute force
    return Fraction(perm(sum(shape), k) * chi, syt_count(shape))


def test_s4_character_table():
    for shape, row in S4_TABLE.items():
        got = [normalized_character(mu, shape) for mu in S4_CLASSES]
        assert got == [_from_chi(chi, shape, 4) for chi in row], shape


def test_character_examples():
    assert normalized_character((3, 1), (2, 2)) == _from_chi(-1, (2, 2), 4)
    assert normalized_character((2,), (1, 1)) == _from_chi(-1, (1, 1), 2)
    assert normalized_character((), ()) == _from_chi(1, (), 0)


def test_identity_class_gives_dimension():
    # chi at 1^n is f, so Ch there is n!
    for n in range(11):
        ones = Partition((1,) * n)
        for lam in partitions(n):
            assert (normalized_character(ones, lam)
                    == _from_chi(syt_count(lam.parts), lam.parts, n)), lam


def test_character_table_matches_bruteforce():
    for n in range(9):
        for lam in partitions(n):
            for mu in partitions(n):
                chi = character_bruteforce(lam.parts, mu.parts)
                assert (normalized_character(mu, lam)
                        == _from_chi(chi, lam.parts, n)), (lam, mu)


def test_rectangles_match_bruteforce():
    for p in range(1, 21):
        for q in range(1, 20 // p + 1):
            n = p * q
            for k in range(1, min(n, 6) + 1):
                for pi in partitions(k):
                    mu = pi.parts + (1,) * (n - k)
                    chi = character_bruteforce((q,) * p, mu)
                    assert (normalized_character(mu, rectangle(p, q))
                            == _from_chi(chi, (q,) * p, n)), (pi, p, q)
                    assert (normalized_character(pi, rectangle(p, q))
                            == _from_chi(chi, (q,) * p, k)), (pi, p, q)


def test_conjugate_shape_sign():
    # chi at the conjugate is chi times the sign of mu, and f is the same
    for n in range(8):
        for lam in partitions(n):
            for mu in partitions(n):
                sign = -1 if (n - mu.length) % 2 else 1
                assert (normalized_character(mu, conjugate(lam.parts))
                        == sign * normalized_character(mu, lam)), (lam, mu)


def test_one_cycle_matches_full_recursion():
    # the fixed-point rule Ch_(pi, 1^m) = (n - |pi|)_m Ch_pi, the falling
    # factorial (n - k)! at pi = (k) and m = n - k
    for n in range(1, 10):
        for lam in partitions(n):
            for k in range(1, n + 1):
                full = (k,) + (1,) * (n - k)
                assert (normalized_character(full, lam)
                        == factorial(n - k) * normalized_character((k,), lam))


def test_one_cycle_cancellation():
    # the two 3-hook removals from the 2 x 5 rectangle have equal dimension
    # and opposite sign
    assert normalized_character((3,), (5, 5)) == 0


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
    _ch.cache_clear()
    assert _ch.cache_info().currsize == 0
    cold = [normalized_character(pi, rectangle(p, q)) for pi, p, q in cases]
    assert cold == warm
    assert cold == [stanley_eval(pi, p, q) for pi, p, q in cases]


def test_memo_tells_unit_parts_apart():
    # Ch at (3, 1) and at (3) share their non-unit parts but differ by a
    # falling factorial; each must match the brute force in either order
    shapes = [(2, 2), (3, 1), (4, 2), (3, 3), (2, 2, 1, 1), (5, 4, 1)]
    for order in (((3, 1), (3,)), ((3,), (3, 1))):
        _ch.cache_clear()
        for lam in shapes:
            n = sum(lam)
            for pi in order:
                k = sum(pi)
                chi = character_bruteforce(lam, pi + (1,) * (n - k))
                want = Fraction(perm(n, k) * chi, syt_count(lam))
                assert normalized_character(pi, lam) == want, (pi, lam)


def test_the_memo_is_keyed_on_shapes():
    # the strip 2 -> 0 of the 2 x 2 leaves the beta-set 0b1001, the shape
    # (2) with an empty row; shifted past that bead it is the leaf
    # (0b100, (2,)) that 1 x 4 reaches too, so the two calls store 4
    # entries, not 5
    _ch.cache_clear()
    assert normalized_character((2, 2), rectangle(2, 2)) == 24
    assert normalized_character((2, 2), rectangle(1, 4)) == 24
    assert _ch.cache_info().currsize == 4
    assert _ch(0b100, (2,)) == normalized_character((2,), (2,))
    assert _ch.cache_info().currsize == 4


def test_verify_grid_memo_entries_are_pinned(capsys):
    # one entry per (shape, remaining parts) that verify's grid reaches;
    # keyed on raw beta-sets the same run stored 1342
    _ch.cache_clear()
    try:
        assert main(["verify", "--suite", "all", "--k-max", "7",
                     "--pq-max", "7"]) == 0
    finally:
        capsys.readouterr()
    assert _ch.cache_info().currsize == 1240


def test_a_cycle_type_is_split_once():
    # a list, a tuple and a Partition of one type read one plan entry
    _split.cache_clear()
    values = {normalized_character(cycle, rectangle(3, 4))
              for cycle in ([3, 2, 1], (3, 2, 1), Partition((3, 2, 1)))}
    assert values == {normalized_character((3, 2, 1), (4, 4, 4))}
    assert _split.cache_info().currsize == 1
    assert _split((3, 2, 1)) == (6, (3, 2), 5)
    assert _split((1, 1)) == (2, (), 0)
    # a long run keeps the plans of its last 128 types only
    for size in range(1, 12):
        for pi in partitions(size):
            normalized_character(pi, rectangle(2, 3))
    assert _split.cache_info().currsize == 128


def test_a_refused_argument_splits_nothing():
    # the cycle and the shape are validated before the plan is fetched
    _split.cache_clear()
    for cycle, shape in (((2, 3), (2, 2)), ((2.0,), (2, 2)),
                         ((2,), (2, 3)), ((2,), (True,))):
        with pytest.raises((TypeError, ValueError)):
            normalized_character(cycle, shape)
    assert _split.cache_info().currsize == 0


def _shape_of(mask):
    # the partition whose beta-set is the bitmask, rows of length 0 left off
    beads = [x for x in range(mask.bit_length() - 1, -1, -1) if mask >> x & 1]
    rows = [x - (len(beads) - 1 - i) for i, x in enumerate(beads)]
    return tuple(row for row in rows if row)


def _hooks(parts):
    # the product of the hook lengths, n! / f
    return factorial(sum(parts)) // hook_length_dim(parts)


def _masks(lam):
    # the beta-set of lam with 0, 1 and 2 extra beads at the bottom, each
    # the same shape
    for extra in range(3):
        mask = (_beads(lam.parts) << extra) | ((1 << extra) - 1)
        assert _shape_of(mask) == lam.parts
        yield mask


@lru_cache(maxsize=None)
def _strips(parts, r):
    # (lam', +-H(lam) / H(lam')) for each r-strip lam / lam' of the shape,
    # signed by its height, from the brute-force border strips
    hooks = _hooks(parts)
    return tuple((inner, Fraction(-hooks if height % 2 else hooks,
                                  _hooks(inner)))
                 for inner, height in border_strips(parts, r))


def _strip_sum(parts, r):
    # Ch_(r) by brute force
    return sum(ratio for _, ratio in _strips(parts, r))


def test_a_node_sums_its_border_strips():
    # Ch_(r) and Ch_(r, s) of every shape of size <= 10, from a cold memo,
    # equal the brute-force sums over r-strips lam / lam' of
    # +-H(lam) / H(lam') and of that times Ch_(s)(lam')
    _ch.cache_clear()
    for n in range(1, 11):
        for lam in partitions(n):
            for r in range(1, n + 1):
                strips = _strips(lam.parts, r)
                want = [_strip_sum(lam.parts, r)] + [
                    sum(ratio * _strip_sum(inner, s) for inner, ratio in strips)
                    for s in range(1, r + 1)]
                for mask in _masks(lam):
                    got = [_ch(mask, (r,))] + [_ch(mask, (r, s))
                                               for s in range(1, r + 1)]
                    assert got == want, (lam, r, mask)


def test_bead_moves_are_the_border_strips(monkeypatch):
    # every r-strip of every shape of size <= 10 is one branch of its node,
    # signed by the beads it jumps and weighted by the ratio of hook
    # products.  A child lam' that reads H(lam') B^i, i its index among the
    # shapes of its size, makes the node H(lam) times the sum of +-B^i over
    # its strips; B is far above any hook ratio of these sizes, so one
    # wrong, missing or extra branch changes the sum
    base = 1 << 64
    index = {}
    monkeypatch.setattr("rectchar.mn._ch", lambda mask, rest: (
        base ** index[_shape_of(mask)] * _hooks(_shape_of(mask))))
    node = _ch.__wrapped__
    for n in range(1, 11):
        for lam in partitions(n):
            for r in range(1, n + 1):
                index = {mu.parts: i for i, mu in enumerate(partitions(n - r))}
                want = _hooks(lam.parts) * sum(
                    (1 if ratio > 0 else -1) * base ** index[inner]
                    for inner, ratio in _strips(lam.parts, r))
                for mask in _masks(lam):
                    assert node(mask, (r, 1)) == want, (lam, r, mask)


def test_beads_of_a_shape():
    assert _beads(()) == 0
    assert _beads((5, 5, 5)) == 0b111 << 5
    assert _beads((3, 1)) == 0b10010
    assert _beads((4, 2, 2)) == 0b1001100


def test_a_node_with_a_remainder_raises(monkeypatch):
    # each node ends in one checked division: with every falling factorial
    # read as 1 but those of 0 read as 2, the one branch of Ch_(2) at the
    # shape (2) is 1/2
    _ch.cache_clear()
    monkeypatch.setattr("rectchar.mn.perm", lambda n, k: 1 if n else 2)
    try:
        with pytest.raises(ArithmeticError):
            _ch(_beads((2,)), (2,))
    finally:
        _ch.cache_clear()


def test_values_off_rectangles_are_pinned():
    # verify checks only rectangles; this pins every shape of size <= 12 at
    # every type of size <= 8, 17,886 values
    values = [normalized_character(pi, lam)
              for n in range(1, 13) for lam in partitions(n)
              for size in range(1, 9) for pi in partitions(size)]
    assert len(values) == 17886
    assert sha256(repr(values).encode()).hexdigest() == (
        "aa08c74e7cb7c1c0479b86161079e0a28d7cf56e22ffd9a18ef2028429a4ad5a")


@pytest.mark.parametrize("cycle, p, q", [
    ((3, 2), 100, 100), ((8,), 100, 100), ((2,) * 8, 100, 100),
    ((16,), 300, 300), ((3,), 2000, 1)])
def test_large_rectangles_cost_no_more_than_their_strips(cycle, p, q):
    # a recursion that closes each branch with n! needs 0.3-0.4 s, 0.4 s,
    # 6-8 s and 60-90 s for the squares; one that tries every pair of rows
    # for a strip needs about 0.5 s for the column
    _ch.cache_clear()
    shape = rectangle(p, q)
    start = perf_counter()
    value = normalized_character(Partition(cycle), shape)
    assert perf_counter() - start < 0.1
    assert value == stanley_eval(Partition(cycle), p, q)


@pytest.mark.parametrize("cycle", [(2,) * 12, (5, 4, 4, 3)])
@pytest.mark.parametrize("p, q", [(5000, 5000), (30, 9970), (9970, 30)])
def test_general_types_at_the_width_cap(cycle, p, q):
    # the widest bitmask eval takes; 2^12 needs 0.05-0.1 s cold on a 2-core
    # host
    assert p + q == ORACLE_WIDTH_CAP
    _ch.cache_clear()
    start = perf_counter()
    value = normalized_character(Partition(cycle), rectangle(p, q))
    assert perf_counter() - start < 1
    assert value == stanley_eval(Partition(cycle), p, q)


def test_arguments_are_still_validated():
    # a Partition is read as it is; anything else goes through the checked
    # constructor, with its errors, for the cycle and the shape alike
    assert normalized_character((3,), [2, 2]) == -12
    assert normalized_character((), ()) == 1
    assert normalized_character((1, 1, 1), (2, 2)) == 24
    assert normalized_character((5,), (2, 2)) == 0
    assert normalized_character([2, 1], Partition((2, 1))) == 0
    assert normalized_character([3, 1], [2, 2]) == -12
    assert normalized_character([1, 1, 1, 1], [2, 2]) == 24
    assert normalized_character([3], [2, 2]) == -12
    with pytest.raises(ValueError, match="weakly decreasing"):
        normalized_character((2,), (2, 3))
    with pytest.raises(ValueError, match="positive"):
        normalized_character((2, 0), (2, 2))
    for bad in ((2.0,), (True,), (2, 1.0), (2, False)):
        with pytest.raises(TypeError, match="must be an int"):
            normalized_character(bad, (2, 2))
        with pytest.raises(TypeError, match="must be an int"):
            normalized_character((2,), bad)


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
