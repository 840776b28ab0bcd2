"""Tests for the closed product formulas and the family polynomials."""

import ast
import hashlib
import inspect
import sys
import time
from fractions import Fraction
from math import comb, perm

import pytest
from hypothesis import given, settings, strategies as st

from polyfixtures import CYCLE_PARITY, EXPECTED
import rectchar.closed
from rectchar.cli import CLOSED_CAP, TYPE_CAP
from rectchar.closed import (
    ch_rect_fast,
    closed_char_ed,
    coeff_f,
    corollary_poly,
    integrality_witness,
    minus_one_col_char,
    minus_one_row_char,
)
from rectchar.exact import catalan
from rectchar.mn import normalized_character
from rectchar.stanley import (
    decompose_even_basis,
    leading_square_coeff,
    stanley_eval,
    stanley_poly,
    substitute_ed,
)
from rectchar.young import Partition, rectangle

halves = st.integers(min_value=-8, max_value=8).map(lambda t: Fraction(t, 2))


def test_coeff_values():
    assert coeff_f(5, 0) == 1
    assert coeff_f(2, 1) == -6
    assert coeff_f(2, 2) == 5
    assert coeff_f(1, 2) == 0
    with pytest.raises(ValueError):
        coeff_f(2, -1)


def test_closed_char_ed_examples():
    assert closed_char_ed(3, 2, 0) == -12
    assert closed_char_ed(3, 2, 0, "odd") == -12
    assert closed_char_ed(2, Fraction(5, 2), Fraction(1, 2)) == 6
    assert closed_char_ed(2, Fraction(5, 2), Fraction(1, 2), "odd") == 6
    assert closed_char_ed(1, Fraction(5, 2), Fraction(3, 2)) == 4
    with pytest.raises(ValueError):
        closed_char_ed(0, 1, 0)
    with pytest.raises(ValueError):
        closed_char_ed(3, 2, 0, "half")


def test_closed_char_ed_refuses_inexact_coordinates():
    # a float would leak its binary expansion into the exact value
    assert closed_char_ed(1, Fraction(1, 10), 0) == Fraction(1, 100)
    for e, d in ((0.1, 0), (2, 0.5), (2.0, 0.0), ("2", 0), (2, None)):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            closed_char_ed(1, e, d)


def test_closed_char_ed_parity_in_d():
    for e in (Fraction(7, 2), 4):
        for d in (Fraction(3, 2), 2):
            assert closed_char_ed(3, e, d) == closed_char_ed(3, e, -d)
            assert closed_char_ed(4, e, d) == -closed_char_ed(4, e, -d)


@given(st.integers(min_value=1, max_value=6), halves, halves)
@settings(max_examples=120)
def test_closed_char_ed_matches_stanley_polynomial(k, e, d):
    want = stanley_eval(Partition((k,)), e - d, e + d)
    assert closed_char_ed(k, e, d, "even") == want
    assert closed_char_ed(k, e, d, "odd") == want


# (e, d): integers, half-integers, negative, and rationals that are not halves
_ED_POINTS = ((4, 1), (Fraction(9, 2), Fraction(3, 2)),
              (Fraction(-5, 2), -3), (Fraction(7, 3), Fraction(2, 5)))


def test_closed_char_ed_matches_stanley_up_to_the_stanley_cap():
    for k in range(1, TYPE_CAP + 1):
        pi = Partition((k,))
        for e, d in _ED_POINTS:
            want = stanley_eval(pi, e - d, e + d)
            for parity in ("even", "odd"):
                assert closed_char_ed(k, e, d, parity) == want, (
                    k, e, d, parity)


def test_closed_char_ed_names_no_other_closed_code():
    # the reference must not evaluate the sums that it checks
    tree = ast.parse(inspect.getsource(closed_char_ed))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    others = set(rectchar.closed.__all__) - {"closed_char_ed"}
    private = {name for name in vars(rectchar.closed) if name.startswith("_")}
    assert not named & (others | private)


def test_closed_char_ed_at_the_cap_matches_ch_rect_fast():
    started = time.perf_counter()
    value = closed_char_ed(CLOSED_CAP, Fraction(10**12 + 1, 2),
                           Fraction(10**12 - 1, 2))
    assert time.perf_counter() - started < 5.0
    assert value == ch_rect_fast(CLOSED_CAP, 1, 10**12)


def test_closed_char_ed_matches_stanley_at_every_small_integer_point():
    # p or q = 0, and windows whose zeros are a prefix or a suffix
    for k in range(1, 11):
        poly = stanley_poly((k,))
        for p in range(-k - 1, k + 2):
            for q in range(-k - 1, k + 2):
                got = closed_char_ed(k, Fraction(p + q, 2), Fraction(q - p, 2))
                assert got == poly.evaluate(p, q), (k, p, q)


def test_corollary_poly_matches_fixtures():
    for (kind, two_d), expected in EXPECTED.items():
        got = corollary_poly(two_d, CYCLE_PARITY[kind])
        assert got == expected, (kind, two_d)
    assert len(EXPECTED) == 13


def test_corollary_poly_symmetry_in_d():
    for two_d in range(13):
        assert corollary_poly(-two_d, "odd") == corollary_poly(two_d, "odd")
        assert corollary_poly(-two_d, "even") == -corollary_poly(two_d, "even")


def _weighted_degree(poly):
    # the largest j_exp + 2 n_exp, with deg J = 1 and deg N = 2; -1 for 0
    return max((i + 2 * j for i, j in poly.terms()), default=-1)


def test_corollary_poly_weighted_degrees():
    for two_d in range(13):
        odd = _weighted_degree(corollary_poly(two_d, "odd"))
        even = _weighted_degree(corollary_poly(two_d, "even"))
        if two_d % 2 == 0:
            assert odd == two_d
            assert even == (two_d - 2 if two_d else -1)
        else:
            assert odd == two_d - 1
            assert even == two_d - 1


def test_corollary_poly_has_integer_coefficients():
    for two_d in range(-12, 13):
        for parity in ("odd", "even"):
            poly = corollary_poly(two_d, parity)
            assert all(isinstance(c, int) for c in poly.terms().values())


def test_corollary_poly_rejects_bad_parity():
    with pytest.raises(ValueError):
        corollary_poly(2, "mixed")


def test_the_closed_routes_refuse_a_division_with_a_remainder(monkeypatch):
    # each ends in one checked division: with every product of odd numbers
    # read as 1, the denominator keeps factors the steps could not divide
    # out of the numerator
    monkeypatch.setattr("rectchar.closed.prod", lambda factors: 1)
    with pytest.raises(ArithmeticError, match="non-integer coefficient"):
        corollary_poly(3, "even")
    with pytest.raises(ArithmeticError, match="non-integer character value"):
        ch_rect_fast(4, 2, 5)


def test_ch_rect_fast_examples():
    assert ch_rect_fast(3, 2, 2) == -12
    assert ch_rect_fast(3, 2, 5) == 0
    assert ch_rect_fast(1, 1, 5) == 5
    assert ch_rect_fast(1, 17, 23) == 17 * 23
    assert ch_rect_fast(2, 1, 4) == 12
    with pytest.raises(ValueError):
        ch_rect_fast(0, 2, 2)
    with pytest.raises(ValueError):
        ch_rect_fast(2, 0, 2)
    with pytest.raises(ValueError):
        ch_rect_fast(2, 3, -1)


@pytest.mark.parametrize("args", [
    (3, Fraction(5, 2), 2),
    (3, 2, Fraction(4, 1)),
    (Fraction(3), 2, 2),
    (3.0, 2, 2),
    (3, 2, 2.0),
    (True, 2, 2),
    (3, True, 2),
    (3, 2, False),
    ("3", 2, 2),
])
def test_ch_rect_fast_rejects_non_int_arguments(args):
    with pytest.raises(TypeError):
        ch_rect_fast(*args)


def _pin_grid():
    # every head = min(j, |q - p| / 2) from 0 through j - 1 to j, even
    # cycles with odd and even q - p, both ways round
    for k in (*range(1, 121), 299, 300, 2999, 3000):
        for side in (1, 2, 3, 7, 99, 10**6 + 3, 10**12):
            for diff in sorted({0, 1, 2, k - 1, k, k + 1, k + 2, 2 * k}):
                yield k, side, side + diff
                if diff:
                    yield k, side + diff, side


def test_ch_rect_fast_values_are_pinned():
    # SHA-256 of str of each value, one a line, in the order of _pin_grid,
    # as ch_rect_fast stood before its denominator was sized to the head
    # Pythons without the str digit limit have nothing to lift
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        text = "\n".join(str(ch_rect_fast(*case)) for case in _pin_grid())
    finally:
        set_limit(limit)
    assert text.count("\n") + 1 == 12908
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "564a44239310d507fccbb1cb360ed088a5b58f2b3cd7e6ba7b1bc4444d75bfef")


_SIDES = (1, 2, 5, 9, 97, 98, 99, 100, 1000, 30000, 10**6 + 3, 10**12)


@pytest.mark.parametrize("k", [1, 2, 9, 98, 99, CLOSED_CAP])
def test_ch_rect_fast_one_row_and_one_column_are_falling_factorials(k):
    for side in _SIDES:
        assert ch_rect_fast(k, 1, side) == perm(side, k), (k, side)
        assert ch_rect_fast(k, side, 1) == (-1) ** (k - 1) * perm(side, k), (
            k, side)


def test_ch_rect_fast_at_the_cap_far_from_square_is_fast():
    # the dearest input at the cap: the sum is never cut short when
    # |q - p| >= k, and every digit of the sides enters each factor
    started = time.perf_counter()
    value = ch_rect_fast(CLOSED_CAP, 1, 10**12)
    elapsed = time.perf_counter() - started
    assert value == perm(10**12, CLOSED_CAP)
    assert elapsed < 1.0


def test_ch_rect_fast_far_from_square_is_fast():
    started = time.perf_counter()
    value = ch_rect_fast(99, 3, 30000)
    elapsed = time.perf_counter() - started
    assert value == closed_char_ed(99, Fraction(30003, 2),
                                   Fraction(29997, 2), "odd")
    assert elapsed < 1.0


@st.composite
def _cycle_and_rectangle(draw):
    k = draw(st.integers(min_value=1, max_value=99))
    p = draw(st.integers(min_value=1, max_value=10**12))
    q = draw(st.integers(min_value=max(1, p - 5000), max_value=p + 5000))
    return k, p, q


@given(_cycle_and_rectangle())
@settings(max_examples=40, deadline=None)
def test_ch_rect_fast_matches_ed_sum(case):
    k, p, q = case
    two_d = q - p
    want = closed_char_ed(k, Fraction(p + q, 2), Fraction(two_d, 2),
                          "odd" if two_d % 2 else "even")
    assert ch_rect_fast(k, p, q) == want


def test_ch_rect_fast_split_at_the_difference_matches_ed_sum():
    # the pass stops at t = |q - p| and takes the rest of the run as two
    # falling factorials: run = j, run = 1 and an empty run all occur
    # here, and so do even cycles with odd q - p (t0 = 1, h = 2)
    for k in range(1, 25):
        for p in (1, 7, 10**12):
            for q in range(max(1, p - k - 2), p + k + 3):
                two_d = q - p
                want = closed_char_ed(k, Fraction(p + q, 2),
                                      Fraction(two_d, 2),
                                      "odd" if two_d % 2 else "even")
                assert ch_rect_fast(k, p, q) == want, (k, p, q)


@pytest.mark.parametrize("k", [99, 150, 199])
def test_ch_rect_fast_near_square_matches_oracle_at_scale(k):
    # the oracle shares no code with the closed route
    p = k // 2 + 10
    for diff in (0, 1, 2, k - 1, k, k + 1):
        for a, b in ((p, p + diff), (p + diff, p)):
            want = normalized_character(Partition((k,)), rectangle(a, b))
            assert ch_rect_fast(k, a, b) == want, (k, a, b)


def test_ch_rect_fast_matches_oracle():
    for k in range(1, 9):
        for p in range(1, 9):
            for q in range(1, 9):
                want = normalized_character(Partition((k,)), rectangle(p, q))
                assert ch_rect_fast(k, p, q) == want, (k, p, q)


def test_ch_rect_fast_around_the_longest_hook_matches_oracle():
    # the longest hook of p x q has length p + q - 1
    for p in range(1, 61):
        for q in range(1, 60 // p + 1):
            for k in range(p + q - 1, p + q + 2):
                want = normalized_character(Partition((k,)), rectangle(p, q))
                assert ch_rect_fast(k, p, q) == want, (k, p, q)


def test_ch_rect_fast_past_the_longest_hook_is_instant():
    started = time.perf_counter()
    assert ch_rect_fast(100001, 400, 400) == 0
    assert time.perf_counter() - started < 0.1


def test_ch_rect_fast_even_cycles_on_squares_are_zero():
    # an even cycle's prefactor holds D = q - p, so the pass is skipped
    for p in range(1, 8):
        for k in range(2, p * p + 1, 2):
            want = normalized_character(Partition((k,)), rectangle(p, p))
            assert ch_rect_fast(k, p, p) == want == 0, (k, p)
    started = time.perf_counter()
    assert ch_rect_fast(CLOSED_CAP, 10**12, 10**12) == 0
    assert time.perf_counter() - started < 0.02


def test_ch_rect_fast_reciprocal_regime():
    # j <= |d| sends the trailing product into its reciprocal range
    assert ch_rect_fast(1, 1, 9) == 9
    assert ch_rect_fast(3, 1, 7) == 210
    assert ch_rect_fast(3, 7, 1) == 210
    assert ch_rect_fast(2, 1, 8) == 56
    assert ch_rect_fast(2, 8, 1) == -56


def test_ch_rect_fast_big_input_is_instant_integer():
    value = ch_rect_fast(9, 10**9, 10**9 + 4)
    check = closed_char_ed(9, Fraction(2 * 10**9 + 4, 2), Fraction(4, 2))
    assert value == check


def test_minus_one_examples():
    assert minus_one_row_char(3, 4) == -120
    assert minus_one_col_char(3, 4) == -120
    assert minus_one_col_char(2, 4) == 20
    assert minus_one_row_char(1, 9) == -9
    with pytest.raises(ValueError):
        minus_one_row_char(0, 4)
    with pytest.raises(ValueError):
        minus_one_col_char(0, 4)


def test_minus_one_matches_stanley_specialization():
    for k in range(1, 9):
        pi = Partition((k,))
        for value in range(-3, 7):
            assert stanley_eval(pi, -1, value) == minus_one_row_char(k, value)
            assert stanley_eval(pi, value, -1) == minus_one_col_char(k, value)


def test_integrality_witness_examples():
    assert integrality_witness(5, 3) == 35
    assert integrality_witness(-5, 3) == 35
    assert integrality_witness(1, 1) == 1
    assert integrality_witness(0, 4) == 0
    with pytest.raises(ValueError):
        integrality_witness(3, -1)


def test_integrality_witness_is_integral_on_ranges():
    for d in range(-20, 21):
        for k in range(1, 13):
            assert integrality_witness(d, k).denominator == 1, (d, k)


def test_leading_square_coeff_values():
    assert [leading_square_coeff(j) for j in (1, 2, 3, 4)] == [1, -1, 2, -5]
    with pytest.raises(ValueError):
        leading_square_coeff(0)


def test_decomposition_constants_match_family_coefficients():
    for j in (1, 2, 3):
        poly = substitute_ed(stanley_poly(Partition((2 * j - 1,))))
        entries = decompose_even_basis(poly, j)
        lead = (-1 if j % 2 == 0 else 1) * catalan(j - 1)
        for k, entry in enumerate(entries):
            c_k = poly.coefficient(2 * k, 2 * (j - k))
            assert Fraction(c_k) == lead * coeff_f(j, k), (j, k)
            assert entry.coefficient(0, 2 * (j - k)) == c_k


def _run(n, abs_d, upper):
    """Product of n - r (r + abs_d) for r = 0..upper.

    upper = -1 gives the empty product 1, and upper <= -2 the reciprocal of
    the factors at r = upper + 1..-1, so that every run satisfies
    run(upper + 1) == run(upper) * (n - (upper + 1) (upper + 1 + abs_d)).
    """
    out = Fraction(1)
    for r in range(upper + 1):
        out *= n - r * (r + abs_d)
    for r in range(upper + 1, 0):
        out /= n - r * (r + abs_d)
    return out


def _family_reconstruction(k, p, q):
    """Prefactor times family member at (j, n) times the linear run."""
    two_d, n = q - p, p * q
    poly = corollary_poly(two_d, "odd" if k % 2 else "even")
    if k % 2:
        j = (k + 1) // 2
        pref = (-1 if j % 2 == 0 else 1) * catalan(j - 1)
        upper = (j - abs(two_d) // 2 - 1 if two_d % 2 == 0
                 else j - (abs(two_d) + 1) // 2)
    else:
        j = k // 2
        pref = (-1 if j % 2 == 0 else 1) * (
            comb(2 * j, j) if two_d % 2 == 0 else comb(2 * j - 1, j))
        upper = (j - abs(two_d) // 2 if two_d % 2 == 0
                 else j - (abs(two_d) + 1) // 2)
    return pref * poly.evaluate(j, n) * _run(n, abs(two_d), upper)


def test_families_against_direct_product_reconstruction():
    # corollary data recombines into the single-cycle character
    for k in range(1, 8):
        for p in range(1, 8):
            for q in range(1, 8):
                got = _family_reconstruction(k, p, q)
                assert got == ch_rect_fast(k, p, q), (k, p, q)


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=150, deadline=None)
def test_families_match_ed_sum_far_from_square(k, p, q):
    # |two_d| up to 59; closed_char_ed shares no code with corollary_poly
    two_d = q - p
    want = closed_char_ed(k, Fraction(p + q, 2), Fraction(two_d, 2),
                          "odd" if two_d % 2 else "even")
    assert _family_reconstruction(k, p, q) == want
