"""Tests for Stanley's rectangle formula and its polynomial forms."""

from fractions import Fraction
from math import factorial
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import factorization_table, stirling_first_unsigned
from rectchar._poly import BiPoly, DEPoly
from rectchar.closed import ch_rect_fast, closed_char_ed
from rectchar.mn import normalized_character
from rectchar.stanley import (
    _joint_cycle_table,
    BasisMismatch,
    GroupRingElem,
    Perm,
    cycle_type_representative,
    decompose_even_basis,
    jm_factorization_check,
    stanley_eval,
    stanley_poly,
    substitute_ed,
)
from rectchar.young import Partition, partitions, rectangle


def _cycle_types(max_size):
    for size in range(1, max_size + 1):
        yield from partitions(size)


# permutations and the group ring ------------------------------------------

def test_perm_basics():
    s = Perm((2, 1, 3))
    t = Perm((1, 3, 2))
    assert (s * t).images == (2, 3, 1)
    assert (t * s).images == (3, 1, 2)
    assert s.inverse() == s
    assert Perm((2, 3, 1)).inverse().images == (3, 1, 2)
    assert Perm((2, 3, 1)).cycle_count() == 1
    assert Perm.identity(4).cycle_count() == 4
    assert Perm.transposition(4, 2, 4).images == (1, 4, 3, 2)
    assert Perm((2, 3, 1))(1) == 2
    with pytest.raises(ValueError):
        Perm((1, 1))
    with pytest.raises(ValueError):
        Perm((0, 1))
    with pytest.raises(ValueError):
        Perm.transposition(3, 1, 1)


def test_group_ring_arithmetic():
    one = GroupRingElem.one(3)
    s = GroupRingElem.basis(Perm((2, 1, 3)))
    assert one * s == s
    assert s * s == one
    assert (s + s) * s == 2 * one
    assert s - s == GroupRingElem.zero(3)
    assert (one + s) * (one - s) == GroupRingElem.zero(3)
    with pytest.raises(ValueError):
        s * GroupRingElem.one(2)


def test_cycle_type_representative():
    assert cycle_type_representative(Partition((3, 2))).images == (2, 3, 1, 5, 4)
    assert cycle_type_representative(Partition((1, 1))).images == (1, 2)
    rep = cycle_type_representative(Partition((4,)))
    assert rep.cycle_count() == 1


# the joint cycle table -------------------------------------------------------

def test_joint_table_matches_bruteforce():
    for k in range(9):
        for pi in partitions(k):
            w = [x - 1 for x in cycle_type_representative(pi).images]
            table = [list(row) for row in _joint_cycle_table(pi.parts)]
            assert table == factorization_table(w), pi


def test_joint_table_refuses_a_sum_with_a_remainder(monkeypatch):
    # weight 1 on the one-row shape alone leaves x (x + 1) y (y + 1) / 2
    monkeypatch.setattr("rectchar.stanley.character_mn",
                        lambda lam, pi: 1 if lam.parts == (2,) else 0)
    with pytest.raises(ArithmeticError):
        _joint_cycle_table.__wrapped__((2,))


def test_joint_table_trivial_sizes():
    assert _joint_cycle_table(()) == ((1,),)
    assert _joint_cycle_table((1,)) == ((0, 0), (0, 1))


def test_joint_table_total_and_marginals_are_stirling():
    for k in range(1, 13):
        table = _joint_cycle_table((k,))
        assert sum(map(sum, table)) == factorial(k)
        stirling = stirling_first_unsigned(k)
        row_marginal = [sum(row) for row in table]
        assert row_marginal == stirling
        col_marginal = [sum(row[c2] for row in table) for c2 in range(k + 1)]
        assert col_marginal == row_marginal


def test_joint_table_symmetry():
    for parts in ((2, 2, 1), (3, 1), (6,), (4, 3, 2, 1), (5, 5, 2)):
        table = _joint_cycle_table(parts)
        assert all(table[a][b] == table[b][a]
                   for a in range(len(table)) for b in range(len(table)))


def test_joint_table_identity_is_diagonal():
    for k in range(1, 10):
        table = _joint_cycle_table((1,) * k)
        stirling = stirling_first_unsigned(k)
        for a in range(k + 1):
            for b in range(k + 1):
                assert table[a][b] == (stirling[a] if a == b else 0)


# numeric and polynomial evaluation ------------------------------------------

def test_stanley_eval_examples():
    assert stanley_eval(Partition((1,)), 3, 4) == 12
    assert stanley_eval(Partition((2,)), 2, 3) == 6
    assert stanley_eval(Partition((3,)), 2, 2) == -12
    assert stanley_eval(Partition((2, 2)), 2, 2) == 24
    with pytest.raises(ValueError):
        stanley_eval(Partition(()), 2, 2)
    with pytest.raises(ValueError):
        stanley_poly(Partition(()))


def test_stanley_eval_accepts_exact_non_integers():
    value = stanley_eval(Partition((2,)), Fraction(1, 2), 3)
    poly = stanley_poly(Partition((2,)))
    assert value == poly.evaluate(Fraction(1, 2), 3)


def test_stanley_poly_text():
    assert str(stanley_poly(Partition((2,)))) == "-1*P^2*Q + 1*P*Q^2"
    assert stanley_poly(Partition((1,))).terms() == {(1, 1): 1}


def test_poly_matches_eval():
    for pi in _cycle_types(6):
        poly = stanley_poly(pi)
        for p, q in ((1, 1), (2, 3), (3, 2), (4, 5), (-1, 3), (2, -2),
                     (Fraction(-7, 3), Fraction(5, 4)), (0, Fraction(2, 7))):
            assert poly.evaluate(p, q) == stanley_eval(pi, p, q), pi
        assert type(stanley_eval(pi, 3, -2)) is int


def test_matches_oracle_on_small_grid():
    for pi in _cycle_types(5):
        for p in range(1, 5):
            for q in range(1, 5):
                assert (stanley_eval(pi, p, q)
                        == normalized_character(pi, rectangle(p, q))), (pi, p, q)


def test_single_cycles_up_to_the_cap_match_the_closed_route():
    # ch_rect_fast takes positive sides, here with p q past the oracle's
    # cap; at negative and rational points the closed route's (e, d)
    # reference sum evaluates the same polynomial.
    sides = ((7, 11), (12, 13), (1, 1000), (40, 3))
    points = ((-3, 5), (4, -9), (-2, -7), (Fraction(7, 2), Fraction(-5, 3)),
              (Fraction(1, 3), Fraction(1, 2)))
    for k in range(10, 17):
        pi = Partition((k,))
        for p, q in sides:
            assert stanley_eval(pi, p, q) == ch_rect_fast(k, p, q), (k, p, q)
        for p, q in points:
            half_sum, half_diff = Fraction(p + q, 2), Fraction(q - p, 2)
            assert (stanley_eval(pi, p, q)
                    == closed_char_ed(k, half_sum, half_diff)), (k, p, q)


def test_identity_class_of_sixteen_builds_fast_and_matches_oracle():
    pi = Partition((1,) * 16)
    started = perf_counter()
    poly = stanley_poly(pi)
    assert perf_counter() - started < 1.0
    assert poly.evaluate(4, 4) == normalized_character(pi, rectangle(4, 4))


def test_transpose_sign_identity():
    for pi in _cycle_types(7):
        sign = -1 if (pi.size - pi.length) % 2 else 1
        poly = stanley_poly(pi)
        assert poly.swap() == sign * poly, pi


def test_total_degree_is_size_plus_length():
    for pi in _cycle_types(6):
        assert stanley_poly(pi).total_degree() == pi.size + pi.length, pi


# change of variables ----------------------------------------------------------

def test_substitute_ed_examples():
    assert substitute_ed(BiPoly({(1, 1): 1})) == DEPoly({(0, 2): 1, (2, 0): -1})
    assert substitute_ed(BiPoly({(1, 0): 1})) == DEPoly({(0, 1): 1, (1, 0): -1})
    assert substitute_ed(BiPoly.zero()) == DEPoly.zero()


@given(st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
def test_substitute_ed_agrees_pointwise(d, e):
    poly = stanley_poly(Partition((3, 1)))
    assert (substitute_ed(poly).evaluate(d, e)
            == poly.evaluate(e - d, e + d))


def test_substitute_ed_parity():
    for pi in _cycle_types(6):
        depoly = substitute_ed(stanley_poly(pi))
        if (pi.size - pi.length) % 2 == 0:
            assert depoly.is_even_in_d(), pi
        else:
            assert depoly.is_odd_in_d(), pi


# even-basis decomposition ------------------------------------------------------

def test_decompose_example():
    parts = decompose_even_basis(DEPoly({(0, 2): 1, (2, 0): -1}), 1)
    assert parts == [DEPoly({(0, 2): 1}), DEPoly({(0, 0): -1})]


def test_decompose_three_cycle():
    poly = substitute_ed(stanley_poly(Partition((3,))))
    parts = decompose_even_basis(poly, 2)
    e2 = DEPoly({(0, 2): 1})
    assert parts[0] == -1 * e2 * (e2 - 1)
    assert parts[1] == 6 * (e2 - 1)
    assert parts[2] == DEPoly.constant(-5)


def test_decompose_rejects_bad_inputs():
    with pytest.raises(BasisMismatch):
        decompose_even_basis(DEPoly({(1, 0): 1}), 2)
    with pytest.raises(BasisMismatch):
        decompose_even_basis(DEPoly({(6, 0): 1}), 2)
    with pytest.raises(ValueError):
        decompose_even_basis(DEPoly.zero(), 0)


@st.composite
def even_depolys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = 2 * draw(st.integers(min_value=0, max_value=3))
        j = draw(st.integers(min_value=0, max_value=4))
        terms[(i, j)] = draw(st.integers(min_value=-9, max_value=9))
    return DEPoly(terms.items())


@given(even_depolys())
@settings(max_examples=60)
def test_decompose_round_trip(poly):
    entries = decompose_even_basis(poly, 3)
    rebuilt = DEPoly.zero()
    d2 = DEPoly({(2, 0): 1})
    for k, entry in enumerate(entries):
        assert entry.is_zero() or entry.d_degree() == 0
        basis = DEPoly.constant(1)
        for r in range(k):
            basis = basis * (d2 - r * r)
        rebuilt = rebuilt + entry * basis
    assert rebuilt == poly


# group ring identity ---------------------------------------------------------

def test_jm_factorization():
    for k in range(1, 7):
        assert jm_factorization_check(k), k
    with pytest.raises(ValueError):
        jm_factorization_check(0)
