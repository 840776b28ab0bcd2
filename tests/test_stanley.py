"""Tests for Stanley's rectangle formula and its polynomial forms."""

import ast
import hashlib
import random
from enum import IntEnum
from fractions import Fraction
from itertools import permutations
from math import factorial
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import rectchar.closed
import rectchar.mn
import rectchar.stanley
from bruteforce import (
    character_bruteforce,
    column_largest_first,
    conjugate,
    content_coefficients,
    cycle_type_representative,
    factorization_table,
    hook_length_dim,
    jm_product,
    stirling_first_unsigned,
)
from rectchar._poly import BiPoly, DEPoly, JNPoly
from rectchar.closed import ch_rect_fast, closed_char_ed
from rectchar.mn import normalized_character
from rectchar.stanley import (
    _column,
    _conjugate_mask,
    _content_coeffs,
    _joint_cycle_table,
    _plan,
    _shape,
    _spans,
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


# the joint cycle table -------------------------------------------------------

def dense_table(parts):
    """The joint cycle table of parts as (k + 1) x (k + 1) nested lists,
    expanded from its packed rows; entries outside the spans are 0."""
    k = sum(parts)
    table = [[0] * (k + 1) for _ in range(k + 1)]
    rows = _joint_cycle_table(parts)
    spans = _spans(k, len(parts))
    assert len(rows) == len(spans)
    for (c1, first, last), (start, counts) in zip(spans, rows):
        assert start == first and len(counts) == (last - first) // 2 + 1
        table[c1][first:last + 1:2] = counts
    return table


def table_poly(parts):
    """The polynomial read off the unreduced joint cycle table of parts, with
    no fixed point split off: count (-1)^(k + c1) P^c2 Q^c1 per entry."""
    k = sum(parts)
    return BiPoly({(c2, c1): -count if (k + c1) % 2 else count
                   for c1, row in enumerate(dense_table(parts))
                   for c2, count in enumerate(row) if count})


def test_joint_table_matches_bruteforce():
    for k in range(9):
        for pi in partitions(k):
            w = cycle_type_representative(pi.parts)
            assert dense_table(pi.parts) == factorization_table(w), pi


def _beta_set(parts, k):
    """The k-bead beta-set of a partition of k, as the sweep's bitmask."""
    padded = parts + (0,) * (k - len(parts))
    return sum(1 << (row + k - 1 - i) for i, row in enumerate(padded))


def test_column_matches_bruteforce():
    for k in range(9):
        shapes = [lam.parts for lam in partitions(k)]
        for mu in shapes:
            want = {_beta_set(lam, k): character_bruteforce(lam, mu)
                    for lam in shapes}
            want = {mask: chi for mask, chi in want.items() if chi}
            assert _column(k, mu) == want, mu


def test_column_does_not_depend_on_the_order_of_the_strips():
    # smallest part first, against the sweep with the largest part first
    for pi in _cycle_types(12):
        assert _column(pi.size, pi.parts) == column_largest_first(
            pi.size, pi.parts), pi


def test_joint_tables_up_to_size_fourteen_are_pinned():
    # SHA-256 of repr of the list of tables, in the order of partitions(k)
    # for k = 1..14, as the table stood before its sums went one triangle
    # at a time
    tables = [_joint_cycle_table(pi.parts) for pi in _cycle_types(14)]
    assert len(tables) == 507
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "b33add5b37441dc30477bc46b77368c5df0d3e3a24a0db988d942ef6c4e0f0ab")


def _package_imports(module):
    # what a module imports from the package: local module -> names
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = (node.module or "").removeprefix("rectchar").lstrip(".")
            imported.setdefault(name, set()).update(
                alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name.removeprefix("rectchar").lstrip(".")
                imported.setdefault(name, set())
    return imported


def test_table_shares_no_code_with_the_oracle():
    # no route module imports another: stanley and mn take from young only
    # the validated Partition, stanley nothing from mn, mn nothing from
    # stanley or closed; closed takes nothing from mn, stanley or young
    imported = _package_imports(rectchar.stanley)
    assert "mn" not in imported and "mn" not in imported.get("", set())
    assert imported["young"] == {"Partition"}
    assert _package_imports(rectchar.mn)["young"] == {"Partition"}
    for module, others in ((rectchar.mn, ("stanley", "closed")),
                           (rectchar.closed, ("mn", "stanley", "young"))):
        imported = _package_imports(module)
        for route in others:
            assert route not in imported, (module.__name__, route)
            assert route not in imported.get("", set()), (module.__name__,
                                                          route)


def test_content_coeffs_match_the_box_by_box_product():
    shapes = [lam.parts for k in [*range(15), 24] for lam in partitions(k)]
    rng = random.Random(40)
    for _ in range(200):
        cuts = [0, *sorted(rng.sample(range(1, 40), rng.randint(0, 39))), 40]
        shapes.append(tuple(sorted((b - a for a, b in zip(cuts, cuts[1:])),
                                   reverse=True)))
    for parts in shapes:
        assert (_content_coeffs(sum(parts), list(parts))
                == content_coefficients(parts)), parts


def test_content_coeffs_refuse_more_boxes_than_the_size():
    # x (x + 1) (x + 2) has a cube term that two digits cannot hold
    with pytest.raises(ArithmeticError, match="more than 1 boxes"):
        _content_coeffs(1, [3])


def test_conjugate_mask_is_an_involution_that_conjugates():
    for k in range(15):
        for lam in partitions(k):
            mask = _beta_set(lam.parts, k)
            flipped = _conjugate_mask(k, mask)
            assert flipped == _beta_set(conjugate(lam.parts), k), lam
            assert _conjugate_mask(k, flipped) == mask, lam


def test_shape_weighs_one_shape_of_each_conjugate_pair():
    # the smaller mask of a pair 2 f with its coefficients, the larger 0
    # with none, a self-conjugate shape f
    for k in range(15):
        for lam in partitions(k):
            mask = _beta_set(lam.parts, k)
            other = _beta_set(conjugate(lam.parts), k)
            dim = hook_length_dim(lam.parts)
            weight, coeffs = _shape(k, mask)
            if mask > other:
                assert (weight, coeffs) == (0, ()), lam
                continue
            assert weight == (dim if mask == other else 2 * dim), lam
            assert coeffs == content_coefficients(lam.parts), lam


def test_paired_table_equals_the_unpaired_content_sum():
    # every shape with its own f, character and box-by-box content
    # product, on the whole square, then the one division by k!
    for k in range(13):
        shapes = []
        for lam in partitions(k):
            coeffs = content_coefficients(lam.parts)
            shapes.append((_beta_set(lam.parts, k), hook_length_dim(lam.parts),
                           [[ca * cb for cb in coeffs] for ca in coeffs]))
        for pi in partitions(k):
            column = _column(k, pi.parts)
            total = [[0] * (k + 1) for _ in range(k + 1)]
            for mask, dim, outer in shapes:
                weight = dim * column.get(mask, 0)
                if weight:
                    for row, products in zip(total, outer):
                        for b, product in enumerate(products):
                            row[b] += weight * product
            assert all(entry % factorial(k) == 0 for row in total
                       for entry in row), pi
            unpaired = [[entry // factorial(k) for entry in row]
                        for row in total]
            assert dense_table(pi.parts) == unpaired, pi


def test_joint_table_refuses_a_sum_with_a_remainder(monkeypatch):
    # weight f = 2 on the self-conjugate (2, 1) alone, which the pairing
    # keeps, leaves 2 (x^3 - x)(y^3 - y), entries of +-2 on the spans
    # that 3! does not divide
    monkeypatch.setattr("rectchar.stanley._column",
                        lambda k, parts: {_beta_set((2, 1), 3): 1})
    with pytest.raises(ArithmeticError, match="not divisible"):
        _joint_cycle_table.__wrapped__((3,))


def test_joint_table_with_no_shape_kept_is_refused(monkeypatch):
    # the larger mask of the pair (3), (1, 1, 1) alone: the sum has no
    # term, and its entries, all 0, do not add up to 3!
    larger = max(_beta_set((3,), 3), _beta_set((1, 1, 1), 3))
    monkeypatch.setattr("rectchar.stanley._column",
                        lambda k, parts: {larger: 1})
    with pytest.raises(ArithmeticError, match="outside the spans"):
        _joint_cycle_table.__wrapped__((3,))


def test_spans_hold_every_nonzero_entry():
    # the parity and triangle bounds of _spans, against the brute force
    for k in range(8):
        for pi in partitions(k):
            table = factorization_table(cycle_type_representative(pi.parts))
            admitted = {(c1, c2) for c1, first, last in _spans(k, pi.length)
                        for c2 in range(first, last + 1, 2)}
            nonzero = {(c1, c2) for c1, row in enumerate(table)
                       for c2, count in enumerate(row) if count}
            assert nonzero <= admitted, pi


def test_joint_table_refuses_entries_outside_the_spans(monkeypatch):
    # with spans that leave out a nonzero entry, the entries kept sum to
    # less than k!
    monkeypatch.setattr("rectchar.stanley._spans",
                        lambda k, length: ((1, 1, 1),))
    with pytest.raises(ArithmeticError, match="outside the spans"):
        _joint_cycle_table.__wrapped__((3,))


def test_joint_table_trivial_sizes():
    assert dense_table(()) == [[1]]
    assert dense_table((1,)) == [[0, 0], [0, 1]]
    assert _joint_cycle_table((1,)) == ((1, (1,)),)


def test_joint_table_total_and_marginals_are_stirling():
    for k in range(1, 13):
        table = dense_table((k,))
        assert sum(map(sum, table)) == factorial(k)
        stirling = stirling_first_unsigned(k)
        row_marginal = [sum(row) for row in table]
        assert row_marginal == stirling
        col_marginal = [sum(row[c2] for row in table) for c2 in range(k + 1)]
        assert col_marginal == row_marginal


def test_joint_table_symmetry():
    # the premise of the table's one triangle: s1 s2 = w has as many
    # factorizations with (c1, c2) cycles as with (c2, c1)
    for pi in _cycle_types(7):
        table = factorization_table(cycle_type_representative(pi.parts))
        assert all(table[a][b] == table[b][a]
                   for a in range(len(table)) for b in range(len(table))), pi


def test_joint_table_mirror_holds_past_the_pin():
    # the entries with c2 < c1 are read from rows already built; past the
    # SHA-256 pin, the dense table must still equal its transpose
    for k in (15, 16):
        for pi in partitions(k):
            table = dense_table(pi.parts)
            assert table == [list(col) for col in zip(*table)], pi


def test_fixed_points_multiply_the_table():
    # T_{pi u 1^m}(x, y) = T_pi(x, y) prod_{i<m} (x y + |pi| + i), with T the
    # generating polynomial sum of count x^c1 y^c2 of the dense table
    for tau in _cycle_types(12):
        units = tau.parts.count(1)
        for m in range(1, units + 1):
            parts = tau.parts[:len(tau.parts) - m]
            want = dense_table(parts)
            for i in range(m):
                shift = sum(parts) + i
                grown = [[shift * entry for entry in row] + [0]
                         for row in want] + [[0] * (len(want) + 1)]
                for a, row in enumerate(want):
                    for b, entry in enumerate(row):
                        grown[a + 1][b + 1] += entry
                want = grown
            assert dense_table(tau.parts) == want, (tau, m)


def test_fixed_points_multiply_the_value():
    # the same identity at the sides: x = -q, y = p and the k sign flips
    # turn each factor x y + |pi| + i into p q - |pi| - i; the left side is
    # the content sum of the whole type, which stanley_eval does not build
    points = ((2, 3), (5, 5), (-1, 4), (Fraction(1, 2), 3),
              (Fraction(-7, 3), Fraction(5, 4)))
    for pi in _cycle_types(9):
        size = pi.size
        for m in range(1, 13 - size):
            grown = pi.parts + (1,) * m
            for p, q in points:
                factor = 1
                for i in range(m):
                    factor *= p * q - size - i
                assert (table_poly(grown).evaluate(p, q)
                        == stanley_eval(pi, p, q) * factor), (pi, m, p, q)


def test_poly_equals_the_unreduced_table():
    # the core's polynomial with its fixed points multiplied in, against
    # the whole type's own table, up to size 12 and at the type cap
    at_cap = (Partition((2,) + (1,) * 22), Partition((3, 2) + (1,) * 19),
              Partition((4,) + (1,) * 20))
    for tau in (*_cycle_types(12), *at_cap):
        assert stanley_poly(tau) == table_poly(tau.parts), tau


def test_poly_with_many_fixed_points_is_cheap():
    # 200 fixed points multiply the core's few terms by one polynomial in
    # PQ, with no table of the whole type
    pi = (3, 2) + (1,) * 200
    start = perf_counter()
    poly = stanley_poly(pi)
    assert perf_counter() - start < 1.0
    for p, q in ((3, 70), (-2, 5), (Fraction(1, 3), Fraction(-5, 2))):
        assert poly.evaluate(p, q) == stanley_eval(pi, p, q), (p, q)


def test_identity_class_is_the_falling_factorial_of_pq():
    # 1^n has an empty core: its value is pq (pq - 1) ... (pq - n + 1), an
    # int at int sides, and no table is built for it
    _joint_cycle_table.cache_clear()
    points = ((3, 4), (1, 5), (0, 7), (2, 0), (-3, 4), (-2, -5),
              (Fraction(1, 2), 3), (Fraction(-7, 3), Fraction(5, 4)))
    for n in range(1, 13):
        parts = (1,) * n
        for p, q in points:
            want = 1
            for i in range(n):
                want *= p * q - i
            value = stanley_eval(parts, p, q)
            assert value == want, (n, p, q)
            int_sides = type(p) is int and type(q) is int
            assert type(value) is (int if int_sides else Fraction), (n, p, q)
        assert stanley_poly(parts).evaluate(3, 4) == stanley_eval(parts, 3, 4)
    assert _joint_cycle_table.cache_info().currsize == 0


def test_joint_table_identity_is_diagonal():
    for k in range(1, 10):
        table = dense_table((1,) * k)
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
    # the empty type has the oracle's value 1 at int and Fraction sides
    empty = Partition(())
    want = normalized_character(empty, rectangle(2, 2))
    assert want == 1
    assert stanley_eval(empty, 2, 2) == want
    assert type(stanley_eval(empty, 2, 2)) is int
    assert stanley_eval(empty, Fraction(1, 3), Fraction(-5, 2)) == want
    assert type(stanley_eval(empty, Fraction(1, 3), 2)) is Fraction
    assert stanley_poly(empty) == BiPoly.constant(want)


def test_stanley_eval_refuses_inexact_sides():
    # a float side would leak its binary expansion into an exact value
    assert stanley_eval(Partition((1,)), Fraction(1, 10), 1) == Fraction(1, 10)
    assert stanley_eval(Partition((2,)), 2, Fraction(3)) == 6
    for p, q in ((0.1, 1), (1, 0.5), (2.0, 3.0), ("2", 3), (2, None),
                 (True, 3), (2, False)):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            stanley_eval(Partition((1,)), p, q)


def test_a_refused_side_builds_no_table():
    # the sides are checked before the type's plan and its joint cycle
    # table are built and cached; both caches start cold, so the test does
    # not lean on a plan an earlier test left behind
    _plan.cache_clear()
    _joint_cycle_table.cache_clear()
    for p, q in ((0.5, 1), (1, 0.5), (True, 1)):
        with pytest.raises(TypeError):
            stanley_eval((2,) * 8, p, q)
    assert _joint_cycle_table.cache_info().currsize == 0
    assert _plan.cache_info().currsize == 0


def test_a_cycle_type_is_planned_once():
    # a list, a tuple and a Partition of one type read one plan, which
    # holds the core's cached table itself, not a copy
    _plan.cache_clear()
    for parts in ((3, 2, 1, 1), (4, 2), (1, 1, 1)):
        values = {stanley_eval(pi, 3, 5) for pi in (
            list(parts), parts, Partition(parts))}
        polys = {stanley_poly(pi) for pi in (
            list(parts), parts, Partition(parts))}
        assert values == {normalized_character(parts, rectangle(3, 5))}
        assert len(polys) == 1
    assert _plan.cache_info().currsize == 3
    k, m, table = _plan((3, 2, 1, 1))
    assert (k, m) == (5, 2) and table is _joint_cycle_table((3, 2))
    assert _plan((1, 1, 1)) == (0, 3, ())
    # a long run keeps the plans of its last 128 types only
    for size in range(1, 12):
        for pi in partitions(size):
            stanley_eval(pi, 2, 3)
    assert _plan.cache_info().currsize == 128


def test_int_subclass_sides_give_an_int_from_a_cold_plan():
    Side = IntEnum("Side", {"TWO": 2, "FIVE": 5})
    for parts in ((3, 2, 1), (1, 1), (4,)):
        _plan.cache_clear()
        value = stanley_eval(parts, Side.TWO, Side.FIVE)
        assert type(value) is int
        assert value == stanley_eval(parts, 2, 5)


def test_raw_cycle_types_are_still_validated():
    # a Partition is read as it is; anything else goes through the checked
    # constructor, with its errors
    assert stanley_eval((2, 2), 2, 2) == 24
    assert stanley_eval([3], 2, 2) == -12
    assert str(stanley_poly([2])) == str(stanley_poly(Partition((2,))))
    # the empty type is valid, with the oracle's value
    empty = normalized_character((), rectangle(2, 2))
    assert stanley_eval((), 2, 2) == empty
    assert stanley_poly([]) == BiPoly.constant(empty)
    for fn in (lambda pi: stanley_eval(pi, 2, 2), stanley_poly):
        with pytest.raises(ValueError, match="weakly decreasing"):
            fn((2, 3))
        with pytest.raises(ValueError, match="positive"):
            fn((2, 0))
        with pytest.raises(TypeError, match="must be an int"):
            fn((2.7, 1))


def test_stanley_eval_accepts_exact_non_integers():
    value = stanley_eval(Partition((2,)), Fraction(1, 2), 3)
    poly = stanley_poly(Partition((2,)))
    assert value == poly.evaluate(Fraction(1, 2), 3)


def test_stanley_eval_is_an_int_exactly_at_int_sides():
    # an int subclass other than bool is an int side
    Side = IntEnum("Side", {"THREE": 3, "FOUR": 4})
    for pi in _cycle_types(6):
        at_ints = stanley_eval(pi, 3, 4)
        assert type(at_ints) is int
        at_enums = stanley_eval(pi, Side.THREE, Side.FOUR)
        assert type(at_enums) is int and at_enums == at_ints, pi
        for p, q in ((Fraction(3, 1), 4), (3, Fraction(4, 1)),
                     (Fraction(3), Fraction(4))):
            value = stanley_eval(pi, p, q)
            assert type(value) is Fraction
            assert value == at_ints, pi


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


_POINTS = ((1, 1), (2, 3), (5, 4), (0, 7), (-1, 3), (4, -6), (-3, -2),
           (Fraction(1, 2), 3), (-2, Fraction(7, 3)),
           (Fraction(-7, 3), Fraction(5, 4)),
           (Fraction(999, 8), Fraction(-4, 9)))


def test_packed_eval_matches_the_polynomial_up_to_size_nine():
    for pi in _cycle_types(9):
        poly = stanley_poly(pi)
        for p, q in _POINTS:
            assert stanley_eval(pi, p, q) == poly.evaluate(p, q), (pi, p, q)


_small_types = st.integers(min_value=1, max_value=9).flatmap(
    lambda k: st.sampled_from([lam.parts for lam in partitions(k)]))
_rationals = st.fractions(max_denominator=40).filter(
    lambda x: abs(x.numerator) <= 10**6)


@given(_small_types, _rationals, _rationals)
@settings(max_examples=150, deadline=None)
def test_packed_eval_matches_the_polynomial_at_random_rationals(pi, p, q):
    assert stanley_eval(pi, p, q) == stanley_poly(pi).evaluate(p, q)


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
    # the content sum of 1^16 itself, which the evaluators no longer build
    parts = (1,) * 16
    started = perf_counter()
    _joint_cycle_table.__wrapped__(parts)
    assert perf_counter() - started < 1.0
    assert (table_poly(parts).evaluate(4, 4)
            == normalized_character(Partition(parts), rectangle(4, 4)))


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
            assert all(i % 2 for i, _ in depoly.terms()), pi


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
    with pytest.raises(ValueError):
        decompose_even_basis(DEPoly({(1, 0): 1}), 2)
    with pytest.raises(ValueError):
        decompose_even_basis(DEPoly({(6, 0): 1}), 2)
    with pytest.raises(ValueError):
        decompose_even_basis(DEPoly.zero(), 0)


def test_ed_helpers_refuse_the_wrong_ring():
    # a polynomial of another ring would be read in the wrong variables
    for poly in (DEPoly({(1, 1): 1}), JNPoly({(1, 1): 1}), {(1, 1): 1}, 2):
        with pytest.raises(TypeError, match="^poly must be a BiPoly, got "):
            substitute_ed(poly)
    for poly in (BiPoly({(0, 2): 1}), JNPoly({(0, 2): 1}), {(0, 2): 1}, 2):
        with pytest.raises(TypeError, match="^poly must be a DEPoly, got "):
            decompose_even_basis(poly, 1)
    # the type before the value of j
    with pytest.raises(TypeError):
        decompose_even_basis(BiPoly.zero(), 0)


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
        assert not entry or entry.d_degree() == 0
        basis = DEPoly.constant(1)
        for r in range(k):
            basis = basis * (d2 - r * r)
        rebuilt = rebuilt + entry * basis
    assert rebuilt == poly


# group ring identity ---------------------------------------------------------

def test_jm_factorization():
    for k in range(1, 8):
        assert jm_factorization_check(k), k
    with pytest.raises(ValueError):
        jm_factorization_check(0)


def test_jm_factorization_agrees_with_the_image_tuple_product():
    for k in range(1, 7):
        product = jm_product(k)
        assert product.keys() == set(permutations(range(k))), k
        assert set(product.values()) == {1}, k
        assert jm_factorization_check(k), k


def test_jm_factorization_past_the_verify_cap_stays_cheap():
    started = perf_counter()
    assert jm_factorization_check(8)
    assert perf_counter() - started < 1.0


def test_jm_factorization_refuses_large_k_before_it_builds():
    # k! words: 0.5 GB at k = 10; at 257 bytes(range(k)) would fail on its
    # own terms
    for k in (10, 257):
        started = perf_counter()
        with pytest.raises(ValueError, match="above the cap of 9"):
            jm_factorization_check(k)
        assert perf_counter() - started < 0.1
