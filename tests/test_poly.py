"""Tests for the sparse exact polynomials of rectchar._poly."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rectchar._poly import BiPoly, DEPoly, JNPoly

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
points = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-2, max_value=2, max_denominator=3))


def polys(ring):
    return st.dictionaries(exponents, coefficients, max_size=5).map(ring)


rings = st.sampled_from((BiPoly, DEPoly, JNPoly))


def _no_stored_zero(poly):
    return all(c != 0 for c in poly.terms().values())


@given(st.data())
def test_ring_laws(data):
    ring = data.draw(rings)
    a, b, c = (data.draw(polys(ring)) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero() == a
    assert a * ring.constant(1) == a
    assert a - a == ring.zero()
    assert not a * 0


@given(st.data())
def test_no_stored_zero(data):
    ring = data.draw(rings)
    a, b = data.draw(polys(ring)), data.draw(polys(ring))
    scalar = data.draw(coefficients)
    for poly in (a, a + b, a - b, a * b, -a, a * scalar, scalar + a,
                 a + (-a)):
        assert _no_stored_zero(poly)
    p = data.draw(polys(BiPoly))
    assert _no_stored_zero(p.swap())
    value = data.draw(points)
    assert all(c != 0 for c in p.substitute_p(value).values())
    assert all(c != 0 for c in p.substitute_q(value).values())


@given(st.data())
def test_evaluate_is_a_ring_map(data):
    ring = data.draw(rings)
    a, b = data.draw(polys(ring)), data.draw(polys(ring))
    x, y = data.draw(points), data.draw(points)
    assert (a + b).evaluate(x, y) == a.evaluate(x, y) + b.evaluate(x, y)
    assert (a - b).evaluate(x, y) == a.evaluate(x, y) - b.evaluate(x, y)
    assert (a * b).evaluate(x, y) == a.evaluate(x, y) * b.evaluate(x, y)


@given(polys(BiPoly), points, points)
def test_substitutions(p, value, other):
    assert p.substitute_q(value) == p.swap().substitute_p(value)
    assert p.swap().evaluate(value, other) == p.evaluate(other, value)
    in_q = p.substitute_p(value)
    assert sum(c * other ** j for j, c in in_q.items()) == p.evaluate(value,
                                                                      other)
    in_p = p.substitute_q(value)
    assert sum(c * other ** i for i, c in in_p.items()) == p.evaluate(other,
                                                                      value)


def test_terms_are_collected_on_construction():
    p = BiPoly([((1, 0), 2), ((1, 0), -2), ((0, 1), Fraction(1, 2))])
    assert p.terms() == {(0, 1): Fraction(1, 2)}
    with pytest.raises(ValueError, match="non-negative"):
        BiPoly({(-1, 0): 1})


def test_mixing_two_rings_is_refused():
    b, d, j = BiPoly({(1, 0): 1}), DEPoly({(1, 0): 1}), JNPoly({(1, 0): 1})
    for left, right in ((b, d), (d, j), (j, b)):
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y):
            with pytest.raises(TypeError, match="cannot mix"):
                op(left, right)
    assert b != d


def test_printing():
    assert str(BiPoly({(2, 1): -1, (1, 2): 1})) == "-1*P^2*Q + 1*P*Q^2"
    assert str(DEPoly({(0, 2): 1, (2, 0): -1, (0, 0): Fraction(1, 4)})) == (
        "-1*D^2 + 1*E^2 + 1/4")
    assert str(JNPoly({(0, 1): 1, (2, 0): -2, (1, 0): 1, (0, 0): 1})) == (
        "N - 2*J^2 + J + 1")
    assert str(JNPoly({(1, 0): -1, (0, 0): 1})) == "-J + 1"
    assert str(BiPoly()) == "0"
    assert repr(DEPoly({(0, 2): Fraction(1, 4)})) == (
        "DEPoly({(0, 2): Fraction(1, 4)})")


def test_a_number_scales_each_coefficient():
    # an int or a Fraction scales term by term, with no convolution; the
    # ring is kept and 0 gives the zero polynomial
    terms = {(2, 1): -1, (1, 2): 1, (0, 0): Fraction(1, 3)}
    for ring in (BiPoly, DEPoly, JNPoly):
        p = ring(terms)
        for scalar in (3, -1, Fraction(1, 2), Fraction(-4, 3)):
            want = ring({key: c * scalar for key, c in terms.items()})
            for scaled in (scalar * p, p * scalar):
                assert type(scaled) is ring
                assert scaled == want == p * ring.constant(scalar)
        assert 3 * p == ring({(2, 1): -3, (1, 2): 3, (0, 0): 1})
        assert p * Fraction(1, 2) == ring(
            {(2, 1): Fraction(-1, 2), (1, 2): Fraction(1, 2),
             (0, 0): Fraction(1, 6)})
        for zero in (p * 0, 0 * p, p * Fraction(0)):
            assert zero == 0 and type(zero) is ring and not zero.terms()


def test_a_bool_is_not_a_scalar():
    p = BiPoly({(1, 0): 1})
    for flag in (True, False):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            p * flag
        with pytest.raises(TypeError, match="an int or a Fraction"):
            flag * p


def test_a_constant_hashes_like_the_number_it_equals():
    # equal objects hash alike, so a set or a dict key holds them once
    for ring in (BiPoly, DEPoly, JNPoly):
        for number in (3, -1, Fraction(1, 2), Fraction(4, 2), 0):
            poly = ring.constant(number)
            assert poly == number and hash(poly) == hash(number)
            assert len({poly, number}) == 1
        assert ring.zero() == 0 and hash(ring.zero()) == hash(0)
        assert len({ring.zero(), 0, Fraction(0)}) == 1


def test_a_polynomial_never_equals_a_bool():
    # a bool is not a number under the input rule, so 1 and 0 compare
    # equal and True and False do not
    for poly in (BiPoly.constant(1), BiPoly.zero(), JNPoly.constant(1)):
        for flag in (True, False):
            assert poly.__eq__(flag) is NotImplemented
            assert poly != flag and flag != poly
    assert BiPoly.constant(1) == 1 and BiPoly.zero() == 0
