"""Acceptance suite: the full identity checklist at desk scale.

Every check is exact equality between independently computed integers or
polynomial coefficient maps.  There are no tolerances anywhere.  Each test
covers one numbered criterion and prints a single PASS line with its
runtime when it finishes; run with -v (or -s) for the per-criterion
report.
"""

import time
from fractions import Fraction
from itertools import chain

from polyfixtures import CYCLE_PARITY, EXPECTED
from rectchar.cli import main
from rectchar.closed import (
    ch_rect_fast,
    closed_char_ed,
    coeff_f,
    corollary_poly,
    integrality_witness,
)
from rectchar.exact import catalan
from rectchar.mn import normalized_character
from rectchar.stanley import (
    decompose_even_basis,
    jm_factorization_check,
    leading_square_coeff,
    stanley_eval,
    stanley_poly,
    substitute_ed,
)
from rectchar.young import Partition, partitions, rectangle
from rectchar._poly import DEPoly


def _report(number: int, label: str, started: float) -> float:
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {label} ({elapsed:.2f} s)")
    return elapsed


def _all_cycle_types(size_max: int):
    return chain.from_iterable(partitions(s) for s in range(1, size_max + 1))


def test_criterion_01_stanley_matches_oracle():
    started = time.perf_counter()
    for pi in _all_cycle_types(7):
        for p in range(1, 7):
            for q in range(1, 7):
                want = normalized_character(pi, rectangle(p, q))
                assert stanley_eval(pi, p, q) == want, (pi, p, q)
    elapsed = _report(1, "stanley agrees with the oracle, |pi| <= 7", started)
    assert elapsed < 60.0


def test_criterion_02_closed_form_matches_oracle():
    started = time.perf_counter()
    for k in range(1, 9):
        for p in range(1, 9):
            for q in range(1, 9):
                want = normalized_character(Partition((k,)), rectangle(p, q))
                assert ch_rect_fast(k, p, q) == want, (k, p, q)
    elapsed = _report(2, "closed form agrees with the oracle, k <= 8", started)
    assert elapsed < 60.0


def test_criterion_03_family_fixture_polynomials():
    started = time.perf_counter()
    assert len(EXPECTED) == 13
    for (kind, two_d), expected in EXPECTED.items():
        parity = CYCLE_PARITY[kind]
        assert corollary_poly(two_d, parity) == expected, (kind, two_d)
        mirror = expected if kind in ("G", "H") else -expected
        assert corollary_poly(-two_d, parity) == mirror, (kind, -two_d)
    _report(3, "all printed family polynomials, coefficient-exact", started)


def test_criterion_04_vanishing_on_the_almost_square():
    started = time.perf_counter()
    for j in range(2, 7):
        k, p, q = 2 * j - 1, 2 * j - 2, 2 * j + 1
        assert ch_rect_fast(k, p, q) == 0, j
        assert normalized_character(Partition((k,)), rectangle(p, q)) == 0, j
        e, d = Fraction(p + q, 2), Fraction(q - p, 2)
        assert closed_char_ed(k, e, d, "odd") == 0, j
        assert closed_char_ed(k, e, d, "even") == 0, j
        if k <= 9:
            assert stanley_eval(Partition((k,)), p, q) == 0, j
    elapsed = _report(4, "vanishing at (2j-2) x (2j+1), j in 2..6", started)
    assert elapsed < 5.0


def test_criterion_05_integrality():
    started = time.perf_counter()
    for two_d in range(-12, 13):
        for parity in ("odd", "even"):
            poly = corollary_poly(two_d, parity)
            assert all(isinstance(c, int) for c in poly.terms().values()), (
                two_d, parity)
    for d in range(-20, 21):
        for k in range(1, 13):
            assert integrality_witness(d, k).denominator == 1, (d, k)
    _report(5, "integer family coefficients and witness values", started)


def test_criterion_06_degree_and_transpose():
    started = time.perf_counter()
    for k in range(1, 9):
        assert stanley_poly(Partition((k,))).total_degree() == k + 1, k
    for pi in _all_cycle_types(8):
        poly = stanley_poly(pi)
        sign = -1 if (pi.size - pi.length) % 2 else 1
        assert poly.swap() == sign * poly, pi
    _report(6, "degree k+1 and the transpose sign identity", started)


def test_criterion_07_leading_catalan_coefficient():
    started = time.perf_counter()
    for j in range(1, 5):
        want = (-1 if j % 2 == 0 else 1) * catalan(j - 1)
        assert leading_square_coeff(j) == want, j
    elapsed = _report(7, "leading coefficient is the signed catalan", started)
    assert elapsed < 30.0


def _signed_rising_coeffs(k: int, sign: int) -> dict:
    # coefficients of sign * x (x + 1) ... (x + k - 1), zeros dropped
    coeffs = {0: sign}
    for i in range(k):
        nxt = {}
        for e, c in coeffs.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + c
            nxt[e] = nxt.get(e, 0) + c * i
        coeffs = nxt
    return {e: c for e, c in coeffs.items() if c != 0}


def test_criterion_08_minus_one_specialization():
    started = time.perf_counter()
    for k in range(1, 9):
        poly = stanley_poly(Partition((k,)))
        assert poly.substitute_p(-1) == _signed_rising_coeffs(k, -1), k
        col_sign = -1 if k % 2 else 1
        assert poly.substitute_q(-1) == _signed_rising_coeffs(k, col_sign), k
    _report(8, "row -1 specialization is the signed rising product", started)


def test_criterion_09_jm_factorization():
    started = time.perf_counter()
    for k in range(1, 7):
        assert jm_factorization_check(k), k
    elapsed = _report(9, "jucys-murphy factorization, k <= 6", started)
    assert elapsed < 10.0


def test_criterion_10_even_basis_structure():
    started = time.perf_counter()
    for j in range(1, 4):
        poly = substitute_ed(stanley_poly(Partition((2 * j - 1,))))
        entries = decompose_even_basis(poly, j)
        lead = (-1 if j % 2 == 0 else 1) * catalan(j - 1)
        for k, entry in enumerate(entries):
            c_k = poly.coefficient(2 * k, 2 * (j - k))
            assert Fraction(c_k) == lead * coeff_f(j, k), (j, k)
            expected = DEPoly.constant(c_k)
            for r in range(k, j):
                expected = expected * (DEPoly({(0, 2): 1}) - r * r)
            assert entry == expected, (j, k)
    _report(10, "even-square basis rows are scaled falling squares", started)


def test_criterion_11_closed_form_speed_past_the_oracle_cap(capsys):
    p, q = 10**6 + 1, 10**6 + 3
    started = time.perf_counter()
    value = ch_rect_fast(99, p, q)
    elapsed = time.perf_counter() - started
    assert isinstance(value, int)
    assert elapsed < 1.0

    code = main(["eval", "--method", "oracle", "--cycle", "99",
                 "--p", str(p), "--q", str(q)])
    captured = capsys.readouterr()
    assert code == 2
    assert "capped" in captured.err

    code = main(["bench", "--k", "99", "--p", str(p), "--q", str(q)])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("closed,99,")
    assert lines[1].endswith("," + str(value))
    print(f"PASS criterion 11: closed form beats the oracle cap "
          f"({elapsed:.4f} s for the big evaluation)")
