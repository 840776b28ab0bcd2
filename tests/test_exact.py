"""Tests for the exactness rule and the Catalan numbers."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rectchar
from rectchar import (
    BiPoly,
    DEPoly,
    Partition,
    ch_rect_fast,
    closed_char_ed,
    coeff_f,
    corollary_poly,
    decompose_even_basis,
    integrality_witness,
    jm_factorization_check,
    leading_square_coeff,
    minus_one_col_char,
    minus_one_row_char,
    normalized_character,
    partitions,
    rectangle,
    stanley_eval,
    stanley_poly,
)
from rectchar.exact import catalan, integer, rational


def test_catalan_values():
    assert [catalan(m) for m in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430]
    with pytest.raises(ValueError):
        catalan(-1)


@given(st.integers(min_value=1, max_value=40))
def test_catalan_recurrence(m):
    assert (m + 1) * catalan(m) == 2 * (2 * m - 1) * catalan(m - 1)


def test_rule_returns_what_it_accepts():
    assert integer("k", 7) == 7
    assert integer("k", -3) == -3
    assert rational("p", 7) == 7
    assert rational("p", Fraction(-1, 3)) == Fraction(-1, 3)
    for check in (integer, rational):
        for value in (0.5, 2.0, True, False, "2", None, 1j):
            with pytest.raises(TypeError, match="^side must be an int"):
                check("side", value)
    with pytest.raises(TypeError, match="^k must be an int, got Fraction$"):
        integer("k", Fraction(2))


def _corollary_after_a_cached_one(x):
    # a call at 1 first: were corollary_poly memoized, its entry for 1 must
    # not answer a call at True
    corollary_poly(1, "odd")
    return corollary_poly(x, "odd")


_EVEN = DEPoly({(0, 2): 1, (2, 0): -1})
_SQUARE = stanley_poly((2,))  # P Q^2 - P^2 Q

# (entry point and argument, call with the argument x, a valid int for x,
# whether a Fraction is valid there too); every other argument is valid
RULE = [
    ("Partition part", lambda x: Partition((3, x)), 2, False),
    ("rectangle p", lambda x: rectangle(x, 3), 2, False),
    ("rectangle q", lambda x: rectangle(3, x), 2, False),
    ("partitions n", lambda x: list(partitions(x)), 4, False),
    ("normalized_character cycle part",
     lambda x: normalized_character((x,), (2, 2)), 3, False),
    ("normalized_character shape part",
     lambda x: normalized_character((3, 1), (x, 2)), 2, False),
    ("normalized_character second cycle part",
     lambda x: normalized_character((3, x), (2, 2)), 1, False),
    ("normalized_character second shape part",
     lambda x: normalized_character((3, 1), (2, x)), 2, False),
    # criterion 4's one-cycle call: both arguments already Partitions
    ("normalized_character one-cycle k",
     lambda x: normalized_character(Partition((x,)), rectangle(2, 2)),
     2, False),
    ("stanley_eval cycle part", lambda x: stanley_eval((x,), 2, 3), 2, False),
    ("stanley_eval p", lambda x: stanley_eval((2,), x, 3), 2, True),
    ("stanley_eval q", lambda x: stanley_eval((2,), 2, x), 3, True),
    ("stanley_poly cycle part", lambda x: stanley_poly((x,)), 2, False),
    ("leading_square_coeff j", lambda x: leading_square_coeff(x), 2, False),
    ("decompose_even_basis j", lambda x: decompose_even_basis(_EVEN, x),
     1, False),
    ("jm_factorization_check k", lambda x: jm_factorization_check(x),
     3, False),
    ("ch_rect_fast k", lambda x: ch_rect_fast(x, 2, 3), 3, False),
    ("ch_rect_fast p", lambda x: ch_rect_fast(3, x, 3), 2, False),
    ("ch_rect_fast q", lambda x: ch_rect_fast(3, 2, x), 3, False),
    ("closed_char_ed k",
     lambda x: closed_char_ed(x, Fraction(5, 2), Fraction(1, 2), "odd"),
     2, False),
    ("closed_char_ed e", lambda x: closed_char_ed(3, x, 0), 2, True),
    ("closed_char_ed d", lambda x: closed_char_ed(3, 2, x), 1, True),
    ("corollary_poly two_d", _corollary_after_a_cached_one, 1, False),
    ("coeff_f j", lambda x: coeff_f(x, 1), 2, False),
    ("coeff_f k", lambda x: coeff_f(2, x), 1, False),
    ("minus_one_row_char k", lambda x: minus_one_row_char(x, 4), 3, False),
    ("minus_one_row_char side", lambda x: minus_one_row_char(3, x), 4, True),
    ("minus_one_col_char k", lambda x: minus_one_col_char(x, 4), 2, False),
    ("minus_one_col_char side", lambda x: minus_one_col_char(2, x), 4, True),
    ("integrality_witness d", lambda x: integrality_witness(x, 3), 5, False),
    ("integrality_witness k", lambda x: integrality_witness(5, x), 3, False),
    ("catalan m", lambda x: catalan(x), 4, False),
    ("BiPoly P exponent", lambda x: BiPoly({(x, 0): 1}), 2, False),
    ("BiPoly Q exponent", lambda x: BiPoly([((0, x), 1)]), 2, False),
    ("BiPoly coefficient", lambda x: BiPoly({(1, 0): x}), 2, True),
    ("DEPoly coefficient", lambda x: DEPoly({(1, 0): x}), 2, True),
    ("constant", lambda x: DEPoly.constant(x), 2, True),
    ("evaluate x", lambda x: _SQUARE.evaluate(x, 3), 2, True),
    ("evaluate y", lambda x: _SQUARE.evaluate(2, x), 3, True),
    ("substitute_p", lambda x: _SQUARE.substitute_p(x), 2, True),
    ("substitute_q", lambda x: _SQUARE.substitute_q(x), 2, True),
    ("poly times scalar", lambda x: _SQUARE * x, 2, True),
    ("scalar times poly", lambda x: x * _SQUARE, 2, True),
    ("poly plus scalar", lambda x: _SQUARE + x, 2, True),
    ("poly minus scalar", lambda x: _SQUARE - x, 2, True),
]


@pytest.mark.parametrize("call, valid, takes_fraction",
                         [entry[1:] for entry in RULE],
                         ids=[entry[0] for entry in RULE])
def test_every_entry_point_follows_the_rule(call, valid, takes_fraction):
    value = call(valid)
    for bad in (0.5, 2.0, float(valid), True, "2"):
        with pytest.raises(TypeError):
            call(bad)
    if takes_fraction:
        assert call(Fraction(valid)) == value
        call(Fraction(valid, 2))
    else:
        with pytest.raises(TypeError):
            call(Fraction(valid))


@pytest.mark.parametrize("call", [
    lambda: ch_rect_fast(0, 2.0, 2),
    lambda: ch_rect_fast(2, 0, 2.0),
    lambda: rectangle(-1, 2.0),
    lambda: list(partitions(-2.0)),
    lambda: closed_char_ed(0, 2.0, 0),
    lambda: coeff_f(-1, 2.0),
    lambda: minus_one_row_char(0, 2.0),
    lambda: integrality_witness(2.0, -1),
    lambda: Partition((0, 2.0)),
    lambda: normalized_character((3,), (0, 2.0)),
], ids=["ch_rect_fast p", "ch_rect_fast q", "rectangle", "partitions",
        "closed_char_ed", "coeff_f", "minus_one_row_char",
        "integrality_witness", "Partition", "normalized_character"])
def test_types_are_checked_before_values(call):
    # an argument out of range beside a float: the float is reported
    with pytest.raises(TypeError):
        call()


def test_the_cases_that_leaked_inexact_values():
    with pytest.raises(TypeError):
        minus_one_row_char(3, 0.1)
    with pytest.raises(TypeError):
        stanley_eval((2,), True, 3)
    with pytest.raises(TypeError):
        integrality_witness(Fraction(5, 2), 3)
    with pytest.raises(TypeError):
        _corollary_after_a_cached_one(True)
    # the polynomial types took these as they were
    with pytest.raises(TypeError):
        BiPoly({(1, 0): 0.5})
    with pytest.raises(TypeError):
        BiPoly({("2", 0): 1})
    with pytest.raises(TypeError):
        BiPoly({(1.0, 0): 1})
    with pytest.raises(TypeError):
        stanley_poly((2,)).evaluate(0.5, 3)
    with pytest.raises(TypeError):
        stanley_poly((2,)).substitute_p(0.5)
    with pytest.raises(TypeError):
        stanley_poly((2,)) * True


def _inexact(node):
    # what a syntax node does that could bring a float into a value
    if isinstance(node, ast.Constant) and type(node.value) in (float,
                                                               complex):
        return f"literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op,
                                                                   ast.Div):
        return "true division"
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex", "round")):
        return f"call to {node.func.id}"
    return None


def test_no_floats_in_the_source():
    found = []
    for path in sorted(Path(rectchar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            why = _inexact(node)
            if why:
                found.append(f"{path.name}:{node.lineno}: {why}")
    assert found == []


@pytest.mark.parametrize("source", [
    "x = 0.5", "x = 2j", "x = a / b", "x /= 2", "x = float(a)",
    "x = complex(a)", "x = round(a)"])
def test_no_floats_check_sees_each_kind(source):
    assert any(_inexact(node) for node in ast.walk(ast.parse(source)))


def _imported_modules(tree):
    # the top-level names of the modules a syntax tree imports
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_only_exact_imports_fractions():
    # exact owns the Fraction type: every other module asks it whether a
    # value is a Fraction and has it build one
    importers = [path.name
                 for path in sorted(Path(rectchar.__file__).parent.glob("*.py"))
                 if "fractions" in _imported_modules(ast.parse(path.read_text()))]
    assert importers == ["exact.py"]


@pytest.mark.parametrize("source, imports", [
    ("import fractions", True), ("from fractions import Fraction", True),
    ("import fractions as f", True), ("import decimal", False),
    ("from .exact import fraction", False)])
def test_import_check_sees_each_form(source, imports):
    assert ("fractions" in _imported_modules(ast.parse(source))) is imports


# Run in a fresh interpreter, since pytest and hypothesis load fractions.
_FRESH_PROCESS = """
import contextlib, io, sys

def loaded(*names):
    return sorted(set(names) & set(sys.modules))

RATIONAL = ("fractions", "decimal", "numbers")
import rectchar
assert not loaded(*RATIONAL), ("import rectchar", loaded(*RATIONAL))
from rectchar.cli import main
assert not loaded(*RATIONAL, "json", "csv"), (
    "import rectchar.cli", loaded(*RATIONAL, "json", "csv"))
with contextlib.redirect_stdout(io.StringIO()):
    for method in ("closed", "oracle", "stanley"):
        argv = ["eval", "--method", method, "--cycle", "3", "--p", "4",
                "--q", "5"]
        assert main(argv) == 0, argv
        assert not loaded(*RATIONAL), (argv, loaded(*RATIONAL))
    for argv in (["poly", "--kind", "stanley", "--cycle", "3,2,1"],
                 ["poly", "--kind", "G", "--two-d", "4"]):
        assert main(argv) == 0, argv
        assert not loaded(*RATIONAL), (argv, loaded(*RATIONAL))

from rectchar.exact import rational
for value, kind in ((0.5, "float"), (True, "bool"), ("2", "str")):
    try:
        rational("p", value)
    except TypeError as exc:
        assert str(exc) == f"p must be an int or a Fraction, got {kind}", exc
    else:
        raise AssertionError(f"rational accepted {value!r}")
assert not loaded(*RATIONAL), ("rational", loaded(*RATIONAL))

import fractions
half = fractions.Fraction(1, 2)
assert rational("p", half) is half
results = [rectchar.closed_char_ed(3, fractions.Fraction(5, 2), half),
           rectchar.coeff_f(2, 1),
           rectchar.integrality_witness(5, 3),
           rectchar.stanley_eval((2, 1), half, 3)]
assert all(type(x) is fractions.Fraction for x in results), results
assert results == [fractions.Fraction(-24), fractions.Fraction(-6),
                   fractions.Fraction(35), fractions.Fraction(-15, 8)], results
"""


def test_fractions_load_only_for_a_rational_value():
    src = str(Path(rectchar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
