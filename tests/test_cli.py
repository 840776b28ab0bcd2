"""End-to-end tests for the command line interface."""

import contextlib
import csv
import hashlib
import io
import json
import re
import shlex
import sys
import time
from argparse import Namespace
from fractions import Fraction

import pytest

from rectchar._poly import BiPoly, DEPoly, JNPoly
from rectchar.closed import ch_rect_fast
from rectchar.cli import (
    CLOSED_CAP,
    FAMILY_CAP,
    GRID_CAP,
    JM_CAP,
    ORACLE_WIDTH_CAP,
    TYPE_CAP,
    _COMMANDS,
    _ROUTES,
    _grid,
    build_parser,
    main,
)
from rectchar.mn import normalized_character
from rectchar.stanley import decompose_even_basis, stanley_eval
from rectchar.young import partitions, rectangle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_fields(out):
    fields = {}
    for line in out.splitlines():
        label, _, shown = line.partition(" ")
        fields[label] = shown.strip()
    return fields


def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 2
    assert "usage" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "eval" in out and "verify" in out


@pytest.mark.parametrize("argv", [
    (), ("bogus",), ("--help",), ("-h", "verify"),
    ("eval", "--help"), ("poly", "--help"), ("verify", "--help"),
    ("bench", "--help"),
    ("eval", "--bogus"), ("poly", "--bogus"), ("verify", "--bogus"),
    ("bench", "--bogus"),
    ("eval", "--method", "x"), ("poly", "--kind", "x"),
    ("verify", "--suite", "nope"), ("bench", "--k", "0"),
    ("verify", "extra"),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_what_the_parser_of_every_command_prints(capsys, argv):
    # main builds only the named command's parser; its help, usage and
    # errors, exit codes included, are those of the parser of them all
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = exc.value.code, *capsys.readouterr()
    assert run(capsys, *argv) == want


def test_main_builds_only_the_named_commands_parser(capsys, monkeypatch):
    def refuse(parser):
        raise AssertionError("built a parser that was not invoked")

    commands = {name: (text, refuse if name != "verify" else add_arguments)
                for name, (text, add_arguments) in _COMMANDS.items()}
    monkeypatch.setattr("rectchar.cli._COMMANDS", commands)
    code, out, _ = run(capsys, "verify", "--suite", "jm", "--k-max", "1")
    assert code == 0
    assert out == "PASS jm factorization k=1\nverify: 1 passed, 0 failed\n"


def test_eval_table_all_methods(capsys):
    for method in _ROUTES:
        code, out, err = run(capsys, "eval", "--method", method,
                             "--cycle", "3", "--p", "2", "--q", "2")
        assert code == 0 and err == ""
        fields = table_fields(out)
        assert fields["cycle"] == "[3]"
        assert fields["n"] == "4"
        assert fields["method"] == method
        assert fields["value"] == "-12"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--method", "stanley",
                       "--cycle", "3,2", "--p", "4", "--q", "5",
                       "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["inputs"] == {"cycle": [3, 2], "p": 4, "q": 5, "n": 20}
    assert record["method"] == "stanley"
    assert record["value"] == "-2880"
    assert isinstance(record["elapsed_ns"], int)


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--method", "closed",
                       "--cycle", "3", "--p", "2", "--q", "2",
                       "--format", "csv")
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert header == ["method", "cycle", "p", "q", "elapsed_ns", "value"]
    assert row[0] == "closed"
    assert row[1] == "3"
    assert row[2:4] == ["2", "2"]
    assert row[5] == "-12"


# ch_rect_fast(2999, 3000, 3001) has 11,328 digits, past the 4300 that
# Python 3.11 converts between int and str by default
BIG = ("--cycle", "2999", "--p", "3000", "--q", "3001")


def parse_past_the_digit_limit(text):
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return int(text)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return int(text)
    finally:
        set_limit(limit)


def test_eval_prints_values_past_4300_digits(capsys):
    want = ch_rect_fast(2999, 3000, 3001)
    assert abs(want) > 10 ** 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()

    code, out, err = run(capsys, "eval", "--method", "closed", *BIG)
    assert code == 0 and err == ""
    assert parse_past_the_digit_limit(table_fields(out)["value"]) == want

    code, out, _ = run(capsys, "eval", "--method", "closed", *BIG,
                       "--format", "json")
    assert code == 0
    assert parse_past_the_digit_limit(json.loads(out)["value"]) == want

    code, out, _ = run(capsys, "eval", "--method", "closed", *BIG,
                       "--format", "csv")
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert parse_past_the_digit_limit(row[5]) == want

    code, out, _ = run(capsys, "bench", "--k", "2999",
                       "--p", "3000", "--q", "3001")
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert parse_past_the_digit_limit(row[5]) == want
    # main puts the interpreter's limit back
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_eval_parses_sides_past_4300_digits(capsys):
    # a side is read with the limit lifted too, and every exit of main, a
    # usage error included, puts the interpreter's limit back
    p = 10 ** 5000
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    side = "1" + "0" * 5000
    code, out, err = run(capsys, "eval", "--method", "closed", "--cycle", "3",
                         "--p", side, "--q", side[:-1] + "2")
    assert code == 0 and err == ""
    fields = table_fields(out)
    assert parse_past_the_digit_limit(fields["p"]) == p
    assert parse_past_the_digit_limit(fields["value"]) == ch_rect_fast(
        3, p, p + 2)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    code, out, err = run(capsys, "eval", "--method", "closed", "--cycle", "3",
                         "--p", side)
    assert code == 2 and out == "" and "--q" in err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_eval_cap_violations(capsys):
    past = ",".join(["2"] * (TYPE_CAP // 2) + ["1"])
    for method in ("oracle", "stanley"):
        code, out, err = run(capsys, "eval", "--method", method,
                             "--cycle", past, "--p", "8", "--q", "8")
        assert code == 2 and out == ""
        assert (f"the {method} method is capped at cycle types of size "
                f"<= {TYPE_CAP}, got {TYPE_CAP + 1}") in err

    code, out, err = run(capsys, "eval", "--method", "oracle",
                         "--cycle", "3", "--p", "2",
                         "--q", str(ORACLE_WIDTH_CAP - 1))
    assert code == 2 and out == ""
    assert f"p + q <= {ORACLE_WIDTH_CAP}, got {ORACLE_WIDTH_CAP + 1}" in err

    code, _, err = run(capsys, "eval", "--method", "closed",
                       "--cycle", "2,1", "--p", "2", "--q", "2")
    assert code == 2 and "single cycle" in err


def test_closed_method_cap(capsys):
    for argv in (("eval", "--method", "closed", "--cycle", str(CLOSED_CAP + 1),
                  "--p", "2", "--q", "2"),
                 ("bench", "--k", f"3,{CLOSED_CAP + 1}")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"<= {CLOSED_CAP}" in err

    # at the cap, on a near-square rectangle, where the sum is short
    side = ("--p", str(CLOSED_CAP), "--q", str(CLOSED_CAP + 1))
    code, out, _ = run(capsys, "eval", "--method", "closed",
                       "--cycle", str(CLOSED_CAP), *side, "--format", "json")
    assert code == 0
    value = parse_past_the_digit_limit(json.loads(out)["value"])
    assert value == ch_rect_fast(CLOSED_CAP, CLOSED_CAP, CLOSED_CAP + 1)
    code, out, _ = run(capsys, "bench", "--k", f"3,{CLOSED_CAP}", *side)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [(row[0], row[1]) for row in rows[1:]] == [
        ("closed", "3"), ("oracle", "3"), ("stanley", "3"),
        ("closed", str(CLOSED_CAP))]


def test_oracle_method_caps(capsys):
    # at each cap the oracle answers; one past either, eval refuses and
    # bench leaves the oracle out.  2^12, a dearest type at the size cap,
    # is even, so the transposed rectangle has the same value.
    twos = ",".join(["2"] * (TYPE_CAP // 2))
    code, out, _ = run(capsys, "eval", "--method", "oracle", "--cycle", twos,
                       "--p", "30", "--q", "40")
    assert code == 0
    assert int(table_fields(out)["value"]) == normalized_character(
        [2] * (TYPE_CAP // 2), rectangle(40, 30))

    code, out, _ = run(capsys, "eval", "--method", "oracle", "--cycle", "5",
                       "--p", "1", "--q", str(ORACLE_WIDTH_CAP - 1))
    assert code == 0 and table_fields(out)["value"] == str(
        ch_rect_fast(5, 1, ORACLE_WIDTH_CAP - 1))
    code, _, err = run(capsys, "eval", "--method", "oracle", "--cycle", "5",
                       "--p", "1", "--q", str(ORACLE_WIDTH_CAP))
    assert code == 2 and "p + q" in err

    code, out, _ = run(capsys, "bench", "--k", f"{TYPE_CAP},{TYPE_CAP + 1}")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [(row[0], row[1]) for row in rows[1:]] == [
        ("closed", str(TYPE_CAP)), ("oracle", str(TYPE_CAP)),
        ("stanley", str(TYPE_CAP)), ("closed", str(TYPE_CAP + 1))]
    code, out, _ = run(capsys, "bench", "--k", "3",
                       "--p", "1", "--q", str(ORACLE_WIDTH_CAP))
    assert code == 0
    assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == [
        "closed", "stanley"]


def test_general_routes_agree_at_the_type_cap(capsys):
    # the dearest types of size TYPE_CAP, on a rectangle and its transpose;
    # bench runs both routes up to the cap and neither past it
    for cycle in (",".join(["2"] * 12), "5,4,4,3,2,2,2,2",
                  ",".join(["1"] * 24), "24"):
        for p, q in ((7, 9), (9, 7)):
            values = set()
            for method in ("stanley", "oracle"):
                code, out, _ = run(capsys, "eval", "--method", method,
                                   "--cycle", cycle, "--p", str(p),
                                   "--q", str(q))
                assert code == 0
                values.add(table_fields(out)["value"])
            assert len(values) == 1, (cycle, p, q, values)

    code, out, _ = run(capsys, "bench", "--k", "17,24,25")
    assert code == 0
    assert [(row[0], row[1]) for row in csv.reader(io.StringIO(out))][1:] == [
        ("closed", "17"), ("oracle", "17"), ("stanley", "17"),
        ("closed", "24"), ("oracle", "24"), ("stanley", "24"),
        ("closed", "25")]


# (cycle length, p, q) on each side of each route's cap: the type cap, the
# oracle's p + q <= ORACLE_WIDTH_CAP and the closed cap
CAP_EDGES = ((TYPE_CAP, 2, 3), (TYPE_CAP + 1, 2, 3),
             (2, ORACLE_WIDTH_CAP // 2 - 1, ORACLE_WIDTH_CAP // 2 + 1),
             (2, ORACLE_WIDTH_CAP // 2, ORACLE_WIDTH_CAP // 2 + 1),
             (CLOSED_CAP, 1, 2), (CLOSED_CAP + 1, 1, 2))


@pytest.mark.parametrize("method", list(_ROUTES))
def test_eval_and_bench_agree_at_each_cap_edge(capsys, method):
    # eval answers exactly where bench prints the method's row, with the
    # same value, and refuses with no output where bench leaves it out
    for k, p, q in CAP_EDGES:
        sides = ("--p", str(p), "--q", str(q))
        code, out, _ = run(capsys, "eval", "--method", method,
                           "--cycle", str(k), *sides)
        _, bench, _ = run(capsys, "bench", "--k", str(k), *sides)
        rows = {row[0]: row[5]
                for row in list(csv.reader(io.StringIO(bench)))[1:]}
        assert (code == 0) == (method in rows), (k, p, q)
        if code == 0:
            assert table_fields(out)["value"] == rows[method], (k, p, q)
        else:
            assert code == 2 and out == "", (k, p, q)


def test_eval_rejects_bad_cycle_type(capsys):
    code, _, err = run(capsys, "eval", "--method", "oracle",
                       "--cycle", "0", "--p", "2", "--q", "2")
    assert code == 2
    assert "bad cycle type" in err


@pytest.mark.parametrize("flag, text, message", [
    ("--p", "x", "not an integer: 'x'"),
    ("--p", "0", "must be positive: 0"),
    ("--cycle", "3,a", "bad cycle type: '3,a'"),
])
def test_eval_refuses_an_argument_of_the_wrong_type(capsys, flag, text,
                                                     message):
    flags = {"--cycle": "3", "--p": "2", "--q": "2", flag: text}
    argv = [word for pair in flags.items() for word in pair]
    code, out, err = run(capsys, "eval", "--method", "oracle", *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_poly_outputs(capsys):
    code, out, _ = run(capsys, "poly", "--kind", "stanley", "--cycle", "2")
    assert code == 0
    assert out.strip() == "-1*P^2*Q + 1*P*Q^2"

    code, out, _ = run(capsys, "poly", "--kind", "G", "--two-d", "2")
    assert code == 0
    assert out.strip() == "N - 2*J^2 + J + 1"

    code, out, _ = run(capsys, "poly", "--kind", "I", "--two-d", "0")
    assert code == 0
    assert out.strip() == "0"

    code, out, _ = run(capsys, "poly", "--kind", "G",
                       "--two-d", str(-FAMILY_CAP))
    assert code == 0
    assert out.startswith(f"N^{FAMILY_CAP // 2} ")


def test_poly_usage_errors(capsys):
    code, _, err = run(capsys, "poly", "--kind", "J", "--two-d", "2")
    assert code == 2 and "odd parity" in err

    code, _, err = run(capsys, "poly", "--kind", "H")
    assert code == 2 and "--two-d is required" in err

    code, _, err = run(capsys, "poly", "--kind", "stanley")
    assert code == 2 and "--cycle is required" in err

    code, out, err = run(capsys, "poly", "--kind", "stanley",
                         "--cycle", f"{TYPE_CAP},1")
    assert code == 2 and out == ""
    assert f"size <= {TYPE_CAP}, got {TYPE_CAP + 1}" in err

    for two_d in (FAMILY_CAP + 2, -(FAMILY_CAP + 2), 1000):
        kind = "G" if two_d % 2 == 0 else "H"
        code, out, err = run(capsys, "poly", "--kind", kind,
                             "--two-d", str(two_d))
        assert code == 2 and "capped" in err and out == ""


def test_poly_refuses_a_flag_its_kind_does_not_read(capsys):
    for argv, flag, kind in (
            (("--kind", "stanley", "--cycle", "2", "--two-d", "4"),
             "--two-d", "stanley"),
            (("--kind", "G", "--two-d", "2", "--cycle", "3"), "--cycle", "G")):
        code, out, err = run(capsys, "poly", *argv)
        assert (code, out) == (2, "")
        assert err == f"poly: {flag} does not apply to kind {kind}\n"


_EVAL = "eval --method oracle --p 2 --q 2 --cycle "


@pytest.mark.parametrize("argv, line", [
    ("eval --method stanley --cycle 25 --p 2 --q 3",
     "eval: the stanley method is capped at cycle types of size <= 24, "
     "got 25"),
    ("eval --method oracle --cycle 2 --p 5000 --q 5001",
     "eval: the oracle method is capped at p + q <= 10000, got 10001"),
    ("eval --method closed --cycle 2,1 --p 2 --q 3",
     "eval: the closed method handles a single cycle only"),
    ("eval --method closed --cycle 3001 --p 2 --q 3",
     "eval: the closed method is capped at cycles of length <= 3000, "
     "got 3001"),
    ("bench --k 3,3001",
     "bench: the closed method is capped at cycles of length <= 3000, "
     "got 3001"),
    ("poly --kind stanley --cycle 2 --two-d 4",
     "poly: --two-d does not apply to kind stanley"),
    ("poly --kind stanley", "poly: --cycle is required for kind stanley"),
    ("poly --kind stanley --cycle 25",
     "poly: the stanley method is capped at cycle types of size <= 24, "
     "got 25"),
    ("poly --kind G --two-d 2 --cycle 3",
     "poly: --cycle does not apply to kind G"),
    ("poly --kind H", "poly: --two-d is required for kind H"),
    ("poly --kind G --two-d 122",
     "poly: kind G is capped at |two-d| <= 120, got 122"),
    ("poly --kind J --two-d 2",
     "poly: kind J needs a two-d of odd parity, got 2"),
    (_EVAL + ",",
     "rectchar eval: error: argument --cycle: bad cycle type: ','"),
    (_EVAL + "''",
     "rectchar eval: error: argument --cycle: bad cycle type: ''"),
    (_EVAL + "3,0",
     "rectchar eval: error: argument --cycle: bad cycle type: '3,0'"),
    ("bench --k ,", "rectchar bench: error: argument --k: bad cycle list: ','"),
    ("bench --k 3,0",
     "rectchar bench: error: argument --k: bad cycle list: '3,0'"),
])
def test_every_refusal_prints_its_pinned_line(capsys, argv, line):
    # a command's refusal is its one stderr line; an argument error is the
    # last line under the usage
    code, out, err = run(capsys, *shlex.split(argv))
    assert (code, out) == (2, "")
    *usage, last = err.split("\n")[:-1]
    assert err.endswith("\n") and last == line
    assert bool(usage) == line.startswith("rectchar ")


def test_verify_jm_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "jm", "--k-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verify: 4 passed, 0 failed"
    assert all(line.startswith("PASS jm factorization") for line in lines[:-1])


def test_verify_jm_suite_stops_at_its_cap(capsys, monkeypatch):
    sizes = []

    def counting_check(k):
        sizes.append(k)
        return True

    monkeypatch.setattr("rectchar.cli.jm_factorization_check",
                        counting_check)
    code, out, _ = run(capsys, "verify", "--suite", "jm",
                       "--k-max", str(JM_CAP + 3))
    assert code == 0
    assert sizes == list(range(1, JM_CAP + 1))
    assert out.splitlines()[-1] == f"verify: {JM_CAP} passed, 0 failed"


def test_verify_transpose_oracle_stops_at_its_cap(capsys, monkeypatch):
    sizes = set()

    def counting_character(pi, shape):
        sizes.add(pi.size)
        return 0

    monkeypatch.setattr("rectchar.cli.normalized_character",
                        counting_character)
    monkeypatch.setattr("rectchar.cli.stanley_poly",
                        lambda pi: BiPoly.zero())
    code, out, _ = run(capsys, "verify", "--suite", "transpose",
                       "--k-max", str(TYPE_CAP + 2), "--pq-max", "2")
    assert code == 0
    assert sizes == set(range(1, TYPE_CAP + 1))
    oracle_lines = [line for line in out.splitlines()
                    if line.startswith("PASS transpose oracle")]
    assert len(oracle_lines) == sum(
        1 for size in range(1, TYPE_CAP + 1) for _ in partitions(size))


def test_verify_integrality_families_stop_at_their_cap(capsys, monkeypatch):
    seen = set()

    def counting_poly(two_d, parity):
        seen.add(abs(two_d))
        return BiPoly.zero()

    monkeypatch.setattr("rectchar.cli.corollary_poly", counting_poly)
    monkeypatch.setattr("rectchar.cli.integrality_witness",
                        lambda d, k: Fraction(1))
    code, _, _ = run(capsys, "verify", "--suite", "integrality",
                     "--k-max", "70")
    assert code == 0
    assert max(seen) == FAMILY_CAP == 120
    assert seen == set(range(FAMILY_CAP + 1))


def test_verify_integrality_witnesses_stop_at_the_family_cap(capsys,
                                                             monkeypatch):
    seen = []

    def recording_witness(d, k):
        seen.append((d, k))
        return Fraction(1)

    monkeypatch.setattr("rectchar.cli.corollary_poly",
                        lambda two_d, parity: BiPoly.zero())
    monkeypatch.setattr("rectchar.cli.integrality_witness", recording_witness)
    code, out, _ = run(capsys, "verify", "--suite", "integrality",
                       "--k-max", "200")
    assert code == 0
    assert max(abs(d) for d, _ in seen) == FAMILY_CAP == 120
    assert max(k for _, k in seen) == FAMILY_CAP
    assert f"PASS integrality witness d={FAMILY_CAP} k<={FAMILY_CAP}" in out


def test_verify_oracle_match_closed_stops_at_its_cap(capsys, monkeypatch):
    lengths = set()

    def counting_closed(k, p, q):
        lengths.add(k)
        return 0

    monkeypatch.setattr("rectchar.cli.ch_rect_fast", counting_closed)
    monkeypatch.setattr("rectchar.cli.normalized_character",
                        lambda pi, shape: 0)
    monkeypatch.setattr("rectchar.cli.stanley_eval", lambda pi, p, q: 0)
    code, out, _ = run(capsys, "verify", "--suite", "oracle-match",
                       "--k-max", str(GRID_CAP + 5), "--pq-max", "2")
    assert code == 0
    assert lengths == set(range(1, GRID_CAP + 2))
    closed_lines = [line for line in out.splitlines()
                    if line.startswith("PASS oracle-match closed")]
    assert len(closed_lines) == 4 * (GRID_CAP + 1)


def test_verify_vanishing_stops_at_the_closed_cap(capsys, monkeypatch):
    lengths = []

    def counting_closed(k, p, q):
        lengths.append(k)
        return 0

    monkeypatch.setattr("rectchar.cli.ch_rect_fast", counting_closed)
    monkeypatch.setattr("rectchar.cli.normalized_character",
                        lambda pi, shape: 0)
    monkeypatch.setattr("rectchar.cli.stanley_eval", lambda pi, p, q: 0)
    code, out, _ = run(capsys, "verify", "--suite", "vanishing",
                       "--k-max", str(CLOSED_CAP + 10))
    assert code == 0
    top = (CLOSED_CAP + 1) // 2
    assert lengths == [2 * j - 1 for j in range(2, top + 1)]
    assert out.splitlines()[-1] == f"verify: {top - 1} passed, 0 failed"


def test_verify_all_suites_small_bounds(capsys):
    # the 3-cycle is the first that vanishing checks
    code, out, _ = run(capsys, "verify", "--suite", "all",
                       "--k-max", "3", "--pq-max", "2")
    assert code == 0
    assert "FAIL" not in out
    assert all(f"PASS {case}" in out for case in ("vanishing j=2",
                                                  "leading-catalan j=2",
                                                  "basis j=2"))
    assert out.splitlines()[-1].endswith("0 failed")


@pytest.mark.parametrize("argv, digest, summary", [
    (("--k-max", "7", "--pq-max", "7", "--threads", "1"),
     "51252d25b8d158788fa1175eaf06ea9dcedbd1e1a584c516cecb5464a0ea4036",
     "verify: 3579 passed, 0 failed"),
    ((), "38a4a44265bb15c1b7b2fe1f59b970c4579801a40f0acc7c2a861e2cb4e51aca",
     "verify: 1819 passed, 0 failed"),
    # two-digit sides in the names, the last --suite read
    (("--suite", "oracle-match", "--k-max", "2", "--pq-max", "60"),
     "872fd64575a3c1507c5a2d57e6bbf7fe14d3258c43da0968b21a67c6bd6f67e5",
     "verify: 1305 passed, 0 failed"),
    (("--suite", "transpose", "--k-max", "2", "--pq-max", "60"),
     "a6650b3e066737d0de490784fe482e529016ce228741c7ca0f056b536652c81b",
     "verify: 384 passed, 0 failed"),
], ids=("k7-pq7", "defaults", "oracle-match-pq60", "transpose-pq60"))
def test_verify_case_list_is_pinned(capsys, argv, digest, summary):
    # every case name, its order and its outcome, as a digest of stdout
    code, out, _ = run(capsys, "verify", "--suite", "all", *argv)
    assert code == 0
    assert out.splitlines()[-1] == summary
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("pq_max", [1, 7, 12, 10000])
def test_grid_is_rows_first_symmetric_and_capped(pq_max):
    grid = _grid(Namespace(pq_max=pq_max))
    top = min(pq_max, GRID_CAP)
    assert list(grid) == [(p, q) for p in range(1, top + 1)
                          for q in range(1, top + 1) if p * q <= GRID_CAP]
    assert all((q, p) in grid for p, q in grid)
    assert all(shape == rectangle(p, q) for (p, q), shape in grid.items())
    if pq_max > GRID_CAP:
        assert grid == _grid(Namespace(pq_max=GRID_CAP))


@pytest.mark.parametrize("suite, k_max", [("oracle-match", "1"),
                                          ("transpose", "2")])
def test_verify_grid_cost_does_not_grow_with_pq_max(capsys, suite, k_max):
    # no rectangle past GRID_CAP boxes is checked, so --pq-max past it
    # changes neither the cases nor the cost of listing them
    _, want, _ = run(capsys, "verify", "--suite", suite, "--k-max", k_max,
                     "--pq-max", str(GRID_CAP))
    start = time.perf_counter()
    code, got, _ = run(capsys, "verify", "--suite", suite, "--k-max", k_max,
                       "--pq-max", "10000")
    elapsed = time.perf_counter() - start
    assert code == 0 and got == want
    assert elapsed < 1.0


def test_verify_takes_only_one_thread(capsys):
    # verify runs one case at a time; --threads 1 is the default spelled out
    code, _, err = run(capsys, "verify", "--suite", "vanishing",
                       "--threads", "2")
    assert code == 2 and "--threads" in err
    _, default, _ = run(capsys, "verify", "--suite", "vanishing")
    code, one, _ = run(capsys, "verify", "--suite", "vanishing",
                       "--threads", "1")
    assert code == 0
    assert one == default


def test_verify_prints_each_case_as_its_check_returns(monkeypatch):
    # a case runs only after the lines of the cases before it are printed
    out = io.StringIO()
    seen = {}

    def check(k):
        seen[k] = out.getvalue()
        return True

    monkeypatch.setattr("rectchar.cli.jm_factorization_check", check)
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "jm", "--k-max", "3"])
    assert code == 0
    assert seen == {1: "",
                    2: "PASS jm factorization k=1\n",
                    3: "PASS jm factorization k=1\n"
                       "PASS jm factorization k=2\n"}


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr("rectchar.cli.jm_factorization_check",
                        lambda k: k != 2)
    code, out, _ = run(capsys, "verify", "--suite", "jm", "--k-max", "3")
    assert code == 1
    assert "FAIL jm factorization k=2" in out
    assert out.splitlines()[-1] == "verify: 2 passed, 1 failed"


def test_verify_passes_a_case_only_on_true(capsys, monkeypatch):
    # a true value other than True is the reason the case failed
    monkeypatch.setattr("rectchar.cli.jm_factorization_check",
                        lambda k: {"k": k})
    code, out, _ = run(capsys, "verify", "--suite", "jm", "--k-max", "1")
    assert code == 1
    assert out.splitlines() == ["FAIL jm factorization k=1: {'k': 1}",
                                "verify: 0 passed, 1 failed"]


def test_verify_names_the_exception_of_a_raising_case(capsys, monkeypatch):
    def check(k):
        if k == 2:
            raise ValueError("no table for k=2")
        return True

    monkeypatch.setattr("rectchar.cli.jm_factorization_check", check)
    code, out, _ = run(capsys, "verify", "--suite", "jm", "--k-max", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL jm factorization k=2: ValueError: no table for k=2"
    assert lines[0] == "PASS jm factorization k=1"
    assert lines[-1] == "verify: 2 passed, 1 failed"


def test_verify_shows_the_values_that_disagreed(capsys, monkeypatch):
    def wrong_for_three_cycles(pi, p, q):
        return 1000 if pi.parts == (3,) else stanley_eval(pi, p, q)

    monkeypatch.setattr("rectchar.cli.stanley_eval", wrong_for_three_cycles)
    code, out, _ = run(capsys, "verify", "--suite", "oracle-match",
                       "--k-max", "3", "--pq-max", "3")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 9  # the 3-cycle on the nine rectangles up to 3 x 3
    assert ("FAIL oracle-match stanley pi=[3] p=2 q=3: "
            "stanley=1000 oracle=-24") in fails
    assert ("FAIL oracle-match stanley pi=[3] p=2 q=2: "
            "stanley=1000 oracle=-12") in fails
    assert "PASS oracle-match stanley pi=[2,1] p=2 q=3" in out
    assert out.splitlines()[-1] == "verify: 72 passed, 9 failed"


def test_verify_checks_the_leading_coefficient(capsys, monkeypatch):
    # the suite compares with the signed Catalan number; any int is not enough
    monkeypatch.setattr("rectchar.cli.leading_square_coeff", lambda j: 7)
    code, out, _ = run(capsys, "verify", "--suite", "leading-catalan",
                       "--k-max", "3")
    assert code == 1
    assert out.splitlines() == [
        "FAIL leading-catalan j=1: coefficient=7 signed catalan=1",
        "FAIL leading-catalan j=2: coefficient=7 signed catalan=-1",
        "verify: 0 passed, 2 failed",
    ]


def test_verify_shows_both_sides_of_a_broken_transpose(capsys, monkeypatch):
    def off_by_one_when_tall(pi, shape):
        value = normalized_character(pi, shape)
        return value + 1 if len(shape.parts) > shape.parts[0] else value

    monkeypatch.setattr("rectchar.cli.normalized_character",
                        off_by_one_when_tall)
    code, out, _ = run(capsys, "verify", "--suite", "transpose",
                       "--k-max", "2", "--pq-max", "2")
    assert code == 1
    assert ("FAIL transpose oracle pi=[2] p=1 q=2: "
            "oracle(2x1)=-1 signed oracle(1x2)=-2") in out.splitlines()
    assert out.splitlines()[-1] == "verify: 3 passed, 3 failed"


@pytest.mark.parametrize("name, replacement, argv, line", [
    ("corollary_poly", lambda two_d, parity: JNPoly({(1, 0): Fraction(1, 2)}),
     ("integrality", "1"),
     "FAIL integrality family two_d=0 parity=odd: "
     "non-integer coefficients {(1, 0): Fraction(1, 2)}"),
    ("integrality_witness", lambda d, k: Fraction(k, 2),
     ("integrality", "3"),
     "FAIL integrality witness d=0 k<=3: "
     "non-integer witnesses k=1: 1/2, k=3: 3/2"),
    ("ch_rect_fast", lambda k, p, q: 1, ("vanishing", "3"),
     "FAIL vanishing j=2 cycle 3 rect 2x5: closed=1"),
    ("jm_factorization_check", lambda k: False, ("jm", "2"),
     "FAIL jm factorization k=2: "
     "(1 + J_1)...(1 + J_2) is not the sum of S_2"),
    ("decompose_even_basis", lambda poly, j: [DEPoly.constant(1)] * (j + 1),
     ("basis", "1"), "FAIL basis j=1 cycle 1: entry 0=1 expected=1*E^2"),
    ("decompose_even_basis",
     lambda poly, j: decompose_even_basis(poly, j)[:-1], ("basis", "1"),
     "FAIL basis j=1 cycle 1: rebuilt=1*E^2 poly=-1*D^2 + 1*E^2"),
    ("stanley_eval", lambda pi, p, q: 0, ("minus-one", "1"),
     "FAIL minus-one k=1: "
     "at -1x7: stanley=0 product=-7; at 7x-1: stanley=0 product=-7"),
], ids=("integrality-family", "integrality-witness", "vanishing", "jm",
        "basis-entry", "basis-rebuilt", "minus-one"))
def test_every_fail_line_ends_with_its_reason(capsys, monkeypatch, name,
                                             replacement, argv, line):
    monkeypatch.setattr(f"rectchar.cli.{name}", replacement)
    suite, k_max = argv
    code, out, _ = run(capsys, "verify", "--suite", suite, "--k-max", k_max)
    assert code == 1
    lines = out.splitlines()
    assert line in lines
    assert all(re.fullmatch(r"PASS .+|FAIL [^:]+: \S.*"
                            r"|verify: \d+ passed, \d+ failed", each)
               for each in lines), out


def test_bench_orders_rows_and_agrees(capsys):
    code, out, _ = run(capsys, "bench", "--k", "3,1", "--p", "2", "--q", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["method", "k", "p", "q", "elapsed_ns", "value"]
    body = rows[1:]
    assert [(r[0], r[1]) for r in body] == [
        ("closed", "1"), ("oracle", "1"), ("stanley", "1"),
        ("closed", "3"), ("oracle", "3"), ("stanley", "3")]
    for k in ("1", "3"):
        assert len({r[5] for r in body if r[1] == k}) == 1


def test_bench_skips_capped_methods_on_huge_input(capsys):
    code, out, _ = run(capsys, "bench", "--k", "99",
                       "--p", "1000001", "--q", "1000003")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[1][0] == "closed"
    assert rows[1][5] == str(ch_rect_fast(99, 1000001, 1000003))


def test_bench_reports_disagreement(capsys, monkeypatch):
    monkeypatch.setattr("rectchar.cli.ch_rect_fast", lambda k, p, q: 999)
    code, out, err = run(capsys, "bench", "--k", "2", "--p", "2", "--q", "3")
    assert code == 1
    assert out == ""
    assert "methods disagree at k=2" in err


def test_bench_rejects_bad_cycle_list(capsys):
    code, _, err = run(capsys, "bench", "--k", "3,x")
    assert code == 2
    assert "bad cycle list" in err
