"""End-to-end tests for the command line interface."""

import csv
import io
import json

import pytest

from rectchar.closed import ch_rect_fast
from rectchar.cli import main


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


def test_eval_table_all_methods(capsys):
    for method in ("oracle", "stanley", "closed"):
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


def test_eval_cap_violations(capsys):
    code, out, err = run(capsys, "eval", "--method", "oracle",
                         "--cycle", "3", "--p", "8", "--q", "8")
    assert code == 2 and out == "" and "n <= 60" in err

    code, _, err = run(capsys, "eval", "--method", "stanley",
                       "--cycle", "9,8", "--p", "2", "--q", "2")
    assert code == 2 and "size" in err

    code, _, err = run(capsys, "eval", "--method", "closed",
                       "--cycle", "2,1", "--p", "2", "--q", "2")
    assert code == 2 and "single cycle" in err


def test_eval_rejects_bad_cycle_type(capsys):
    code, _, err = run(capsys, "eval", "--method", "oracle",
                       "--cycle", "0", "--p", "2", "--q", "2")
    assert code == 2
    assert "bad cycle type" in err


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


def test_poly_usage_errors(capsys):
    code, _, err = run(capsys, "poly", "--kind", "J", "--two-d", "2")
    assert code == 2 and "odd parity" in err

    code, _, err = run(capsys, "poly", "--kind", "H")
    assert code == 2 and "--two-d is required" in err

    code, _, err = run(capsys, "poly", "--kind", "stanley")
    assert code == 2 and "--cycle is required" in err

    code, _, err = run(capsys, "poly", "--kind", "stanley",
                       "--cycle", "9,8")
    assert code == 2 and "capped" in err


def test_verify_jm_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "jm", "--k-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verify: 4 passed, 0 failed"
    assert all(line.startswith("PASS jm factorization") for line in lines[:-1])


def test_verify_all_suites_small_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all",
                       "--k-max", "2", "--pq-max", "2", "--j-max", "2")
    assert code == 0
    assert "FAIL" not in out
    assert out.splitlines()[-1].endswith("0 failed")


def test_verify_thread_count_does_not_change_output(capsys):
    _, serial, _ = run(capsys, "verify", "--suite", "vanishing",
                       "--threads", "1")
    code, pooled, _ = run(capsys, "verify", "--suite", "vanishing",
                          "--threads", "4")
    assert code == 0
    assert pooled == serial


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr("rectchar.cli.jm_factorization_check",
                        lambda k: k != 2)
    code, out, _ = run(capsys, "verify", "--suite", "jm", "--k-max", "3")
    assert code == 1
    assert "FAIL jm factorization k=2" in out
    assert out.splitlines()[-1] == "verify: 2 passed, 1 failed"


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
