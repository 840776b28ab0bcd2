"""Command line interface: evaluate, print polynomials, verify, benchmark.

Evaluation methods
  oracle    Murnaghan-Nakayama recursion; capped at n = p q <= 60 here, so
            the slow reference path cannot be launched on huge diagrams.
  stanley   signed factorization sum over the Jucys-Murphy content table;
            capped at cycle types of size <= 16, where the dearest type,
            1^16, builds its table in about 0.1 s.
  closed    product formulas; single cycles only, no size cap.

Exit codes: 0 on success, 1 when a verification or cross-check fails, 2 on
usage errors including cap violations.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from ._poly import DEPoly
from .closed import (
    ch_rect_fast,
    corollary_poly,
    integrality_witness,
    leading_square_coeff,
    minus_one_col_char,
    minus_one_row_char,
)
from .mn import normalized_character
from .stanley import (
    decompose_even_basis,
    jm_factorization_check,
    stanley_eval,
    stanley_poly,
    substitute_ed,
)
from .young import Partition, partitions, rectangle

__all__ = ["main", "STANLEY_CAP", "ORACLE_CAP"]

STANLEY_CAP = 16
ORACLE_CAP = 60

_SUITES = (
    "oracle-match",
    "transpose",
    "integrality",
    "vanishing",
    "jm",
    "leading-catalan",
    "basis",
    "minus-one",
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _cycle_type(text: str) -> Partition:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cycle type: {text!r}")
    if not parts or any(x < 1 for x in parts):
        raise argparse.ArgumentTypeError(f"bad cycle type: {text!r}")
    return Partition(sorted(parts, reverse=True))


def _cycle_list(text: str) -> tuple[int, ...]:
    try:
        ks = sorted({int(x) for x in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cycle list: {text!r}")
    if not ks or ks[0] < 1:
        raise argparse.ArgumentTypeError(f"bad cycle list: {text!r}")
    return tuple(ks)


# eval ----------------------------------------------------------------------

def _cmd_eval(args) -> int:
    pi: Partition = args.cycle
    p, q = args.p, args.q
    n = p * q
    if args.method == "oracle" and n > ORACLE_CAP:
        print(f"eval: the oracle method is capped at n <= {ORACLE_CAP}, "
              f"got n = {n}", file=sys.stderr)
        return 2
    if args.method == "stanley" and pi.size > STANLEY_CAP:
        print(f"eval: the stanley method is capped at cycle types of size "
              f"<= {STANLEY_CAP}, got {pi.size}", file=sys.stderr)
        return 2
    if args.method == "closed" and pi.length != 1:
        print("eval: the closed method handles a single cycle only",
              file=sys.stderr)
        return 2
    start = time.perf_counter_ns()
    if args.method == "oracle":
        value = normalized_character(pi, rectangle(p, q))
    elif args.method == "stanley":
        value = stanley_eval(pi, p, q)
    else:
        value = ch_rect_fast(pi.parts[0], p, q)
    elapsed = time.perf_counter_ns() - start
    frac = Fraction(value)
    if frac.denominator != 1:
        print(f"eval: non-integer value {frac}", file=sys.stderr)
        return 1
    text = str(int(frac))
    if args.format == "json":
        print(json.dumps({
            "inputs": {"cycle": list(pi.parts), "p": p, "q": q, "n": n},
            "method": args.method,
            "value": text,
            "elapsed_ns": elapsed,
        }))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["method", "cycle", "p", "q", "elapsed_ns", "value"])
        writer.writerow([args.method, ",".join(str(x) for x in pi.parts),
                         p, q, elapsed, text])
    else:
        for label, shown in (("cycle", str(pi)), ("p", p), ("q", q), ("n", n),
                             ("method", args.method), ("value", text),
                             ("elapsed_ns", elapsed)):
            print(f"{label:<11} {shown}")
    return 0


# poly ----------------------------------------------------------------------

def _cmd_poly(args) -> int:
    if args.kind == "stanley":
        if args.cycle is None:
            print("poly: --cycle is required for kind stanley", file=sys.stderr)
            return 2
        if args.cycle.size > STANLEY_CAP:
            print(f"poly: kind stanley is capped at cycle types of size "
                  f"<= {STANLEY_CAP}, got {args.cycle.size}", file=sys.stderr)
            return 2
        print(stanley_poly(args.cycle))
        return 0
    if args.two_d is None:
        print(f"poly: --two-d is required for kind {args.kind}",
              file=sys.stderr)
        return 2
    needs_even = args.kind in ("G", "I")
    if needs_even != (args.two_d % 2 == 0):
        wanted = "even" if needs_even else "odd"
        print(f"poly: kind {args.kind} needs a two-d of {wanted} parity, "
              f"got {args.two_d}", file=sys.stderr)
        return 2
    cycle_parity = "odd" if args.kind in ("G", "H") else "even"
    print(corollary_poly(args.two_d, cycle_parity))
    return 0


# verify ---------------------------------------------------------------------

def _iter_cycle_types(k_max: int):
    for size in range(1, k_max + 1):
        yield from partitions(size)


def _suite_oracle_match(args) -> list:
    cases = []
    for pi in _iter_cycle_types(min(args.k_max, STANLEY_CAP)):
        for p in range(1, args.pq_max + 1):
            for q in range(1, args.pq_max + 1):
                if p * q > ORACLE_CAP:
                    continue
                def check(pi=pi, p=p, q=q):
                    want = normalized_character(pi, rectangle(p, q))
                    return stanley_eval(pi, p, q) == want
                cases.append((f"oracle-match stanley pi={pi} p={p} q={q}",
                              check))
    for k in range(1, args.k_max + 1):
        for p in range(1, args.pq_max + 1):
            for q in range(1, args.pq_max + 1):
                if p * q > ORACLE_CAP:
                    continue
                def check(k=k, p=p, q=q):
                    want = normalized_character(Partition((k,)),
                                                rectangle(p, q))
                    return ch_rect_fast(k, p, q) == want
                cases.append((f"oracle-match closed k={k} p={p} q={q}", check))
    return cases


def _suite_transpose(args) -> list:
    cases = []
    for pi in _iter_cycle_types(min(args.k_max, STANLEY_CAP)):
        sign = -1 if (pi.size - pi.length) % 2 else 1
        def check(pi=pi, sign=sign):
            poly = stanley_poly(pi)
            return poly.swap() == sign * poly
        cases.append((f"transpose poly pi={pi}", check))
    for pi in _iter_cycle_types(args.k_max):
        for p in range(1, args.pq_max + 1):
            for q in range(p + 1, args.pq_max + 1):
                if p * q > ORACLE_CAP:
                    continue
                sign = -1 if (pi.size - pi.length) % 2 else 1
                def check(pi=pi, p=p, q=q, sign=sign):
                    left = normalized_character(pi, rectangle(q, p))
                    right = normalized_character(pi, rectangle(p, q))
                    return left == sign * right
                cases.append((f"transpose oracle pi={pi} p={p} q={q}", check))
    return cases


def _suite_integrality(args) -> list:
    cases = []
    span = 2 * args.k_max
    for two_d in range(-span, span + 1):
        for parity in ("odd", "even"):
            def check(two_d=two_d, parity=parity):
                poly = corollary_poly(two_d, parity)
                return all(isinstance(c, int)
                           for c in poly.terms().values())
            cases.append(
                (f"integrality family two_d={two_d} parity={parity}", check))
    for d in range(-span, span + 1):
        def check(d=d, k_max=args.k_max):
            return all(integrality_witness(d, k).denominator == 1
                       for k in range(1, k_max + 1))
        cases.append((f"integrality witness d={d} k<={args.k_max}", check))
    return cases


def _suite_vanishing(args) -> list:
    cases = []
    for j in range(2, args.j_max + 1):
        k, p, q = 2 * j - 1, 2 * j - 2, 2 * j + 1
        def check(k=k, p=p, q=q):
            if ch_rect_fast(k, p, q) != 0:
                return False
            if k <= STANLEY_CAP and stanley_eval(Partition((k,)), p, q) != 0:
                return False
            if p * q <= ORACLE_CAP:
                oracle = normalized_character(Partition((k,)), rectangle(p, q))
                if oracle != 0:
                    return False
            return True
        cases.append((f"vanishing j={j} cycle {k} rect {p}x{q}", check))
    return cases


def _suite_jm(args) -> list:
    return [(f"jm factorization k={k}",
             lambda k=k: jm_factorization_check(k))
            for k in range(1, args.k_max + 1)]


def _suite_leading_catalan(args) -> list:
    top = min(args.j_max, (STANLEY_CAP + 1) // 2)
    return [(f"leading-catalan j={j}",
             lambda j=j: isinstance(leading_square_coeff(j), int))
            for j in range(1, top + 1)]


def _suite_basis(args) -> list:
    cases = []
    top = min(args.j_max, (STANLEY_CAP + 1) // 2)
    for j in range(1, top + 1):
        def check(j=j):
            poly = substitute_ed(stanley_poly(Partition((2 * j - 1,))))
            entries = decompose_even_basis(poly, j)
            e2 = DEPoly({(0, 2): 1})
            d2 = DEPoly({(2, 0): 1})
            for k, entry in enumerate(entries):
                expected = DEPoly.constant(poly.coefficient(2 * k,
                                                            2 * (j - k)))
                for r in range(k, j):
                    expected = expected * (e2 - r * r)
                if entry != expected:
                    return False
            rebuilt = DEPoly.zero()
            for k, entry in enumerate(entries):
                basis = DEPoly.constant(1)
                for r in range(k):
                    basis = basis * (d2 - r * r)
                rebuilt = rebuilt + entry * basis
            return rebuilt == poly
        cases.append((f"basis j={j} cycle {2 * j - 1}", check))
    return cases


def _falling_product_coeffs(base: int, k: int, negate: bool) -> dict:
    # coefficients of +-(x + base)(x + base + 1)...(x + base + k - 1)
    coeffs = {0: 1}
    for i in range(k):
        nxt: dict = {}
        for e, c in coeffs.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + c
            nxt[e] = nxt.get(e, 0) + c * (base + i)
        coeffs = nxt
    if negate:
        coeffs = {e: -c for e, c in coeffs.items()}
    return {e: c for e, c in coeffs.items() if c != 0}


def _suite_minus_one(args) -> list:
    cases = []
    for k in range(1, min(args.k_max, STANLEY_CAP) + 1):
        def check(k=k):
            poly = stanley_poly(Partition((k,)))
            row = _falling_product_coeffs(0, k, negate=True)
            if poly.substitute_p(-1) != row:
                return False
            col = _falling_product_coeffs(0, k, negate=k % 2 == 1)
            if poly.substitute_q(-1) != col:
                return False
            return (stanley_eval(Partition((k,)), -1, 7)
                    == minus_one_row_char(k, 7)
                    and stanley_eval(Partition((k,)), 7, -1)
                    == minus_one_col_char(k, 7))
        cases.append((f"minus-one k={k}", check))
    return cases


_SUITE_BUILDERS = {
    "oracle-match": _suite_oracle_match,
    "transpose": _suite_transpose,
    "integrality": _suite_integrality,
    "vanishing": _suite_vanishing,
    "jm": _suite_jm,
    "leading-catalan": _suite_leading_catalan,
    "basis": _suite_basis,
    "minus-one": _suite_minus_one,
}


def _cmd_verify(args) -> int:
    selected = list(_SUITES) if args.suite == "all" else [args.suite]
    cases = []
    for name in selected:
        cases.extend(_SUITE_BUILDERS[name](args))

    def run(case) -> str | None:
        # None for a pass, else what follows the case name on its FAIL line
        try:
            passed = case[1]()
        except Exception as exc:
            return f": {type(exc).__name__}: {exc}"
        return None if passed else ""

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            outcomes = list(pool.map(run, cases))
    else:
        outcomes = [run(case) for case in cases]
    failures = 0
    for (name, _), why in zip(cases, outcomes):
        if why is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}{why}")
            failures += 1
    print(f"verify: {len(cases) - failures} passed, {failures} failed")
    return 1 if failures else 0


# bench ------------------------------------------------------------------------

def _cmd_bench(args) -> int:
    p, q = args.p, args.q
    n = p * q
    rows = []
    for k in args.k:
        values = {}
        for method in ("closed", "oracle", "stanley"):
            if method == "oracle" and n > ORACLE_CAP:
                continue
            if method == "stanley" and k > STANLEY_CAP:
                continue
            start = time.perf_counter_ns()
            if method == "closed":
                value = ch_rect_fast(k, p, q)
            elif method == "oracle":
                value = normalized_character(Partition((k,)), rectangle(p, q))
            else:
                value = stanley_eval(Partition((k,)), p, q)
            elapsed = time.perf_counter_ns() - start
            values[method] = Fraction(value)
            rows.append([method, k, p, q, elapsed, str(int(Fraction(value)))])
        if len(set(values.values())) > 1:
            detail = ", ".join(f"{m}={v}" for m, v in sorted(values.items()))
            print(f"bench: methods disagree at k={k}: {detail}",
                  file=sys.stderr)
            return 1
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["method", "k", "p", "q", "elapsed_ns", "value"])
    writer.writerows(rows)
    return 0


# wiring -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectchar",
        description="Exact rectangle characters of symmetric groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one normalized character")
    p_eval.add_argument("--method", choices=("oracle", "stanley", "closed"),
                        required=True)
    p_eval.add_argument("--cycle", type=_cycle_type, required=True,
                        help="cycle type, e.g. 3 or 3,2")
    p_eval.add_argument("--p", type=_positive_int, required=True,
                        help="number of rows")
    p_eval.add_argument("--q", type=_positive_int, required=True,
                        help="row length")
    p_eval.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    p_eval.set_defaults(func=_cmd_eval)

    p_poly = sub.add_parser("poly", help="print an exact polynomial")
    p_poly.add_argument("--kind", choices=("stanley", "G", "H", "I", "J"),
                        required=True)
    p_poly.add_argument("--cycle", type=_cycle_type,
                        help="cycle type for kind stanley")
    p_poly.add_argument("--two-d", dest="two_d", type=int,
                        help="twice the half-difference d for G/H/I/J")
    p_poly.set_defaults(func=_cmd_poly)

    p_verify = sub.add_parser("verify", help="run identity cross-checks")
    p_verify.add_argument("--suite", choices=_SUITES + ("all",),
                          default="all")
    p_verify.add_argument("--k-max", dest="k_max", type=_positive_int,
                          default=6)
    p_verify.add_argument("--pq-max", dest="pq_max", type=_positive_int,
                          default=6)
    p_verify.add_argument("--j-max", dest="j_max", type=_positive_int,
                          default=4)
    p_verify.add_argument("--threads", type=_positive_int, default=1)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="time the methods against each other")
    p_bench.add_argument("--k", type=_cycle_list, required=True,
                         help="comma-separated cycle lengths")
    p_bench.add_argument("--p", type=_positive_int, default=6)
    p_bench.add_argument("--q", type=_positive_int, default=7)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
