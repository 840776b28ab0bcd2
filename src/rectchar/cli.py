"""Command line interface: evaluate, print polynomials, verify, benchmark.

Evaluation methods
  oracle    Murnaghan-Nakayama recursion on beta-set bead moves with
            hook-ratio steps, one per non-unit part of the cycle type,
            memoized across calls on (beta-set, remaining parts); also
            capped at p + q <= 10000, the width of the bead mask.
  stanley   signed factorization sum over the Jucys-Murphy content table,
            its characters from one abacus sweep, no MN recursion, only
            the entries that can be nonzero; the table is built for the
            non-unit parts only, and the fixed points leave as one
            falling factorial of pq.
  closed    product formulas; single cycles of length <= 3000 only.

The oracle and stanley share one cap, TYPE_CAP: cycle types of size <= 24,
so the two general-type routes cross-check wherever either one runs.
_ROUTES, the one place a route is added, maps each method to its evaluator
in bench's row order; eval's choices, bench and verify read it.  _refusal
states each method's caps once: eval refuses an input past them, bench
refuses a cycle past the closed cap and leaves out each route past its
own, poly --kind stanley takes the type cap, and verify's vanishing suite
runs each route that accepts its input.
poly --kind G|H|I|J is capped at |two_d| <= 120, and poly refuses the
flag that its kind does not read.  verify walks one grid, the p x q with
both sides <= --pq-max and at most 60 boxes, each rectangle built once
per suite, and runs each suite within caps of its own.  --k-max bounds
every suite's cycle size, and each cap is a cycle length: vanishing,
leading-catalan and basis take the odd cycles 2j - 1 <= --k-max, their
cases named by j.  A grid case's name
is its type's head and its rectangle's label, each formatted once per
suite.  verify runs one case at a time and writes each case's line, in one
write, as its check returns; --threads takes only 1, its one worker.  A
check passes only by returning True; anything else it returns, or the
exception it raises as "Type: message", is the reason it failed, so a FAIL
line always reads "FAIL <name>: <reason>".  A command refuses its input
by returning the reason, and main alone prints it as "<command>: <reason>"
on stderr, with nothing on stdout, and returns 2.
README's "Caps and exit codes" gives every cap with its measured cost.

_COMMANDS, the one place a command is added, maps each command to its help
text and the builder of its arguments.  main builds the parser of the
invoked command only; help, no arguments and an unknown command build
every command's, and both print the same help, usage and errors.

Exit codes: 0 on success, 1 when a verification or cross-check fails, 2 on
usage errors including cap violations.
"""

from __future__ import annotations

import argparse
import sys
import time

from ._poly import BiPoly, DEPoly
from .closed import (
    ch_rect_fast,
    corollary_poly,
    integrality_witness,
    minus_one_col_char,
    minus_one_row_char,
)
from .exact import catalan
from .mn import normalized_character
from .stanley import (
    decompose_even_basis,
    jm_factorization_check,
    leading_square_coeff,
    stanley_eval,
    stanley_poly,
    substitute_ed,
)
from .young import Partition, partitions, rectangle

__all__ = ["main", "TYPE_CAP", "ORACLE_WIDTH_CAP", "CLOSED_CAP",
           "FAMILY_CAP", "JM_CAP", "GRID_CAP"]

TYPE_CAP = 24
ORACLE_WIDTH_CAP = 10000
CLOSED_CAP = 3000
FAMILY_CAP = 120
JM_CAP = 7
GRID_CAP = 60

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _positive_ints(text: str, what: str) -> list[int]:
    """The comma list text as positive integers, else "bad <what>: ..."."""
    try:
        values = [int(x) for x in text.split(",")]
        if min(values) >= 1:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad {what}: {text!r}")


def _cycle_type(text: str) -> Partition:
    return Partition(sorted(_positive_ints(text, "cycle type"), reverse=True))


def _cycle_list(text: str) -> tuple[int, ...]:
    return tuple(sorted(set(_positive_ints(text, "cycle list"))))


# methods -------------------------------------------------------------------

def _refusal(method: str, pi: Partition, p: int, q: int) -> str | None:
    """Why method refuses the cycle type pi on the p x q rectangle, or None
    when it accepts them."""
    if method == "closed":
        if pi.length != 1:
            return "the closed method handles a single cycle only"
        if pi.size > CLOSED_CAP:
            return (f"the closed method is capped at cycles of length "
                    f"<= {CLOSED_CAP}, got {pi.size}")
    elif pi.size > TYPE_CAP:
        return (f"the {method} method is capped at cycle types of size "
                f"<= {TYPE_CAP}, got {pi.size}")
    elif method == "oracle" and p + q > ORACLE_WIDTH_CAP:
        return (f"the oracle method is capped at p + q <= "
                f"{ORACLE_WIDTH_CAP}, got {p + q}")
    return None


# each evaluator looks its function up at call time, so a rebinding of this
# module's name (a test's monkeypatch, a tracer's wrapper) reaches it
_ROUTES = {
    "closed": lambda pi, p, q: ch_rect_fast(pi.parts[0], p, q),
    "oracle": lambda pi, p, q: normalized_character(pi, rectangle(p, q)),
    "stanley": lambda pi, p, q: stanley_eval(pi, p, q),
}


# eval ----------------------------------------------------------------------

def _cmd_eval(args) -> int | str:
    pi: Partition = args.cycle
    p, q = args.p, args.q
    n = p * q
    if (why := _refusal(args.method, pi, p, q)) is not None:
        return why
    start = time.perf_counter_ns()
    value = _ROUTES[args.method](pi, p, q)
    elapsed = time.perf_counter_ns() - start
    text = str(value)
    # json and csv load only for the formats that print them
    if args.format == "json":
        import json
        print(json.dumps({
            "inputs": {"cycle": list(pi.parts), "p": p, "q": q, "n": n},
            "method": args.method,
            "value": text,
            "elapsed_ns": elapsed,
        }))
    elif args.format == "csv":
        import csv
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

def _cmd_poly(args) -> int | str:
    if args.kind == "stanley":
        if args.two_d is not None:
            return "--two-d does not apply to kind stanley"
        if args.cycle is None:
            return "--cycle is required for kind stanley"
        # the type cap does not depend on the sides
        if (why := _refusal("stanley", args.cycle, 1, 1)) is not None:
            return why
        print(stanley_poly(args.cycle))
        return 0
    if args.cycle is not None:
        return f"--cycle does not apply to kind {args.kind}"
    if args.two_d is None:
        return f"--two-d is required for kind {args.kind}"
    if abs(args.two_d) > FAMILY_CAP:
        return (f"kind {args.kind} is capped at |two-d| <= {FAMILY_CAP}, "
                f"got {args.two_d}")
    needs_even = args.kind in ("G", "I")
    if needs_even != (args.two_d % 2 == 0):
        wanted = "even" if needs_even else "odd"
        return (f"kind {args.kind} needs a two-d of {wanted} parity, "
                f"got {args.two_d}")
    cycle_parity = "odd" if args.kind in ("G", "H") else "even"
    print(corollary_poly(args.two_d, cycle_parity))
    return 0


# verify ---------------------------------------------------------------------

def _iter_cycle_types(k_max: int):
    for size in range(1, k_max + 1):
        yield from partitions(size)


def _grid(args) -> dict[tuple[int, int], Partition]:
    """The rectangles the suites check, keyed by their sides (p, q) rows
    first: both sides at most --pq-max and at most GRID_CAP boxes, each
    built once per suite.  p * q <= GRID_CAP holds both ways, so the grid
    holds q x p whenever it holds p x q."""
    top = min(args.pq_max, GRID_CAP)
    return {(p, q): rectangle(p, q) for p in range(1, top + 1)
            for q in range(1, min(top, GRID_CAP // p) + 1)}


def _suite_oracle_match(args):
    # a case's name is its type's head and its rectangle's label, each
    # formatted once
    grid = tuple((f"p={p} q={q}", p, q, shape)
                 for (p, q), shape in _grid(args).items())
    general = ((f"pi={pi}", pi)
               for pi in _iter_cycle_types(min(args.k_max, TYPE_CAP)))
    # past GRID_CAP + 1 both sides are 0 on every rectangle of the grid
    single = ((f"k={k}", Partition((k,)))
              for k in range(1, min(args.k_max, GRID_CAP + 1) + 1))
    for route, types in (("stanley", general), ("closed", single)):
        for shown, pi in types:
            head = f"oracle-match {route} {shown} "
            for label, p, q, shape in grid:
                def check(pi=pi, p=p, q=q, shape=shape, route=route):
                    want = normalized_character(pi, shape)
                    got = _ROUTES[route](pi, p, q)
                    return got == want or f"{route}={got} oracle={want}"
                yield head + label, check


def _suite_transpose(args):
    # each type with the sign of Ch_pi(q x p) against Ch_pi(p x q)
    types = tuple((pi, -1 if (pi.size - pi.length) % 2 else 1)
                  for pi in _iter_cycle_types(min(args.k_max, TYPE_CAP)))
    for pi, sign in types:
        def check(pi=pi, sign=sign):
            poly = stanley_poly(pi)
            swapped, signed = poly.swap(), sign * poly
            return swapped == signed or f"swapped={swapped} signed={signed}"
        yield f"transpose poly pi={pi}", check
    grid = _grid(args)
    wide = tuple((f"p={p} q={q}", p, q, shape, grid[q, p])
                 for (p, q), shape in grid.items() if q > p)
    for pi, sign in types:
        head = f"transpose oracle pi={pi} "
        for label, p, q, shape, turned in wide:
            def check(pi=pi, p=p, q=q, shape=shape, turned=turned, sign=sign):
                left = normalized_character(pi, turned)
                right = sign * normalized_character(pi, shape)
                return left == right or (f"oracle({q}x{p})={left} "
                                         f"signed oracle({p}x{q})={right}")
            yield head + label, check


def _suite_integrality(args):
    top = min(2 * args.k_max, FAMILY_CAP)
    for two_d in range(-top, top + 1):
        for parity in ("odd", "even"):
            def check(two_d=two_d, parity=parity):
                terms = corollary_poly(two_d, parity).terms()
                bad = {key: c for key, c in terms.items()
                       if not isinstance(c, int)}
                return not bad or f"non-integer coefficients {bad}"
            yield f"integrality family two_d={two_d} parity={parity}", check
    # the witnesses over the families' own range of d
    k_top = min(args.k_max, FAMILY_CAP)
    for d in range(-top, top + 1):
        def check(d=d):
            bad = [f"k={k}: {w}" for k in range(1, k_top + 1)
                   if (w := integrality_witness(d, k)).denominator != 1]
            return not bad or "non-integer witnesses " + ", ".join(bad)
        yield f"integrality witness d={d} k<={k_top}", check


def _suite_vanishing(args):
    for j in range(2, (min(args.k_max, CLOSED_CAP) + 1) // 2 + 1):
        k, p, q = 2 * j - 1, 2 * j - 2, 2 * j + 1
        def check(pi=Partition((k,)), p=p, q=q):
            nonzero = [f"{method}={value}"
                       for method, evaluate in _ROUTES.items()
                       if _refusal(method, pi, p, q) is None
                       and (value := evaluate(pi, p, q)) != 0]
            return not nonzero or " ".join(nonzero)
        yield f"vanishing j={j} cycle {k} rect {p}x{q}", check


def _suite_jm(args):
    for k in range(1, min(args.k_max, JM_CAP) + 1):
        # the library answers with a bool only
        def check(k=k):
            return jm_factorization_check(k) or (
                f"(1 + J_1)...(1 + J_{k}) is not the sum of S_{k}")
        yield f"jm factorization k={k}", check


def _suite_leading_catalan(args):
    for j in range(1, (min(args.k_max, TYPE_CAP) + 1) // 2 + 1):
        def check(j=j):
            got = leading_square_coeff(j)
            want = (-1 if j % 2 == 0 else 1) * catalan(j - 1)
            return got == want or f"coefficient={got} signed catalan={want}"
        yield f"leading-catalan j={j}", check


def _suite_basis(args):
    for j in range(1, (min(args.k_max, TYPE_CAP) + 1) // 2 + 1):
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
                    return f"entry {k}={entry} expected={expected}"
            rebuilt = DEPoly.zero()
            for k, entry in enumerate(entries):
                basis = DEPoly.constant(1)
                for r in range(k):
                    basis = basis * (d2 - r * r)
                rebuilt = rebuilt + entry * basis
            return rebuilt == poly or f"rebuilt={rebuilt} poly={poly}"
        yield f"basis j={j} cycle {2 * j - 1}", check


def _suite_minus_one(args):
    p, q = BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1})
    for k in range(1, min(args.k_max, TYPE_CAP) + 1):
        def check(k=k):
            # the products at the formal sides, as coefficients in Q or P,
            # then at the sides -1 x 7 and 7 x -1
            pi = Partition((k,))
            poly = stanley_poly(pi)
            row = minus_one_row_char(k, q).terms()
            col = minus_one_col_char(k, p).terms()
            sides = (
                ("p=-1", poly.substitute_p(-1),
                 {b: c for (_, b), c in row.items()}),
                ("q=-1", poly.substitute_q(-1),
                 {a: c for (a, _), c in col.items()}),
                ("-1x7", stanley_eval(pi, -1, 7), minus_one_row_char(k, 7)),
                ("7x-1", stanley_eval(pi, 7, -1), minus_one_col_char(k, 7)))
            bad = [f"at {at}: stanley={got} product={want}"
                   for at, got, want in sides if got != want]
            return not bad or "; ".join(bad)
        yield f"minus-one k={k}", check


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
_SUITES = tuple(_SUITE_BUILDERS)


def _cmd_verify(args) -> int:
    selected = _SUITES if args.suite == "all" else (args.suite,)
    write = sys.stdout.write
    passes = failures = 0
    # one case at a time, its line written once as its check returns; a
    # check passes only by returning True, and anything else it returns, or
    # the exception it raises, is the reason it failed
    for suite in selected:
        for name, check in _SUITE_BUILDERS[suite](args):
            try:
                result = check()
            except Exception as exc:
                result = f"{type(exc).__name__}: {exc}"
            if result is True:
                write(f"PASS {name}\n")
                passes += 1
            else:
                write(f"FAIL {name}: {result}\n")
                failures += 1
    write(f"verify: {passes} passed, {failures} failed\n")
    return 1 if failures else 0


# bench ------------------------------------------------------------------------

def _cmd_bench(args) -> int | str:
    p, q = args.p, args.q
    if (why := _refusal("closed", Partition((args.k[-1],)), p, q)) is not None:
        return why
    rows = []
    for k in args.k:
        pi = Partition((k,))
        values = {}
        for method, evaluate in _ROUTES.items():
            if _refusal(method, pi, p, q) is not None:
                continue
            start = time.perf_counter_ns()
            value = evaluate(pi, p, q)
            elapsed = time.perf_counter_ns() - start
            values[method] = value
            rows.append([method, k, p, q, elapsed, str(value)])
        if len(set(values.values())) > 1:
            detail = ", ".join(f"{m}={v}" for m, v in sorted(values.items()))
            print(f"bench: methods disagree at k={k}: {detail}",
                  file=sys.stderr)
            return 1
    import csv
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["method", "k", "p", "q", "elapsed_ns", "value"])
    writer.writerows(rows)
    return 0


# wiring -----------------------------------------------------------------------

def _eval_arguments(parser) -> None:
    parser.add_argument("--method", choices=tuple(_ROUTES), required=True)
    parser.add_argument("--cycle", type=_cycle_type, required=True,
                        help="cycle type, e.g. 3 or 3,2")
    parser.add_argument("--p", type=_positive_int, required=True,
                        help="number of rows")
    parser.add_argument("--q", type=_positive_int, required=True,
                        help="row length")
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    parser.set_defaults(func=_cmd_eval)


def _poly_arguments(parser) -> None:
    parser.add_argument("--kind", choices=("stanley", "G", "H", "I", "J"),
                        required=True)
    parser.add_argument("--cycle", type=_cycle_type,
                        help="cycle type; kind stanley only")
    parser.add_argument("--two-d", dest="two_d", type=int,
                        help="twice the half-difference d; G/H/I/J only")
    parser.set_defaults(func=_cmd_poly)


def _verify_arguments(parser) -> None:
    parser.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    parser.add_argument("--k-max", dest="k_max", type=_positive_int,
                        default=6)
    parser.add_argument("--pq-max", dest="pq_max", type=_positive_int,
                        default=6)
    parser.add_argument("--threads", type=int, choices=(1,), default=1)
    parser.set_defaults(func=_cmd_verify)


def _bench_arguments(parser) -> None:
    parser.add_argument("--k", type=_cycle_list, required=True,
                        help="comma-separated cycle lengths")
    parser.add_argument("--p", type=_positive_int, default=6)
    parser.add_argument("--q", type=_positive_int, default=7)
    parser.set_defaults(func=_cmd_bench)


# each command, in the usage's order, to its help text and its arguments
_COMMANDS = {
    "eval": ("evaluate one normalized character", _eval_arguments),
    "poly": ("print an exact polynomial", _poly_arguments),
    "verify": ("run identity cross-checks", _verify_arguments),
    "bench": ("time the methods against each other", _bench_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one command named."""
    parser = argparse.ArgumentParser(
        prog="rectchar",
        description="Exact rectangle characters of symmetric groups.")
    # with one command built, the metavar keeps every command in the usage
    # that an error past it prints; with all built it stays unset, so the
    # missing and invalid-choice errors name the argument "command"
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else (command,):
        text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named command builds its own parser only; help, no arguments and an
    # unknown command build every command's
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    # sides and values past 4300 digits parse and print too, and the limit
    # comes back on every exit; a Python without the limit has neither call
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        args = parser.parse_args(argv)
        # a command that refuses its input returns the reason
        result = args.func(args)
        if isinstance(result, str):
            print(f"{args.command}: {result}", file=sys.stderr)
            return 2
        return result
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
