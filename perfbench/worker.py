"""One benchmark repetition, run in a fresh single-threaded process.

The worker builds the inputs of one repetition from (workload, seed, rep),
imports rectchar, times each public API call, then checks every value
against a different route with the clock stopped, and prints one JSON
object on its last line of output.  With --trace it first installs the
wrappers of tracer.py, and removes them again before checking, so the
checks never show in the per-layer numbers.

An untraced repetition also measures the speed of the machine while it
times (speed.py), and rescales each call's time to a fixed reference speed.

    python3 perfbench/worker.py --workload closed-near --seed 1 --rep 0

run.py starts this script once per repetition; it is not meant to be run
on its own except for debugging.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import resource
import sys
from fractions import Fraction
from time import perf_counter_ns

import rectchar
import rectchar.cli  # bound before tracing starts, so its names get wrapped
from speed import SpeedProbe
from tracer import Tracer, cache_metrics

WORKLOADS = ("verify-grid", "stanley-cold", "closed-near", "closed-far")

# Rectangles of at most this many boxes are checked by the oracle, as the
# CLI's ORACLE_CAP allows.
ORACLE_BOXES = 60
# Largest single cycle whose check goes through the Stanley table.
STANLEY_CHECK_K = 8


# inputs ------------------------------------------------------------------------

def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest), 0, -1):
        out += [(first,) + rest for rest in _partitions(n - first, first)]
    return out


def _eval_points(rng: random.Random) -> list[tuple]:
    """A small positive point and three rational ones, one non-positive.

    Rational points cost several times more than integer ones, so with one
    integer point per type the median call falls in the middle of the
    warm rational evaluations.
    """

    def rational(low: int, high: int) -> Fraction:
        return Fraction(rng.randint(low, high), rng.randint(2, 9))

    non_positive = (rational(-50, 0), rational(-50, 50))
    if rng.random() < 0.5:
        non_positive = non_positive[::-1]
    return [
        (rng.randint(1, 6), rng.randint(1, 6)),
        (rational(1, 50), rational(1, 50)),
        (rational(10**3, 10**6), rational(10**3, 10**6)),
        non_positive,
    ]


def _stanley_cold(rng: random.Random, tiny: bool) -> list:
    # The cold table costs about k!, so the number of types of each size
    # fixes the cost of a repetition whatever the seed.  One call in five
    # is cold, and six types of size 8 put the 90th percentile inside the
    # k = 8 table builds.
    counts = {3: 2, 4: 2, 5: 1} if tiny else {7: 3, 8: 6, 9: 1}
    types = []
    for k, count in counts.items():
        types += rng.sample(_partitions(k), count)
    rng.shuffle(types)
    ops = []
    for pi in types:
        calls = [("stanley_poly", (pi,))]
        calls += [("stanley_eval", (pi,) + point) for point in _eval_points(rng)]
        rng.shuffle(calls)
        ops += calls
    return ops


def _closed_near(rng: random.Random, tiny: bool) -> list:
    # Every cycle length four times, with |q - p| in each quarter of 0..k
    # once.  log10 p is spread evenly over 0..12, its strata paired with
    # these cells by a fixed rule, so every seed has the same cost profile.
    # The costs are spread thin around the median call, and a seed-drawn
    # mix moved op_ms.p50 by 9% between seeds.  The seed moves each value
    # inside its stratum and picks the sign of q - p and the order.
    cells = [(k, part) for k in range(1, 4 if tiny else 100) for part in range(4)]
    pairing = random.Random("closed-near").sample(range(len(cells)), len(cells))
    ops = []
    for (k, part), stratum in zip(cells, pairing):
        p = max(1, int(10 ** (12 * (stratum + rng.random()) / len(cells))))
        low, high = (k + 1) * part // 4, (k + 1) * (part + 1) // 4 - 1
        d = rng.choice((-1, 1)) * rng.randint(low, max(low, high))
        q = p + d if p + d >= 1 else p - d
        ops.append(("ch_rect_fast", (k, p, q)))
    rng.shuffle(ops)
    return ops


def _closed_far(rng: random.Random, tiny: bool) -> list:
    # Ten strata of (k, |q - p|, log10 p) per shape, paired by a fixed
    # rule, so every seed has the same cost profile; the seed moves each
    # value inside its stratum and picks the orientation.  The dearest
    # stratum stays under ~0.5 s per call at the seed commit.
    strata = 1 if tiny else 10
    ops = []
    for shape in ("one-row", "few-row", "large-p"):
        for i in range(strata):
            if tiny:
                k, diff = 1 + rng.randrange(5), 20 + rng.randrange(20)
            else:
                k = 1 + 3 * i + rng.randrange(3)
                diff = 300 + 170 * ((7 * i) % 10) + rng.randrange(170)
            if shape == "one-row":
                p = 1
            elif shape == "few-row":
                p = rng.randint(2, 5)
            else:
                p = int(10 ** (3 + 0.9 * ((3 * i) % 10 + rng.random())))
            p, q = p, p + diff
            if rng.random() < 0.5:
                p, q = q, p
            ops.append(("ch_rect_fast", (k, p, q)))
    rng.shuffle(ops)
    return ops


def make_inputs(workload: str, seed: int, rep: int, size: str = "full") -> list:
    """The calls of one repetition, as (operation, arguments) pairs."""
    tiny = size == "tiny"
    if workload == "verify-grid":
        bound = "3" if tiny else "7"
        return [("verify", (["verify", "--suite", "all", "--k-max", bound,
                             "--pq-max", bound, "--threads", "1"],))]
    rng = random.Random(f"{workload}:{seed}:{rep}")
    if workload == "stanley-cold":
        return _stanley_cold(rng, tiny)
    if workload == "closed-near":
        return _closed_near(rng, tiny)
    if workload == "closed-far":
        return _closed_far(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


# timed body ----------------------------------------------------------------------

def public_api() -> dict:
    """The operations, looked up now so installed wrappers are picked up."""

    def verify(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rectchar.cli.main(argv)
        return code, out.getvalue()

    return {
        "verify": verify,
        "stanley_poly": rectchar.stanley_poly,
        "stanley_eval": rectchar.stanley_eval,
        "ch_rect_fast": rectchar.ch_rect_fast,
    }


class Raised:
    """Stands for the value of a call that raised."""

    def __init__(self, exc: Exception) -> None:
        self.message = f"{type(exc).__name__}: {exc}"


def run_ops(ops: list, api: dict, probe: SpeedProbe | None = None
            ) -> tuple[list, list[int], list[tuple[int, int]]]:
    """Each call's value, its time without the probe's own, and its span
    on the clock."""
    values, op_ns, spans = [], [], []
    for name, args in ops:
        fn = api[name]
        probe_ns = probe.spent_ns if probe else 0
        start = perf_counter_ns()
        try:
            value = fn(*args)
        except Exception as exc:  # counted as a failed operation
            value = Raised(exc)
        end = perf_counter_ns()
        op_ns.append(end - start - ((probe.spent_ns - probe_ns) if probe else 0))
        spans.append((start, end))
        values.append(value)
    return values, op_ns, spans


# checks ------------------------------------------------------------------------------

_VERIFY_TOTALS = re.compile(r"^verify: (\d+) passed, (\d+) failed$")


def _positive_ints(*values) -> bool:
    return all(isinstance(x, int) and x >= 1 for x in values)


def _single_cycle_reference(k: int, p, q, via_stanley: bool):
    """Ch of a k-cycle at (p, q) by the oracle, Stanley or the (e, d) sum.

    The oracle takes small rectangles and one-row or one-column ones, whose
    hook sum is cheap at any size; the (e, d) sum shares neither the family
    helpers nor extended_product with ch_rect_fast.
    """
    if _positive_ints(p, q) and (p * q <= ORACLE_BOXES or min(p, q) == 1):
        return rectchar.normalized_character((k,), rectchar.rectangle(p, q))
    if via_stanley and k <= STANLEY_CHECK_K:
        return rectchar.stanley_eval((k,), p, q)
    half_sum, half_diff = Fraction(p + q, 2), Fraction(q - p, 2)
    parity = "odd" if half_diff.denominator == 2 else "even"
    return rectchar.closed_char_ed(k, half_sum, half_diff, parity)


def _oracle_point(pi: tuple) -> tuple[int, int]:
    k = sum(pi)
    return 3, max(3, -(-k // 3))


def _check(name: str, args: tuple, value) -> str | None:
    """None when the value is right, else why it is not."""
    if name == "ch_rect_fast":
        want = _single_cycle_reference(*args, via_stanley=True)
        return None if value == want else f"ch_rect_fast{args} = {value}, want {want}"
    pi = args[0]
    if name == "stanley_poly":
        sign = -1 if (sum(pi) - len(pi)) % 2 else 1
        if value.swap() != sign * value:
            return f"stanley_poly({pi}) breaks the transpose symmetry"
        p, q = _oracle_point(pi)
        want = rectchar.normalized_character(pi, rectchar.rectangle(p, q))
        got = value.evaluate(p, q)
        return None if got == want else (
            f"stanley_poly({pi}) at {p}x{q} is {got}, oracle {want}")
    if name == "stanley_eval":
        p, q = args[1], args[2]
        if len(pi) == 1:
            want = _single_cycle_reference(pi[0], p, q, via_stanley=False)
        elif _positive_ints(p, q) and p * q <= ORACLE_BOXES:
            want = rectchar.normalized_character(pi, rectchar.rectangle(p, q))
        else:  # a polynomial identity with the checked stanley_poly
            want = rectchar.stanley_poly(pi).evaluate(p, q)
        return None if value == want else f"stanley_eval{args} = {value}, want {want}"
    raise ValueError(f"no check for {name!r}")


def check(ops: list, values: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over one repetition's calls.

    A verify run counts each of its cases; a FAIL line, a non-zero exit
    code or a missing summary line counts as failed.
    """
    attempted = failed = 0
    messages = []
    for (name, args), value in zip(ops, values):
        if name == "verify":
            if isinstance(value, Raised):
                attempted, failed = attempted + 1, failed + 1
                messages.append(f"verify raised {value.message}")
                continue
            code, text = value
            lines = text.splitlines()
            totals = _VERIFY_TOTALS.match(lines[-1]) if lines else None
            if totals is None:
                attempted, failed = attempted + 1, failed + 1
                messages.append(f"verify printed no summary, exit code {code}")
                continue
            passed, bad = int(totals.group(1)), int(totals.group(2))
            if bad == 0 and code != 0:
                bad = 1
                messages.append(f"verify exit code {code} with 0 FAIL lines")
            attempted += passed + bad
            failed += bad
            messages += [line for line in lines if line.startswith("FAIL ")]
            continue
        attempted += 1
        if isinstance(value, Raised):
            failed += 1
            messages.append(f"{name}{args} raised {value.message}")
            continue
        try:
            problem = _check(name, args, value)
        except Exception as exc:  # a check that cannot run fails the call
            problem = f"check of {name}{args} raised {type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            messages.append(problem)
    return attempted, failed, messages


# one repetition ----------------------------------------------------------------------

def run_rep(workload: str, seed: int, rep: int, size: str = "full",
            trace: bool = False, api: dict | None = None) -> dict:
    """Time one repetition, then check it; the result as a JSON-able dict.

    ``api`` replaces the public operations, for tests of the harness.
    """
    ops = make_inputs(workload, seed, rep, size)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        calls = public_api() if api is None else api
        # The probe stays out of traced repetitions, whose spans it would
        # lengthen.
        probe = None if trace else SpeedProbe()
        with probe or contextlib.nullcontext():
            values, op_ns, spans = run_ops(ops, calls, probe)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer:
            tracer.uninstall()
    slowdowns = [probe.slowdown(*span) if probe else 1.0 for span in spans]
    op_ms = [ns / 1e6 / slow for ns, slow in zip(op_ns, slowdowns)]
    result = {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "kernel_backend": getattr(rectchar, "KERNEL_BACKEND", "absent"),
        "calls": len(ops),
        "slowdown": sum(op_ns) / 1e6 / sum(op_ms) if op_ms else 1.0,
        "probe_samples": len(probe.samples) if probe else 0,
        "raw_wall_s": sum(op_ns) / 1e9,
        "raw_op_ms": [ns / 1e6 for ns in op_ns],
        "wall_s": sum(op_ms) / 1e3,
        "op_ms": op_ms,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    if tracer:
        caches, extra_caches = cache_metrics()
        result["layers"] = {**tracer.metrics(), **caches}
        result["absent"] = tracer.absent
        result["extra_caches"] = extra_caches
    attempted, failed, messages = check(ops, values)
    result.update(attempted=attempted, failed=failed, messages=messages[:10])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_rep(args.workload, args.seed, args.rep, args.size, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
