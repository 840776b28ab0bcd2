"""Seeded benchmark of rectchar's three routes, run from outside the library.

    python3 perfbench/run.py --workload closed-far --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each repetition of a workload runs in a fresh single-threaded process
(worker.py) that imports rectchar from src/, times every public API call
and then checks each value against a different route.  Repetitions run
until --seconds have passed.  Set-up time is the median of several fresh
``import rectchar`` processes.

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of traced repetitions, each run
next to an untraced one so that the tracing overhead is measured too.
Everything before the last line is the readable report and run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import parse_importtime, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

WHY = {
    "verify-grid": "the verify cross-check users run over the whole grid; "
                   "the Murnaghan-Nakayama oracle carries most of its time",
    "stanley-cold": "cycle types of size 7-9 seen once per process, so each "
                    "pays the k! joint-cycle table that every stanley eval pays",
    "closed-near": "single cycles up to 99 with |q - p| <= k on sides up to "
                   "1e12, where the closed route is fast and must stay so",
    "closed-far": "single cycles with |q - p| of 300-2000, the quadratic "
                  "|q - p| cliff of the closed route",
}

# name, unit; each is read from the untraced repetitions.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = per_layer_metrics()

SETUP_RUNS = 11
IMPORTTIME_RUNS = 3
DEADLINE_S = 170  # per workload: a run ends inside the 180 s it may take

# The slowdown is measured after the import, whose time it would change if
# it ran first (the reference loop imports fractions, as rectchar does).
_IMPORT_TIMER = ("import sys, time; start = time.perf_counter(); import rectchar; "
                 "elapsed = time.perf_counter() - start; "
                 f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
                 "import speed; print(elapsed, speed.slowdown_now())")


class HarnessError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts the child processes of one benchmark run, each to completion."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")

    def python(self, *args: str) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("out of time before the run finished")
        try:
            done = subprocess.run([sys.executable, *args], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise HarnessError(f"timed out: python {' '.join(args)}") from None
        if done.returncode != 0:
            tail = "\n".join(done.stderr.strip().splitlines()[-5:])
            raise HarnessError(f"python {' '.join(args)} exited with "
                               f"{done.returncode}:\n{tail}")
        return done

    def setup_s(self) -> tuple[float, float]:
        """Median time of a fresh-process ``import rectchar``, rescaled to
        the reference speed, and the median as measured."""
        rescaled, raw = [], []
        for _ in range(SETUP_RUNS):
            out = self.python("-c", _IMPORT_TIMER).stdout.strip().splitlines()
            elapsed, slowdown = map(float, out[-1].split())
            rescaled.append(elapsed / slowdown)
            raw.append(elapsed)
        return statistics.median(rescaled), statistics.median(raw)

    def setup_layers(self) -> dict[str, float]:
        samples = [parse_importtime(self.python(
            "-X", "importtime", "-c", "import rectchar").stderr)
            for _ in range(IMPORTTIME_RUNS)]
        return {name: statistics.median(s[name] for s in samples)
                for name in samples[0]}

    def rep(self, workload: str, seed: int, rep: int, size: str,
            trace: bool) -> dict:
        args = [str(WORKER), "--workload", workload, "--seed", str(seed),
                "--rep", str(rep), "--size", size]
        out = self.python(*args, *(["--trace"] if trace else [])).stdout
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise HarnessError(f"worker printed no result for {workload} "
                               f"rep {rep}") from None


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * share - 1e-9))
    return ordered[rank - 1]


def run_workload(runner: Runner, workload: str, seed: int, seconds: float,
                 size: str, trace: bool) -> dict:
    """All repetitions of one workload, aggregated into one report."""
    setup_s, raw_setup_s = runner.setup_s()
    plain, traced = [], []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        rep = len(plain)
        # The second process of a pair tends to run faster, so the traced
        # one goes first on odd repetitions, second on even ones.
        if trace and rep % 2:
            traced.append(runner.rep(workload, seed, rep, size, trace=True))
        plain.append(runner.rep(workload, seed, rep, size, trace=False))
        if trace and not rep % 2:
            traced.append(runner.rep(workload, seed, rep, size, trace=True))
    reps = plain + traced
    op_ms = [ms for r in plain for ms in r["op_ms"]]
    raw_op_ms = [ms for r in plain for ms in r["raw_op_ms"]]
    report = {
        "workload": workload,
        "record": {
            "seed": seed,
            "python": platform.python_version(),
            "kernel_backend": plain[0]["kernel_backend"],
            "nproc": len(os.sched_getaffinity(0)),
            "size": size,
            "repetitions": len(plain),
            "calls_per_repetition": [r["calls"] for r in plain],
            "timed_calls": len(op_ms),
            "slowdown": {"median": statistics.median(r["slowdown"] for r in plain),
                         "min": min(r["slowdown"] for r in plain),
                         "max": max(r["slowdown"] for r in plain)},
            "why": WHY[workload],
        },
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "messages": [m for r in reps for m in r["messages"]][:10],
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_ms.p50": percentile(op_ms, 0.5),
            "op_ms.p90": percentile(op_ms, 0.9),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        },
        # the same times as measured, before rescaling to the reference speed
        "raw": {
            "setup_s": raw_setup_s,
            "wall_s": statistics.median(r["raw_wall_s"] for r in plain),
            "op_ms.p50": percentile(raw_op_ms, 0.5),
            "op_ms.p90": percentile(raw_op_ms, 0.9),
        },
    }
    if trace:
        layers = {name: statistics.fmean(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers.update(runner.setup_layers())
        layers["trace_overhead_ratio"] = (
            statistics.median(r["raw_wall_s"] for r in traced)
            / statistics.median(r["raw_wall_s"] for r in plain))
        report["per_layer"] = {name: layers.get(name, 0.0)
                               for name, _ in PER_LAYER}
        report["record"]["absent"] = traced[0]["absent"]
        report["record"]["unlisted_caches"] = traced[0]["extra_caches"]
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}: {report['record']['why']}")
    print("record " + json.dumps(report["record"]))
    units = dict(END_TO_END)
    for name, value in report["end_to_end"].items():
        print(f"  {name:<12} {value:>14.6f} {units[name]}")
    for name, value in report["raw"].items():
        print(f"  {'raw ' + name:<12} {value:>14.6f} {units[name]} (as measured)")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'failed_ratio':<12} {failed / attempted:>14.6f} "
          f"({failed} of {attempted})")
    for message in report["messages"]:
        print(f"  FAILED {message}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<48} {value:>14.6f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WHY, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small calls, for the harness tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rectchar" / "__init__.py").is_file():
        print(f"run.py: no rectchar package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = list(WHY) if args.workload == "all" else [args.workload]
    runner = Runner(time.monotonic() + DEADLINE_S * len(workloads))
    key = "per_layer" if args.trace else "end_to_end"
    reports = []
    try:
        for workload in workloads:
            reports.append(run_workload(runner, workload, args.seed,
                                        args.seconds, args.size,
                                        bool(args.trace)))
            print_report(reports[-1])
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for name, value in report[key].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
