"""Tests of the benchmark harness itself, not of rectchar.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import rectchar  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert list(run.WHY) == list(worker.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        tracer.per_layer_metrics())
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_at_tiny_size(trace):
    done = _run("--workload", "all", "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = _spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(result["metrics"]) == {f"{w['name']}.{name}"
                                      for w in spec["workloads"]
                                      for name in names}
    for name in names:
        assert f"  {name} " in done.stdout  # the readable report names it
    assert "failed_ratio" in done.stdout


def test_single_workload_prints_exactly_the_spec_metrics():
    done = _run("--workload", "closed-near", "--seed", "1", "--seconds", "0",
                "--trace", "0", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "closed-near", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = worker.make_inputs(workload, 7, 2)
    assert first == worker.make_inputs(workload, 7, 2)
    assert len(first) >= 1
    if workload != "verify-grid":  # a fixed grid: the seed does not change it
        assert first != worker.make_inputs(workload, 8, 2)
        assert first != worker.make_inputs(workload, 7, 3)


def test_closed_inputs_stay_on_their_side_of_the_cliff():
    for seed in range(5):
        for _, (k, p, q) in worker.make_inputs("closed-near", seed, 0):
            assert abs(q - p) <= k and 1 <= min(p, q) and max(p, q) <= 10**12 + k
        for _, (k, p, q) in worker.make_inputs("closed-far", seed, 0):
            assert 300 <= abs(q - p) < 2000 and k <= 30


def test_probe_time_is_taken_out_of_each_call():
    def spin():  # runs for 150 ms of wall time, probe samples included
        start = time.perf_counter_ns()
        while time.perf_counter_ns() - start < 150_000_000:
            pass

    probe = speed.SpeedProbe()
    with probe:
        _, op_ns, spans = worker.run_ops([("spin", ())], {"spin": spin},
                                         probe)
    inside = probe.samples[1:-1]  # the first and last are outside the call
    assert len(inside) >= 5
    assert op_ns[0] == pytest.approx(150_000_000 - sum(inside), rel=0.02)
    assert probe.slowdown(*spans[0]) == pytest.approx(
        statistics.fmean(probe.samples) / speed.REFERENCE_NS)


def test_slowdown_is_local_to_the_call():
    probe = speed.SpeedProbe()
    step = 20_000_000  # a sample every 20 ms for 2 s, twice as slow after 1 s
    probe.starts = [i * step for i in range(100)]
    probe.samples = [speed.REFERENCE_NS * (1 if i < 50 else 2)
                     for i in range(100)]
    assert probe.slowdown(10 * step, 20 * step) == 1
    assert probe.slowdown(70 * step, 80 * step) == 2
    # beyond the last sample: the ten nearest
    assert probe.slowdown(200 * step, 201 * step) == 2
    # a span across the change takes every sample within the window of it
    assert probe.slowdown(49 * step, 50 * step) == pytest.approx(1.5)


def _wrong_on_call(fn, bad_call: int, wrong):
    seen = []

    def wrapper(*args):
        seen.append(args)
        value = fn(*args)
        return wrong(value) if len(seen) == bad_call else value

    return wrapper


def _raise(_value):
    raise ZeroDivisionError("injected")


@pytest.mark.parametrize("workload, name, wrong", [
    ("closed-near", "ch_rect_fast", lambda v: v + 1),
    ("closed-far", "ch_rect_fast", _raise),
    ("stanley-cold", "stanley_eval", lambda v: v - 1),
    ("stanley-cold", "stanley_poly", lambda v: v + 1),
])
def test_injected_wrong_value_is_counted_not_fatal(workload, name, wrong):
    api = worker.public_api()
    api[name] = _wrong_on_call(api[name], 2, wrong)
    result = worker.run_rep(workload, 5, 0, "tiny", api=api)
    assert result["attempted"] == len(worker.make_inputs(workload, 5, 0, "tiny"))
    assert result["failed"] == 1
    assert len(result["messages"]) == 1


def test_verify_fail_lines_are_counted():
    def failing_verify(argv):
        return 1, "PASS a\nFAIL b\nFAIL c\nverify: 1 passed, 2 failed\n"

    result = worker.run_rep("verify-grid", 1, 0, "tiny",
                            api={"verify": failing_verify})
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert result["messages"] == ["FAIL b", "FAIL c"]


class _InProcessRunner(run.Runner):
    """Runs repetitions in this process, so a test can inject a fault."""

    def __init__(self, api: dict) -> None:
        super().__init__(deadline=float("inf"))
        self.api = api

    def setup_s(self) -> tuple[float, float]:
        return 0.04, 0.04

    def rep(self, workload, seed, rep, size, trace):
        return worker.run_rep(workload, seed, rep, size, trace, self.api)


def test_failed_ratio_reports_injected_faults(capsys):
    api = worker.public_api()
    api["ch_rect_fast"] = _wrong_on_call(api["ch_rect_fast"], 3,
                                         lambda v: -v - 1)
    report = run.run_workload(_InProcessRunner(api), "closed-near", 2, 0,
                              "tiny", trace=False)
    calls = len(worker.make_inputs("closed-near", 2, 0, "tiny"))
    assert (report["attempted"], report["failed"]) == (calls, 1)
    run.print_report(report)
    assert f"failed_ratio {1 / calls:>14.6f} (1 of {calls})" in (
        capsys.readouterr().out)


def _bindings() -> list:
    """Names under which other modules bind the traced functions."""
    return [rectchar.cli.normalized_character,
            rectchar.stanley.factorization_histogram,
            rectchar.closed.extended_product,
            vars(rectchar._poly._Poly2)["__rmul__"]]


def test_tracer_wraps_every_binding_and_restores_it():
    originals = _bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        assert all(a is not b for a, b in zip(_bindings(), originals))
        assert rectchar.ch_rect_fast(5, 3, 700) == rectchar.closed_char_ed(
            5, Fraction(703, 2), Fraction(697, 2), "odd")
    finally:
        spans.uninstall()
    assert all(a is b for a, b in zip(_bindings(), originals))
    metrics = spans.metrics()
    assert metrics["closed.ch_rect_fast.calls"] == 1
    # a 5-cycle on 3 x 700: extended_product runs from 0 down to 3 - 349
    assert metrics["exact.extended_product.factors"] == 347
    assert 0 < metrics["closed.ch_rect_fast.self_ms"] <= (
        metrics["closed.ch_rect_fast.total_ms"])


def test_absent_target_reads_zero(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("closed", "no_longer_here", "factors", None),))
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert spans.absent == ["closed.no_longer_here"]
    assert spans.metrics()["closed.no_longer_here.factors"] == 0


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      1739 |       1739 |     rectchar.exact\n"
              "import time:       906 |      45133 | rectchar\n")
    parsed = tracer.parse_importtime(stderr)
    assert parsed["setup.rectchar_ms"] == 45.133
    assert parsed["setup.exact_ms"] == 1.739
    assert parsed["setup.closed_ms"] == 0
