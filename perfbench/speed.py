"""The speed of the machine, measured next to the work being timed.

The measuring host's speed drifts by tens of percent over seconds to
minutes, as other tenants load the cores it shares, and the drift moves a
small pure-Python reference loop and rectchar alike: over a verify
repetition their times correlate at about 0.95.  So the benchmark times the
reference loop while it times rectchar, and rescales each time to the speed
at which the loop takes REFERENCE_NS.  Dividing by the measured slowdown
cuts the spread of a run's figures three- to sixfold on that host.

The loop's working set is a few kilobytes, so it measures the core, not the
caches that the work under test fills: loops over megabytes ran twice as
slowly inside a verify run as on their own.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter_ns

# The reference loop's median time on the machine of baseline.json.  It is
# the unit of the rescaled times, so it must not change between runs that
# are compared.
REFERENCE_NS = 325_000
PROBE_INTERVAL_S = 0.02
# A call is rescaled by the samples taken within this many seconds of it,
# and by at least this many samples.
PROBE_WINDOW_S = 0.25
PROBE_MIN_SAMPLES = 10


def reference_loop() -> None:
    """Small-int, dict, Fraction and big-int work, as rectchar does."""
    acc, seen = 0, {}
    for i in range(700):
        acc = (acc * 31 + i) % 1000003
        seen[i & 63] = acc
    total = Fraction(0)
    for i in range(1, 14):
        total += Fraction(i, i + 1) * Fraction(3, i + 2)
    big = 3 ** 400
    for i in range(50):
        acc = (acc + big * (i + 1) // (i + 7)) % 10 ** 300


def slowdown_now(samples: int = 15) -> float:
    """The slowdown over a few reference loops run right now."""
    reference_loop()  # warm
    times = []
    for _ in range(samples):
        start = perf_counter_ns()
        reference_loop()
        times.append(perf_counter_ns() - start)
    return statistics.fmean(times) / REFERENCE_NS


class SpeedProbe:
    """Times the reference loop from a SIGALRM handler while the body runs.

    ``spent_ns`` is the probe's own time, which the caller takes out of the
    times it measures.  ``slowdown(start, end)`` is the mean reference time
    around a span, over REFERENCE_NS: a span's time divided by it reads as
    it would at the reference speed.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.samples: list[int] = []
        self.spent_ns = 0
        self._previous = None
        for _ in range(3):  # warm, so the first sample is not a cold call
            reference_loop()

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter_ns()
        reference_loop()
        elapsed = perf_counter_ns() - start
        self.starts.append(start)
        self.samples.append(elapsed)
        self.spent_ns += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._sample()  # a body shorter than the interval still gets two
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def slowdown(self, start: int, end: int) -> float:
        """Over the samples within PROBE_WINDOW_S of the span [start, end],
        widened to the PROBE_MIN_SAMPLES nearest when there are fewer."""
        pad = int(PROBE_WINDOW_S * 1e9)
        low = bisect.bisect_left(self.starts, start - pad)
        high = bisect.bisect_right(self.starts, end + pad)
        while high - low < min(PROBE_MIN_SAMPLES, len(self.starts)):
            before = start - self.starts[low - 1] if low else None
            after = self.starts[high] - end if high < len(self.starts) else None
            if after is None or (before is not None and before < after):
                low -= 1
            else:
                high += 1
        return statistics.fmean(self.samples[low:high]) / REFERENCE_NS
