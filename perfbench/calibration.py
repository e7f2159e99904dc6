"""Gauge the box's speed while a run measures drlab, so that the reported
times do not move with the host's other load.

The box is a few vCPUs of a shared host, and its speed drifts with the
host's other load: within one hour the same cv-refined round went from
15 s to 7.2 s.  CPU time drifts as much as wall time, so the loss is
in work done per CPU-second, not in scheduling.  The slowdown is common to
every kind of work the program does, and it changes within seconds: two
reference blocks run back to back correlate at 0.85, blocks a few seconds
apart at 0.14.  So the gauge must run during the timed work itself.

`Sampler` does that: while it is active, a wall-clock timer interrupts the
main thread every `INTERVAL_S` seconds and runs one reference sample, a
fixed computation written here apart from drlab, so that no change to the
program moves it.  The sample is timed in thread CPU time; its speed is
`NOMINAL_S / time`, about 1 in this box's slow phases and 1.9 in its fast
ones.  Because the
samples are spread evenly in wall time, their mean speed is the mean speed
of the machine over the timed interval, and

    calibrated time = (wall time - time spent in samples) * mean speed

is the time the same work takes on a machine where a sample takes
`NOMINAL_S`.

A sample mixes scalar float calls in pure Python (like the orbit loops)
with numpy calls on arrays of about a thousand elements (like the curve
sweeps), in about equal time.  A third part, sampling and gathers on an
array of 10^5 elements, tracked every workload worse and was dropped.

The timer runs reference samples on the main thread only.  When drlab runs
its own worker threads, a sample competes with them for the box's two
vCPUs and measures the scheduler, so commands that use threads are not
timed under a `Sampler` (see workloads.py).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# thread CPU seconds one sample took, run back to back, on a 2-vCPU box
# (Python 3.11.7, numpy 2.4.6); it only scales the reported times,
# nothing is compared against it
NOMINAL_S = 0.012
INTERVAL_S = 0.2

_GRID = np.linspace(-0.5, 0.0, 1001)


def _scalar(n: int = 25_000) -> float:
    def step(x):
        return (1.0 + 2.0 * x) / (1.0 + x)

    x = 0.3
    total = 0.0
    for _ in range(n):
        x = 0.5 * (step(x) - 1.0) + 0.1
        total += x if x > 0.0 else -x
    return total


def _small_arrays(n: int = 300) -> float:
    g = _GRID.copy()
    for _ in range(n):
        g = 0.5 * (g + np.interp(_GRID + 0.5 * g, _GRID, g))
        np.minimum(g, 0.0, out=g)
    return float(g[0])


def reference_sample() -> float:
    """Run one reference sample; return its thread CPU time in seconds."""
    t0 = time.thread_time()
    _scalar()
    _small_arrays()
    return time.thread_time() - t0


def speed(sample_s: float) -> float:
    return NOMINAL_S / sample_s


class Sampler:
    """Runs reference samples on a timer while active (main thread only).

    `paused_s` is the wall time spent in samples, to be taken off the
    timed interval; `speeds` holds one speed per sample."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.speeds: list[float] = []
        self.paused_s = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.speeds.append(speed(reference_sample()))
        self.paused_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def mean_speed(self) -> float:
        """Mean speed over the samples; a sample taken now stands in when
        the interval was too short for the timer to fire."""
        if not self.speeds:
            self.speeds.append(speed(reference_sample()))
        return statistics.fmean(self.speeds)
