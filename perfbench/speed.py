"""A reference clock: the process's CPU time scaled by the host's speed.

On a shared host the CPU time of the same work changes with what the other
tenants do: a fixed Python loop took 26-41 ms of CPU, switching between the
two levels every second or so, and drifting by up to 2x over minutes.  A
benchmark that reports plain CPU (or wall) time then measures the host.

`RefClock` measures the host's speed while the work runs.  Every
`TICK_S` of wall time a SIGALRM handler runs `calibrate`, a fixed loop that
does not touch planarlab, and times it in CPU time.  The speed factor is
`NOMINAL_S` over the median of the last `WINDOW` loop times, raised to the
power `sensitivity`, and the clock advances by the CPU time spent outside
the handler times that factor.  A reading is therefore in reference seconds,
roughly the CPU time the work would have taken on a host where the loop
takes `NOMINAL_S`.  A change to planarlab moves the work's CPU time and not the
loop's, so it shows in full.

The loop is the kind of work planarlab's field kernels do at small q: numpy
indexing and ufunc calls on 25-element arrays, so per-call overhead.  Of the
loops tried it followed the work best (NOTES.md, "Reference seconds").  The
host slows each workload by its own share of what it does to the loop, so
`sensitivity` is the workload's (`SENSITIVITY` in workloads.py).

`process_time` is read outside the handler only: inside the handler of a
process CPU-time itimer (ITIMER_PROF) it did not advance on the machine the
benchmark was built on, which is why the ticks are wall-clock (ITIMER_REAL).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The loop time that counts as speed 1: about the loop's CPU time when timed
# back to back in an otherwise idle process on the machine the benchmark was
# built on (2-vCPU shared VM, Intel Xeon, Python 3.11, numpy 2.4).  It sets
# the scale of every reported time, not its spread.
NOMINAL_S = 2.5e-4
TICK_S = 0.02
WINDOW = 7

_INDEX = np.arange(25, dtype=np.int32)
_STEP = (_INDEX * 7) % 25
_TABLE = (np.arange(625, dtype=np.int32) % 25).reshape(25, 25)


def _loop():
    a = _INDEX
    for _ in range(30):
        a = _TABLE[a, _STEP] + 1
        a %= 25
    return a


def calibrate() -> float:
    """Run the fixed loop twice; returns the CPU time of the second run in
    seconds.  The first run brings the loop's code and data back into the
    caches after the work has evicted them: timed, it took 1.2-1.35 times as
    long as the second after mub-verify- and algebra-like work, and 0.94
    times after census-like work, so it measured the work as well as the
    host."""
    _loop()
    t0 = time.process_time()
    _loop()
    return time.process_time() - t0


def factor_of(loop_s: list[float], sensitivity: float) -> float:
    return (NOMINAL_S / statistics.median(loop_s)) ** sensitivity


class RefClock:
    """Reference seconds since `start`; see the module docstring."""

    def __init__(self, sensitivity: float) -> None:
        self.sensitivity = sensitivity
        self.loop_s: list[float] = []
        self.ref = 0.0
        self.last = 0.0
        self.factor = 1.0
        self.start_cpu_s = 0.0  # process CPU time when `start` was called
        self.start_factor = 1.0
        self.calib_cpu_s = 0.0  # CPU time spent in the loop, first window included
        self.ticks = 0

    def start(self) -> None:
        self.start_cpu_s = time.process_time()
        self.loop_s = [calibrate() for _ in range(WINDOW)]
        self.factor = self.start_factor = factor_of(self.loop_s, self.sensitivity)
        self.ref = 0.0
        self.last = time.process_time()
        self.calib_cpu_s = self.last - self.start_cpu_s
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_) -> None:
        t0 = time.process_time()
        self.ref += (t0 - self.last) * self.factor
        self.loop_s.append(calibrate())
        self.factor = factor_of(self.loop_s[-WINDOW:], self.sensitivity)
        self.last = time.process_time()
        self.calib_cpu_s += self.last - t0
        self.ticks += 1

    def now(self) -> float:
        while True:  # a tick between the reads would mix two states
            ticks = self.ticks
            value = self.ref + (time.process_time() - self.last) * self.factor
            if ticks == self.ticks:
                return value
