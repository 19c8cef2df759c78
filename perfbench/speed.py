"""The machine's speed, sampled while the benchmark runs, and times
scaled by it.

On a shared host the same code runs at two speeds that alternate every
second or so, about 1.8x apart: a fixed solve takes 0.32 s or 0.57 s,
and a fixed pure-Python loop 24 ms or 40 ms, in step.  Spells of either
speed last from under a second to tens of seconds, so a run's wall time
depends on the share of slow spells it happened to get.

A ``Speedometer`` runs a fixed reference kernel on a
``SIGALRM`` interval timer, every ``PERIOD_S`` seconds, interleaved
with the code being measured, and records when each kernel run started
and how long it took.  ``scaled(start, end)`` is then the wall time of
[start, end) minus the kernel runs inside it, divided by the slowdown
over that interval: the mean kernel time near it over ``NOMINAL_S``.
Scaled times read as seconds at the speed where the kernel takes
``NOMINAL_S``.  ``kernel`` is pure Python and uses the standard library
only, so it can also time the imports of set-up.  It mixes interpreter work with reads
scattered over a few megabytes: the solver slows more than pure
interpreter work does when the host is busy, and the scattered reads
close most of that gap (scaled times of a fixed solve spread 6-7%
between quartiles, against 10-13% with interpreter work alone and 32%
unscaled).  Solves are timed with ``make_solver_kernel()``: half of
``kernel`` plus the kind of library calls a solve makes.  In one process
that sampled ``kernel`` and those calls in turn, the standard deviation
of log(pass time) over eight passes of the sweep was 5.2% scaled by
``kernel`` alone and 3.1% scaled by both; on the tree it was 3.9% and
3.2%, and on the scale instance 1.0% and 1.4%.

Python runs signal handlers between bytecodes of the main thread, so a
sample that falls due during a long C call (an LU factorization) runs
when the call returns; samples are never nested.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

PERIOD_S = 0.025
# A sample counts towards an interval if it started within this much of it.
# Single kernel runs are noisy, so a sweep solve of a few milliseconds
# needs the average of many; half a second is shorter than most spells of
# one speed.  Over ten runs of each workload scaled by ``kernel``, the
# standard deviation of log(pass_s) fell from 8% at 50 ms to 6% at 0.5 s
# on the sweep, and stayed near 3% on the tree.
WINDOW_S = 0.5
MIN_SAMPLES = 3
# About the time of either kernel, run on its own, on a 2-vCPU x86_64
# (SkylakeX) host at its fast speed: scaled times are close to wall
# times there.  It is a unit; changing it rescales every baseline.
NOMINAL_S = 0.001
KERNEL_STEPS = 1000
KERNEL_READS = 3000
WARMUP_RUNS = 20

# About 6 MB of float objects and the order the kernel reads them in.
_TABLE = [float(i) for i in range(200_000)]
_READS = [(i * 7919) % len(_TABLE) for i in range(KERNEL_READS)]


def kernel(steps: int = KERNEL_STEPS, reads: int = KERNEL_READS) -> float:
    """Fixed interpreter work (dict updates, float arithmetic, a sort)
    and scattered reads from a table larger than the caches."""
    counts: dict[int, int] = {}
    keys = []
    acc = 0.0
    for i in range(steps):
        k = i % 61
        counts[k] = counts.get(k, 0) + i
        acc += (i * 0.5) / (k + 1.0)
        keys.append(k ^ 0x2A)
    keys.sort()
    table = _TABLE
    for j in _READS[:reads]:
        acc += table[j]
    return acc + len(counts) + keys[-1]


def make_solver_kernel():
    """A kernel for timing solves: half of ``kernel``, plus a 40-row dense
    LU factor and solve, small array arithmetic, a JSON round trip and a
    sort of small tuples, as a solve of the sweep makes them.  It imports
    numpy and scipy, so set-up, which times their import, uses ``kernel``.
    """
    import json

    import numpy
    import scipy.linalg

    rng = numpy.random.default_rng(0)
    matrix = rng.random((40, 40)) + 40.0 * numpy.eye(40)
    rhs = rng.random(40)
    vector = rng.random(400)
    doc = {f"k{i}": [i, i * 0.5, "x" * (i % 7)] for i in range(40)}

    def solver_kernel() -> float:
        acc = kernel(KERNEL_STEPS // 2, KERNEL_READS // 2)
        for _ in range(2):
            factor = scipy.linalg.lu_factor(matrix.copy())
            acc += float(scipy.linalg.lu_solve(factor, rhs)[0])
            shifted = vector * 2.0 + 1.0
            acc += float(numpy.argmin(shifted)) + float(numpy.dot(vector, shifted))
        acc += len(json.loads(json.dumps(doc)))
        pairs = sorted(((i * 7919) % 101, i) for i in range(150))
        return acc + pairs[0][1]

    return solver_kernel


class Speedometer:
    """Samples the kernel's time on a timer while the ``with`` block runs."""

    def __init__(self, period_s: float = PERIOD_S, kernel=kernel):
        self.period_s = period_s
        self.kernel = kernel
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def __enter__(self) -> "Speedometer":
        for _ in range(WARMUP_RUNS):
            self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def paused(self, start: float, end: float) -> float:
        """Time the kernel took away from [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return math.fsum(self.durations[lo:hi])

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over the samples near [start, end), over
        ``NOMINAL_S``; at least ``MIN_SAMPLES`` samples, the nearest."""
        n = len(self.starts)
        if n == 0:
            raise ValueError("no speed samples")
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, n):
            before = start - self.starts[lo - 1] if lo > 0 else math.inf
            after = self.starts[hi] - end if hi < n else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return math.fsum(self.durations[lo:hi]) / (hi - lo) / NOMINAL_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds [start, end) would take at the nominal speed."""
        return (end - start - self.paused(start, end)) / self.slowdown(start, end)
