"""Timing normalised for the machine's current speed.

The benchmark shares its machine with other work, which slows pure-Python
code by up to 2x, in episodes from a second to minutes long.  On a 2-vCPU
Xeon at 2.0 GHz, 20-second medians of a fixed loop spread by 26% between
their quartiles, so raw wall times of two identical runs are not
comparable.

A fixed reference kernel with the program's instruction mix (tuples,
sorting, dicts, Fractions, string formatting) tracks that speed.  While a
command runs, a SIGALRM timer interrupts it every PERIOD seconds, in the
same thread, and times one kernel run; the kernel is also timed just
before and just after the command.  The command's normalised time is its
wall time, minus the time spent in the kernel, times the mean of
``KERNEL_S / kernel time`` over those samples: the time the command would
have taken on a machine running the kernel in ``KERNEL_S``.  For a fixed
generate command this cut the spread of single timings from 9% (raw) to
3% (coefficient of variation).  The kernel is independent of the program,
so a faster program still shows as a smaller number.  Changing the
kernel, ``KERNEL_S`` or ``PERIOD`` changes every reported time.
"""
from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction
from typing import Callable

# Kernel time on an uncontended core of the Xeon above with Python 3.11,
# so normalised seconds read close to wall seconds on a quiet machine.
KERNEL_S = 0.0014
PERIOD = 0.1
BRACKET_REPEATS = 5


def kernel() -> tuple:
    rng = random.Random(7)
    counts: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    label = ""
    for i in range(600):
        order = tuple(sorted((rng.random(), j) for j in range(4)))
        key = (order[0][1], i % 97)
        counts[key] = counts.get(key, 0) + 1
        if i % 10 == 0:
            acc += Fraction(i, 7 + i % 13)
        label = f"{i}:{order[1][1]}"
    return len(counts), acc, label


def bracket() -> float:
    """Median of a few back-to-back kernel timings: the speed right now."""
    samples = []
    for _ in range(BRACKET_REPEATS):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Speedometer:
    """Times calls in wall and normalised seconds; owns SIGALRM while it lives."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self._samples.append(took)
        self._paused += took

    def measure(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run ``fn``; return its result, wall seconds and normalised seconds,
        both without the time spent sampling."""
        self._samples = [bracket()]
        self._paused = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= self._paused
        self._samples.append(bracket())
        return result, wall, wall * statistics.fmean(KERNEL_S / s for s in self._samples)

    @staticmethod
    def measure_external(fn: Callable[[], object]) -> tuple[float, float]:
        """Wall and normalised seconds of ``fn`` waiting on another process,
        which sampling in this one would not pause: bracketed only."""
        before = bracket()
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        return wall, wall * KERNEL_S * 2 / (before + bracket())
