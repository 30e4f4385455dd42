"""The host's speed, sampled between operations, to scale timings by.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth or more over tens of seconds (other tenants, frequency changes),
and each of its processors on its own, within seconds.  Raw timings of
two runs of the same code therefore differ by more than any change
worth measuring.  A run pins itself and its child processes to one
processor, times a fixed reference loop (standard library only, no
hssatlas code) every ``INTERVAL`` seconds between operations, and
reports each timing scaled to a host on which that loop takes
``NOMINAL_MS``:

    scaled = raw * NOMINAL_MS / median(reference loop times within
                                       WINDOW seconds of the timed span)

A change to the program cannot move the reference loop, so a gain or a
loss shows in the scaled timings as it does in the raw ones, while a
slow or fast stretch of the host cancels out.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import time

INTERVAL = 0.04  # seconds of other work between two reference samples
WINDOW = 0.5  # seconds on either side of a timed span whose samples scale it
MIN_SAMPLES = 9  # the nearest samples, if the window holds fewer
NOMINAL_MS = 2.0  # about the reference loop's time on a 2.1 GHz Xeon vCPU, Python 3.11


def pin_to_one_processor() -> None:
    """Run this process, and every process it starts, on one processor,
    so that the reference loop and the operations share its speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_loop() -> int:
    """Big-integer products and division, decimal conversion, dict and
    list work and small recursive calls: the kinds of work the
    workloads do, in a fixed mix."""
    value = math.factorial(2500) * 7919 // 104729
    text = str(value >> 12000)
    counts: dict[int, int] = {}
    for i in range(7000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    depth = _walk(20, [0] * 4)
    return len(text) + len(counts) + depth


def _walk(level: int, fill: list[int]) -> int:
    if level == 0:
        return 1
    fill[level & 3] += 1
    total = _walk(level - 1, fill)
    if level & 1:
        total += _walk(level - 2 if level > 1 else 0, fill)
    fill[level & 3] -= 1
    return total


class HostSpeed:
    """Reference-loop samples of one run and the scales they give."""

    def __init__(self) -> None:
        self.when: list[float] = []  # mid-point of each sample, increasing
        self.samples: list[float] = []  # its duration, seconds
        self.last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.when.append((start + end) / 2)
        self.samples.append(end - start)
        self.last = end

    def maybe_sample(self) -> None:
        """Sample if ``INTERVAL`` has passed since the last sample."""
        if time.perf_counter() - self.last >= INTERVAL:
            self.sample()

    def reference_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """Factor that turns a raw time of the span [start, end] of this
        run (of the whole run, without a span) into a scaled one."""
        if start is None:
            return NOMINAL_MS / self.reference_ms()
        lo = bisect.bisect_left(self.when, start - WINDOW)
        hi = bisect.bisect_right(self.when, end + WINDOW)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min(lo, hi - MIN_SAMPLES))
            hi = min(len(self.when), lo + MIN_SAMPLES)
        return NOMINAL_MS / (statistics.median(self.samples[lo:hi]) * 1e3)
