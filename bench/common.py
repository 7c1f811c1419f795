"""Shared pieces of the benchmark: paths, the machine-speed reference loop,
drift correction and order statistics.

The sandbox this benchmark was tuned on changes speed while it runs, by up
to a factor of 1.7 within a second and by 2x from one hour to the next.
Every timed figure is therefore multiplied by (nominal / measured time of a
fixed reference) ** exponent, with the reference sampled next to the work:
a corrected figure estimates the time the work would take on a machine
where the reference takes its nominal time.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Median time of one ref_loop() call on the machine the bounds were set on
# (2 vCPU sandbox, Python 3.11); see README.md.
REF_NOMINAL_S = 0.0040
REF_ITERS = 3000
# reference samples behind each item's factor: the speed switches within a
# second, so the factor follows the samples taken next to the item
WINDOW = 9


@dataclass(frozen=True)
class Reference:
    """How a workload samples the machine's speed: `sample()` times a fixed
    piece of work whose time at nominal speed is `nominal_s`; one sample is
    taken per `every_s` of item time, at most `max_per_item` after one item,
    and each item is corrected by (nominal / median of the WINDOW samples
    nearest it) ** `exponent`.  The exponent is the measured log-log slope
    of the workload's time against the reference's (see README.md)."""

    sample: Callable[[], float]
    nominal_s: float
    every_s: float
    max_per_item: int
    exponent: float

    def factor(self, samples) -> float:
        return (self.nominal_s / statistics.median(samples)) ** self.exponent


def use_source_tree():
    """Make `import prochain` load the package from this checkout."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _mix(a: int, b: int) -> int:
    return (a * 1103515245 + b) & 0xFFFFFF


def ref_loop(iters: int = REF_ITERS) -> int:
    """Fixed pure-Python work: small-int arithmetic, tuple keys, dict
    traffic, list slices and calls, the operations the package spends its
    time on.  Its result is returned so nothing is optimized away."""
    acc = 0
    table = {}
    row = list(range(24))
    for i in range(iters):
        j = i % 24
        row[j] = (row[(j + 5) % 24] * 3 + i) % 65521
        key = (j, row[j] & 15)
        table[key] = table.get(key, 0) + 1
        acc = _mix(acc, sum(row[j:j + 4]))
    return acc + len(table)


def ref_sample() -> float:
    t = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t


class DriftMeter:
    """Reference samples interleaved with timed items.

    tick() is called after every item; it takes a sample for every
    `every_s` of item time, so cheap items are not swamped by the reference
    and expensive ones get several.
    """

    def __init__(self, ref: Reference):
        self.ref = ref
        self.samples = [ref.sample()]
        self.marks = []       # per item: index of the last sample before it
        self._since = 0.0

    def tick(self, item_s: float):
        self.marks.append(len(self.samples) - 1)
        self._since += item_s
        taken = 0
        while self._since >= self.ref.every_s and taken < self.ref.max_per_item:
            self.samples.append(self.ref.sample())
            self._since -= self.ref.every_s
            taken += 1
        if taken == self.ref.max_per_item:
            self._since = 0.0

    def close(self):
        self.samples.append(self.ref.sample())

    def factors(self) -> list:
        """Per item: nominal/measured reference time over the nearest samples."""
        n, w = len(self.samples), WINDOW
        out = []
        for m in self.marks:
            lo = max(0, min(m - w // 2 + 1, n - w))
            out.append(self.ref.factor(self.samples[lo:lo + w]))
        return out

    def overall(self) -> float:
        """The round's factor, over all its samples."""
        return self.ref.factor(self.samples)


# in-process work: a sample per 50 ms of item time, at most five per item;
# the package's work speeds up less than the loop when the machine does
# (windowed log-log slopes 0.58 to 0.77), hence the exponent
IN_PROCESS = Reference(ref_sample, REF_NOMINAL_S, 0.05, 5, 0.65)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def peak_rss_mb(who: int) -> float:
    import resource
    return resource.getrusage(who).ru_maxrss / 1024.0
