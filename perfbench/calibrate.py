"""Scaling times to a reference machine speed.

The machines this benchmark runs on share cores with other work, and
their speed drifts by a quarter or more over seconds to minutes.  A
fixed pure-Python kernel (tuple, dict and integer work, the mix hampair
runs) is timed next to each measured interval, and the interval is
scaled by REFERENCE_S / kernel time: every reported time is the time the
interval would take at the speed where the kernel takes REFERENCE_S.
The kernel is the benchmark's own code, so no change to hampair can
alter it.
"""

from __future__ import annotations

from time import perf_counter

# Seconds the kernel takes at the reference speed.
REFERENCE_S = 0.0006
# A kernel timing older than this is refreshed before it is used again.
MAX_AGE_S = 0.025


def kernel() -> int:
    table = {}
    s = 0
    for i in range(3000):
        key = (i, i * 7 % 13)
        table[key] = s
        s += i * i % 7
    return s + len(table)


def measure() -> float:
    """Seconds one kernel run takes now, averaged over three runs: the
    workload runs through fast and slow moments alike, so the kernel
    must too."""
    t0 = perf_counter()
    for _ in range(3):
        kernel()
    return (perf_counter() - t0) / 3


class Calibration:
    """The latest kernel timing, refreshed when older than MAX_AGE_S."""

    def __init__(self) -> None:
        self.value = measure()
        self.taken = perf_counter()

    def current(self) -> float:
        if perf_counter() - self.taken > MAX_AGE_S:
            self.value = measure()
            self.taken = perf_counter()
        return self.value
