"""A fixed reference kernel that puts every reported time on one scale.

On a shared machine the CPU speed this benchmark sees switches between
regimes that differ by 30-60%, every few seconds to minutes, for every kind
of work alike (measured on a shared 2-core Xeon VM: a 15 s run's median task
time spread by 18-36% between runs, while its ratio to a co-measured kernel
spread by about 5%). So the runner times this fixed kernel, a mix of LAPACK
eigh and interpreted Python unrelated to causalis, before the first task and
after every task and set-up, and divides each measured time by the speed
factor around it: the median kernel time over REF_SECONDS, taken over the
samples within WINDOW_S of the task (at least the ones just before and just
after it). Reported times are thus seconds at the reference speed, at
which one kernel call takes REF_SECONDS (2-3 ms on that VM). Raw times
and the factors are in the report.
"""
from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from statistics import median

import numpy as np

REF_SECONDS = 0.0025
WINDOW_S = 0.5
_EIGH_CALLS = 20
_LOOP = 4_000
_MATRIX = np.random.default_rng(0).normal(size=(32, 32))
_MATRIX = _MATRIX + _MATRIX.T


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(_EIGH_CALLS):
        np.linalg.eigh(_MATRIX)
    s = 0
    for k in range(_LOOP):
        s += k
    return time.perf_counter() - t0


class SpeedMeter:
    """Every kernel sample taken in a run: when, and the speed factor
    (kernel time / REF_SECONDS)."""

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        k = kernel_seconds()
        self.times.append(t0 + k / 2)
        self.factors.append(k / REF_SECONDS)

    def around(self, t0: float, t1: float) -> float:
        """Median speed factor of the samples within WINDOW_S of [t0, t1]."""
        i = bisect_left(self.times, t0 - WINDOW_S)
        j = bisect_right(self.times, t1 + WINDOW_S)
        return median(self.factors[i:j])

    @property
    def factor(self) -> float:
        return median(self.factors)
