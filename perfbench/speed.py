"""Machine-speed calibration.

On the 2-core virtual machine this benchmark was tuned on, the same code ran
up to 1.8 times slower for stretches of seconds to minutes, with no steal
time visible inside the guest.  So before every op the benchmark runs a fixed
calibration kernel that resembles fflab's work but uses no fflab code: Python
method calls and table lookups, dict updates, a numpy gather and bincount,
and a small complex matmul.  A run's times are converted to reference seconds: measured seconds
times ``CAL_REF`` over the run's mean kernel time.  On a machine where the
kernel takes ``CAL_REF`` the two are equal.  The measured wall-clock figures
are printed beside the reference ones.

Scaling by the run's mean kept the spread of throughput across runs lower
than scaling each op by the kernel time next to it: long ops outlast the
slowdowns the kernel samples.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_REF = 0.006  # seconds the kernel takes on the reference machine


class _Table:
    def __init__(self, q: int):
        self.q = q
        self.add_t = [[(a + b) % q for b in range(q)] for a in range(q)]

    def add(self, a: int, b: int) -> int:
        return self.add_t[a][b]

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q


_rng = np.random.default_rng(0)
_TABLE = _Table(31)
_CHAR = np.exp(2j * np.pi * np.arange(1 << 16) / 7.0)
_IDX = _rng.integers(0, 1 << 16, 200_000)
_MAT = _rng.random((96, 96)) + 1j * _rng.random((96, 96))


def calibrate() -> float:
    """Seconds taken by one pass of the calibration kernel."""
    t0 = time.perf_counter()
    t, q, acc = _TABLE, _TABLE.q, 0
    for i in range(12_000):
        acc = t.add(t.mul(i % q, 7), acc)
    counts: dict = {}
    for i in range(6_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    _CHAR[_IDX].sum()
    np.bincount(_IDX % 4099, minlength=4099)
    (_MAT @ _MAT).sum()
    return time.perf_counter() - t0


def to_reference(cal_times) -> float:
    """Reference seconds per measured second, from a run's kernel times."""
    return CAL_REF / statistics.fmean(cal_times)


def probe(passes: int = 5) -> float:
    """Median calibration time after one warm-up pass."""
    calibrate()
    return statistics.median(calibrate() for _ in range(passes))
