"""Drift-calibrated timing.

The host this benchmark was tuned on changes speed by about +-25%, on
timescales from a fraction of a second to tens of seconds, and a
pure-Python loop slows down together with the fitters. So every timed
operation is bracketed by a short fixed kernel, and its wall time is
rescaled by how slow the kernel ran around it:

    calibrated = raw * NOMINAL_KERNEL_S / mean(kernel times)

For an operation shorter than SAMPLE_INTERVAL_S the kernel times are the
two that bracket it. A longer operation spans many of the host's speed
swings, which two samples at its ends cannot see, so the kernel also runs
every SAMPLE_INTERVAL_S inside it, from a SIGALRM handler; the time spent
in the handler is taken out of the raw time. Over twelve identical
2000x50 Baum-Welch fits the coefficient of variation was 0.091 raw, 0.147
bracket-calibrated and 0.040 calibrated with samples inside.

The kernel mixes pure-Python arithmetic with small-array numpy calls, the
two kinds of work an EM fit spends its time on, and does not touch bktfit.
NOMINAL_KERNEL_S is a constant, so calibrated seconds from two commits are
comparable; it is about the kernel's median time on the reference host.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

import numpy as np

NOMINAL_KERNEL_S = 0.0075
SAMPLE_INTERVAL_S = 0.1

_PY_LOOPS = 20_000
_NP_LOOPS = 1_000
_MIX = np.eye(16)

T = TypeVar("T")


def kernel() -> float:
    """Fixed calibration work of 5-10 ms on the reference host."""

    acc = 0.0
    for i in range(_PY_LOOPS):
        acc += (i % 7) * 0.5 - (i & 3)
    v = np.linspace(0.1, 0.9, 16)
    for _ in range(_NP_LOOPS):
        v = np.sqrt(v * (1.0 - v) + 0.01) @ _MIX
    return acc + float(v.sum())


def _timed_kernel() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


@dataclass
class Timing(Generic[T]):
    """One operation's outcome with its raw and calibrated seconds.

    raw_s excludes the time spent in calibration kernels run inside it.
    """

    value: T | None
    error: BaseException | None
    raw_s: float
    calibrated_s: float


@dataclass
class Clock:
    """Times a sequence of operations, one kernel between each pair.

    Consecutive operations share the kernel between them, so n short
    operations cost n + 1 kernels.
    """

    kernel_times: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._last = self._kernel()
        self._inside: list[float] = []
        self._paused = 0.0
        self._sampling = False

    def _kernel(self) -> float:
        elapsed = _timed_kernel()
        self.kernel_times.append(elapsed)
        return elapsed

    def _sample(self, signum: int, frame: object) -> None:
        if self._sampling:  # a very slow host: skip a sample rather than nest
            return
        self._sampling = True
        started = time.perf_counter()
        self._inside.append(self._kernel())
        self._paused += time.perf_counter() - started
        self._sampling = False

    def measure(self, operation: Callable[[], T]) -> Timing[T]:
        """Run operation once; an exception it raises is returned, not raised."""

        value: T | None = None
        error: BaseException | None = None
        self._inside, self._paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        started = time.perf_counter()
        try:
            value = operation()
        except Exception as exc:  # a failing operation is counted, not fatal
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            ended = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        raw = ended - started - self._paused
        after = self._kernel()
        samples = [self._last, *self._inside, after]
        calibrated = raw * NOMINAL_KERNEL_S / (sum(samples) / len(samples))
        self._last = after
        return Timing(value=value, error=error, raw_s=raw, calibrated_s=calibrated)
