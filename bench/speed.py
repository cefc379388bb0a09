"""Host speed, sampled while the benchmark runs.

On a shared host, contention slows this process, harness and program alike,
by up to 1.6x for stretches of seconds to minutes, which swamps a 35 s run.
So while tasks run, a SIGALRM handler times a fixed piece of pure-Python
work, the probe, every PERIOD_S. A task's raw time is its wall time minus the
probes that interrupted it. Its scaled time is the raw time times REF_PROBE_S
over the mean probe time around it: the time it would take at the speed at
which the probe takes REF_PROBE_S, about the uncontended speed of the 2-CPU
machine the benchmark was defined on.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Any

PROBE_ITERS = 10_000
REF_PROBE_S = 0.0016
PERIOD_S = 0.1


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    t0 = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(PROBE_ITERS):
        table[i & 1023] = (i, i & 255)
        acc += table[i & 511][1]
    return time.perf_counter() - t0


class Sampler:
    """Context manager probing the host speed on a timer while it is open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []
        self._probing = False
        self._previous: Any = None

    def sample(self) -> None:
        if self._probing:  # a timer tick inside a probe; skip it
            return
        self._probing = True
        try:
            start = time.perf_counter()
            self.took.append(probe())
            self.starts.append(start)
        finally:
            self._probing = False

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent probing inside [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.took[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """REF_PROBE_S over the mean probe from one period before t0 to one
        period after t1, or over the nearest probes if none fell there."""
        lo = bisect.bisect_left(self.starts, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), hi + 1
        return REF_PROBE_S / statistics.fmean(self.took[lo:hi])


def scale_now(probes: int = 5) -> float:
    """REF_PROBE_S over the median of a few probes taken now."""
    return REF_PROBE_S / statistics.median(probe() for _ in range(probes))
