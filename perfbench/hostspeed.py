"""Host-speed sampling, so that times are reported at a fixed reference speed.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz), a single-threaded
process runs at a speed that drifts by up to 1.7x within seconds, and can
stay slow for a minute.  The process's CPU time equals its wall time and
the guest reports no steal time, so the slowdown cannot be subtracted; it can
only be measured.  A Sampler runs a fixed pure-Python probe from a SIGALRM
handler every PERIOD_S seconds and records when each probe ran and how long
it took.  The time an interval would have taken at reference speed is its
wall time, less the probes run inside it, times the mean of
REFERENCE_PROBE_S / probe time over the probes taken during the interval
(widened to at least MIN_SAMPLES probes for short intervals).

The probe does not touch the library, so a change to the library moves the
reported times exactly as it moves wall time on a steady host.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
MIN_SAMPLES = 30
# probe time on an unloaded core of that machine, with Python 3.11.7
REFERENCE_PROBE_S = 7.0e-5


def probe() -> Fraction:
    """Fixed interpreter-bound work: integer tuples, a loop, Fraction arithmetic."""
    x, y, z = 3, 1, 4
    for i in range(300):
        x, y, z = (x * y - z + i) % 1000003, z + 1, x ^ i
    return Fraction(x, 7) + Fraction(y, 11)


class Sampler:
    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.stamps.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, t0: float, t1: float) -> tuple[int, int, int, int]:
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_left(self.stamps, t1)
        a, b = lo, hi
        n = len(self.stamps)
        while b - a < MIN_SAMPLES and (a > 0 or b < n):
            a, b = max(0, a - 1), min(n, b + 1)
        return lo, hi, a, b

    def speed(self, t0: float, t1: float) -> float:
        """Mean reference-to-observed speed ratio over the probes around [t0, t1]."""
        _, _, a, b = self._window(t0, t1)
        if a == b:
            raise RuntimeError("no host-speed samples were taken")
        return sum(REFERENCE_PROBE_S / d for d in self.durations[a:b]) / (b - a)

    def probe_time(self, t0: float, t1: float) -> float:
        lo, hi, _, _ = self._window(t0, t1)
        return sum(self.durations[lo:hi])

    def at_reference(self, t0: float, t1: float) -> float:
        """How long [t0, t1] would have taken at reference speed, probes excluded."""
        return (t1 - t0 - self.probe_time(t0, t1)) * self.speed(t0, t1)
