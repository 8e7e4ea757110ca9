"""Machine-speed normalisation of timings.

The reference machine is a shared VM whose speed drifts by up to 2x, both
within a second and over minutes, while the library's share of the time
does not change.  A fixed stdlib loop (dict and tuple work, like the
library's inner loops) is timed every INTERVAL_S between operations, and
the run's times are converted to the reference speed, the speed at which
the loop takes REF_LOOP_S:

    reported = measured * REF_LOOP_S / (loop time, averaged over the run)

The average weights each sample by the wall time it stands for.  A library
change does not touch the loop, so it moves reported times as much as
measured ones; a slower machine slows loop and operations alike, and the
ratio stays.
"""

from __future__ import annotations

from time import perf_counter

# The loop's time in seconds at the reference speed: about its average on
# the reference machine (2 vCPUs, Python 3.11.7, python -S).
REF_LOOP_S = 0.001
INTERVAL_S = 0.02


def _loop() -> int:
    d: dict = {}
    t = (3, 1, 4, 1, 5, 9, 2, 6)
    for i in range(1500):
        k = (t[i % 8], i % 13, i & 7)
        d[k] = d.get(k, 0) + len(t[: i % 5])
    return len(d)


def loop_time() -> float:
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


class Clock:
    """Samples the loop between operations; scale() is the run's factor.

    Call tick() before each operation and scale() after the last one;
    spent is the time tick() took, for callers that time across ticks.
    """

    def __init__(self) -> None:
        self.last = loop_time()
        self.at = perf_counter()
        self.span = 0.0
        self.weighted = 0.0
        self.spent = 0.0  # time spent sampling after the first sample

    def tick(self) -> None:
        if perf_counter() - self.at >= INTERVAL_S:
            self._sample()

    def _sample(self) -> None:
        span = perf_counter() - self.at
        now = loop_time()
        self.spent += now
        self.span += span
        self.weighted += span * (self.last + now) / 2
        self.last = now
        self.at = perf_counter()

    def loop_s(self) -> float:
        """The run's average loop time, weighted by wall time."""
        return self.weighted / self.span

    def scale(self) -> float:
        self._sample()
        return REF_LOOP_S / self.loop_s()
