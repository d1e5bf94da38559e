"""Machine-speed probe: scales times of identical work to one machine speed.

On a shared 2-vCPU VM (2.0 GHz Xeon) the CPU switches between a fast state
and a contended one about 1.8x slower, for seconds to minutes at a time, so
raw times of identical work moved by up to 2x between runs, and no number of
repetitions made them steady.  A probe tick -- a fixed 2000-step dict, tuple
and integer loop -- slows down with the machine.  While a region runs,
``SpeedProbe`` times one tick every ``PERIOD_S`` seconds from ``SIGALRM``,
and ``scale`` is ``REF_S / mean(tick times)``: a raw time multiplied by it is
the time the work takes when a tick takes ``REF_S``, its uncontended time on
that VM.  Nothing in plucker runs during a tick, so a faster program gives a
proportionally smaller scaled time.  The ticks' own wall and CPU time are
kept so the caller can take them out of the region's times; ``clock`` is a
wall clock that leaves them out, for timing spans inside the region.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.0012
PERIOD_S = 0.1


def tick() -> float:
    """Seconds taken by one fixed piece of pure-Python work."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(2000):
        key = tuple(sorted((i % 13, i % 7, i % 5)))
        acc[key] = acc.get(key, 0) + i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Tick times taken on demand (``sample``) or periodically (``with``)."""

    def __init__(self):
        self.ticks: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def sample(self, count: int) -> None:
        for _ in range(count):
            self._tick()

    def _tick(self, *_signal) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.ticks.append(tick())
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """``time.perf_counter()`` with the ticks taken so far left out."""
        while True:
            wall = self.wall
            now = time.perf_counter()
            if self.wall == wall:  # no tick ran between the two reads
                return now - wall

    @property
    def scale(self) -> float:
        return REF_S / statistics.fmean(self.ticks)
