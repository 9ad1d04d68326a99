"""Host-normalized timing.

The benchmark runs on shared hosts whose speed changes by up to 2x within
seconds, and a pure-Python loop slows down with them.  While a
``HostClock`` is active, a SIGALRM interval timer runs a short calibration
loop every ``SAMPLE_INTERVAL_S``.  The clock leaves the sampling time out,
and a measured duration is scaled by ``CAL_REF_S`` over the mean
calibration time seen during it: the result is the time the work would
take on a host where the calibration loop takes ``CAL_REF_S``.  No thread
or process is started.
"""

from __future__ import annotations

import signal
import time

CAL_REF_S = 200e-6
SAMPLE_INTERVAL_S = 0.02


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _next_cell(cell: _Cell, x: float) -> _Cell:
    return _Cell(cell.b, cell.a * 0.5 + x)


def calibration_s() -> float:
    """Time of a fixed pure-Python loop.

    Like the simulator, it allocates small objects, calls functions,
    indexes lists and dicts and does float arithmetic.
    """
    start = time.perf_counter()
    cells = [_Cell(float(i), 1.0) for i in range(50)]
    last = {}
    for _ in range(8):
        for i, cell in enumerate(cells):
            cells[i] = _next_cell(cell, 0.001 * i)
            last[i % 10] = cells[i].a
    return time.perf_counter() - start


class HostClock:
    """A wall clock that samples host speed while it is active."""

    def __init__(self) -> None:
        self.paused = 0.0
        self.calibrated = 0.0
        self.samples = 0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.calibrated += calibration_s()
        self.samples += 1
        self.paused += time.perf_counter() - start

    def now(self) -> float:
        """Seconds, without the time spent sampling."""
        return time.perf_counter() - self.paused

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, work):
        """Run ``work()``; return its result, its normalized duration in
        seconds and the factor that normalized it."""
        samples, calibrated = self.samples, self.calibrated
        start = self.now()
        result = work()
        elapsed = self.now() - start
        if self.samples == samples:
            self._sample()
        factor = CAL_REF_S * (self.samples - samples) / (
            self.calibrated - calibrated)
        return result, elapsed * factor, factor
