"""Op timing in reference seconds, steady on a host whose speed swings.

On a shared host the speed of a core swings between states up to about 2x
apart, for spans from a fraction of a second to many seconds, so raw wall
times of the same op spread far more than any change worth measuring.  The
clock samples that speed with a fixed pure-Python reference kernel: a few
runs between ops, and one run every SAMPLE_PERIOD_S during an op, from an
interval-timer signal handler.  An op's reference time is its wall time times
REFERENCE_KERNEL_S over the mean kernel time sampled before, during and after
it; in the host's fast state the two agree.  The samples during an op cost
about 2% of its wall time, in untraced and traced runs alike.
"""
from __future__ import annotations

import signal
import statistics
import time

# Time of reference_kernel() in the fast state of the 2-core reference box.
# Changing the kernel or this constant changes the scale of every time.
REFERENCE_KERNEL_S = 80e-6
SAMPLE_PERIOD_S = 0.005
BOUNDARY_SAMPLES = 4


def reference_kernel() -> int:
    """Fixed pure-Python work that allocates nothing the cyclic GC tracks."""
    table = {}
    for i in range(500):
        table[str(i)] = i % 7
    return sum(table.values())


class ReferenceClock:
    """Times calls in wall and reference seconds; owns SIGALRM until closed."""

    def __init__(self):
        self._samples: list[float] = []
        self._boundary()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self._samples.append(time.perf_counter() - start)

    def _boundary(self) -> None:
        for _ in range(BOUNDARY_SAMPLES):
            self._sample()

    def _on_alarm(self, _signum, _frame) -> None:
        self._sample()

    def call(self, function):
        """``function()``; returns its result, its wall seconds and the factor
        that turns them into reference seconds."""
        self._samples = self._samples[-BOUNDARY_SAMPLES:]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = function()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._boundary()
        return result, wall, REFERENCE_KERNEL_S / statistics.fmean(self._samples)
