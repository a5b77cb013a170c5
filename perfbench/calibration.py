"""Host-speed calibration: a fixed reference computation sampled through a run.

On a virtual machine that shares its host, the speed of one thread moves by
tens of percent from one minute to the next, in CPU time as well as in wall
time (a busy neighbour on the same physical core slows every instruction).
Two runs of the same code minutes apart can differ by half.  To measure the
program and not the neighbours, the benchmark samples the host's speed
while the program runs: a CPU-time profiling timer (``ITIMER_PROF``) fires
every ``INTERVAL_S`` seconds of CPU time, and its handler times one
``reference_slice``.  The samples are spread over the run in proportion to
the program's own CPU time, so their mean is the speed the program ran at.

The benchmark's times are then the program's CPU time (the thread's CPU
time minus the time spent in the handler), scaled by
``NOMINAL_SLICE_S / mean sample``: the CPU time the program would take on a
host that runs one reference slice in exactly ``NOMINAL_SLICE_S``.

The thread's own CPU clock is used throughout: while a process-wide CPU
timer is armed, Linux advances the process CPU clock (``time.process_time``)
only at scheduler ticks, but the thread clock stays exact.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_SLICE_S = 0.0005     # defines "reference speed"; about the slice's time on a 2.1 GHz Xeon
INTERVAL_S = 0.05            # CPU time between samples: one slice costs about 1% of the run
MIN_SAMPLES = 20             # a run too short to collect these is topped up at the end

_MODULUS = 3 ** 200 + 7


def reference_slice():
    """A fixed mix of what shiftk spends its time on: small and big integer
    arithmetic, dictionary updates keyed by tuples, and Fraction sums."""
    acc, big, counts = 0, 3 ** 199, {}
    for i in range(300):
        acc = (acc * 31 + i) % 1000003
        big = (big * 7 + i) % _MODULUS
        key = (i % 17, acc % 13)
        counts[key] = counts.get(key, 0) + 1
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i, i + 1)
    return acc, big, len(counts), total


class Calibrator:
    """Samples the reference slice on a CPU-time timer; gives the program's clock."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0          # thread CPU time spent sampling
        self._previous = signal.SIG_DFL

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.thread_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_slice()
        finally:
            if collecting:
                gc.enable()
            elapsed = time.thread_time() - t0
            self.samples.append(elapsed)
            self.spent += elapsed

    def clock(self) -> float:
        """CPU time of the program alone, in host seconds."""
        return time.thread_time() - self.spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()

    def scale(self, first: int = 0, last: int | None = None) -> float:
        """Factor from host CPU seconds to reference-speed seconds, from the
        samples ``first`` to ``last``, or from all if those are too few."""
        samples = self.samples[first:last]
        if len(samples) < MIN_SAMPLES:
            samples = self.samples
        return NOMINAL_SLICE_S / statistics.fmean(samples)
