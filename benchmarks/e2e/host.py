"""Host speed, for timing operations in reference-host seconds.

The benchmark runs on a shared virtual machine whose speed swings with
its other tenants' load: within one minute, a tenth of the samples of
:func:`reference_loop` took under 2.0 ms and a tenth over 3.7 ms, and
the median sample of a 20-second run ranged from 1.04 to 2.2 times
``REFERENCE_LOOP_S`` over an hour.  An operation of the program slows in
proportion: over 164 repetitions of the SPEC-Trace-2 run under
V-Reconfiguration on 32 nodes, grouped in thirds by the reference
loop's speed around them, the run took 0.210, 0.241 and 0.300 s on
average while its ratio to the loop stayed at 85.7, 85.4 and 84.5.
Scaling the wall time of each stretch of work by the loop's speed
around it therefore keeps what the program costs and drops what the
neighbours cost.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Dict, List

#: Best time of :func:`reference_loop` on a quiet 2-core x86-64 virtual
#: machine with Python 3.11, where the bounds were measured: the unit
#: of the reported times.  Changing it rescales every time metric.
REFERENCE_LOOP_S = 0.002

#: Loops per speed sample; the sample is the fastest of them.
LOOPS_PER_SAMPLE = 5


def reference_loop() -> int:
    """Fixed interpreter work — dictionary reads and writes and integer
    arithmetic — that touches none of the program's state and creates
    no object the garbage collector tracks."""
    counts: Dict[int, int] = {}
    for i in range(20_000):
        key = i % 977
        counts[key] = counts.get(key, 0) + i
    return len(counts)


class HostClock:
    """Speed samples taken between stretches of measured work.

    :meth:`lap` turns the wall time since the previous sample into
    reference-host seconds, by the mean of that sample and a new one
    taken at once, and adds it to :attr:`total`; the sampling itself is
    left out.  A stretch should last well under the host's slow spells
    (seconds), so long work is timed in several laps.
    """

    def __init__(self):
        self.samples: List[float] = []
        #: Reference-host seconds of every lap so far.
        self.total = 0.0
        self.restart()

    def _sample(self) -> float:
        best = math.inf
        for _ in range(LOOPS_PER_SAMPLE):
            start = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - start)
        self.samples.append(best)
        return best

    def restart(self) -> None:
        """Sample, and start the next lap now: the time since the
        previous sample is not measured work."""
        self._last = self._sample()
        self._mark = perf_counter()

    def scale(self) -> float:
        """Sample; returns reference-host seconds per wall second since
        the previous sample."""
        now = self._sample()
        scale = REFERENCE_LOOP_S / ((self._last + now) / 2)
        self._last = now
        self._mark = perf_counter()
        return scale

    def lap(self) -> float:
        wall = perf_counter() - self._mark
        lap = wall * self.scale()
        self.total += lap
        return lap

    @property
    def slowdown(self) -> float:
        """The host's median slowdown over the run, against the
        reference machine."""
        return statistics.median(self.samples) / REFERENCE_LOOP_S
