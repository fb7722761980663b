"""Machine-speed probe for timing on a shared machine.

The machines this benchmark runs on switch between a fast state and one
about 1.7x slower every second or so, and the share of slow time drifts
over minutes: raw job times of one input spread by 20-50% between runs.
A fixed stdlib computation, ``probe``, slows in step with the package
(both are interpreter-bound ``Fraction`` and dict work).  So the probe is
timed around each job and, from a SIGALRM handler, every ``TICK_S``
seconds inside it, and the job's latency is divided by the mean probe
time.  The mean, not the median: probe times are bimodal, like the
machine, and the median snaps to whichever state holds most samples,
while the mean follows the share of slow time that the job also saw.
On a 5 s job, repeated ten times, that cut the spread of the latencies
from 11% to 1.4%.  The handler takes about 3% of a job, and its time is
subtracted from the job.  It runs
between bytecodes of the main thread and touches no state of the
package, so outputs are unchanged.

Scaled latencies are seconds on a machine where the probe takes
``PROBE_SECONDS``, about the fast state of the machine they were tuned on.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction
from typing import Dict, List, Tuple

PROBE_SECONDS = 0.0006
TICK_S = 0.02


def probe() -> float:
    """Seconds taken by a fixed computation like the package's inner loops.

    The garbage collector is off while it runs: a collection its
    allocations set off would sweep the package's heap, and that time
    belongs to the package, not to the probe.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: Dict[Tuple[int, int], Fraction] = {}
        for k in range(1, 100):
            key = (k % 13, k % 7)
            acc[key] = (acc.get(key, Fraction(0))
                        + Fraction(k % 7 + 1, k % 11 + 1)
                        * Fraction(3, k % 5 + 1))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Context manager: probe every TICK_S seconds while the block runs.

    ``samples`` holds the probe times, ``spent`` the seconds the handler
    took, to be subtracted from the block's time.
    """

    def __enter__(self) -> "Sampler":
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start
