"""A host-speed ruler: a fixed pure-Python loop, timed next to the work.

On a shared host, other tenants slow the whole VM by up to 2.6× for
seconds to minutes at a time, and CPU time slows as much as wall time.
Two runs of the same code can then differ by more than any change under
test.  The ruler runs the same interpreter-bound loop in the same
process just before and just after each timed piece.  A piece's time
divided by the ruler's time around it is the piece's cost in ruler
units, which the host's momentary speed mostly cancels out of.  Times
are reported in *reference seconds*: ruler units times
``REFERENCE_S``, the ruler's time on a quiet host, so that on such a
host they read as plain seconds.

The loop allocates no containers, so the garbage collector never runs
inside it whatever the program under test does to its settings, and it
calls nothing from the program, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: the ruler's median time, in seconds, on a quiet 2-vCPU Intel Xeon VM
#: (2.1 GHz, CPython 3); only a scale, so comparisons do not depend on it
REFERENCE_S = 0.002
#: timings per reading; a reading takes about ``SAMPLES`` × 2–3 ms
SAMPLES = 7


def _loop() -> int:
    total = 0
    for i in range(20000):
        total += (i * 7 ^ i >> 3) % 11
    return total


def reading() -> List[Tuple[float, float]]:
    """``SAMPLES`` ``(wall, cpu)`` timings of the loop, in seconds."""
    samples = []
    for _ in range(SAMPLES):
        wall, cpu = time.perf_counter(), time.process_time()
        _loop()
        samples.append((time.perf_counter() - wall,
                        time.process_time() - cpu))
    return samples


def speed(*readings: List[Tuple[float, float]]) -> Tuple[float, float]:
    """The median ``(wall, cpu)`` ruler time over ``readings``."""
    samples = [sample for taken in readings for sample in taken]
    return (statistics.median(wall for wall, _ in samples),
            statistics.median(cpu for _, cpu in samples))
