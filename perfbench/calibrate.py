"""Machine-speed calibration, for timings on a shared CPU whose speed drifts.

On the 2-CPU sandbox this benchmark was written on, other machines share
the host, and the same pure-Python work takes up to twice as long at one
time as at another.  One process ran ten sweep passes in 5.7 to 7.7 s.

`probe` times a fixed piece of interpreter work: small tuples, a dict that
stays in the first-level cache, integer adds.  It is slowed by what slows
the interpreter, but not by the program's own use of memory, so a change
to the program does not change the probe.  `sampling` runs the probe every
INTERVAL_S of CPU time from a SIGPROF handler, in the same thread, while an
operation runs.  `scale` turns the mean probe time into the factor that
gives the operation's time at the speed where one probe takes REF_S.  On
those ten sweep passes the scaled times varied by 2.7 % (coefficient of
variation), against 10 % raw.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.05
REF_S = 0.0004


def probe() -> float:
    """Seconds for one fixed batch of interpreter work."""
    t0 = perf_counter()
    d: dict = {}
    for i in range(1500):
        t = (i & 7, i & 3)
        d[t] = d.get(t, 0) + i
    return perf_counter() - t0


@contextmanager
def sampling():
    """Probe times, taken before, during and after the block."""
    samples = [probe()]
    previous = signal.signal(signal.SIGPROF, lambda signum, frame: samples.append(probe()))
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
        samples.append(probe())


def scale(samples) -> float:
    """Factor from measured seconds to seconds at reference speed."""
    return REF_S * len(samples) / sum(samples)
