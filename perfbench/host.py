"""The host's speed, for scaling times taken on a shared machine.

On a few vCPUs of a host shared with other tenants, a fixed piece of
pure-Python work runs at one of two or three speeds up to ~1.8x apart,
switching from every second to every half minute, and the share of time
spent at each drifts from one minute to the next.  CPU time follows wall
time, so a slow phase is lost speed, not waiting, and no number of passes
in a run averages it out: runs of the same code a few minutes apart
differ by a third.

A Host therefore times a fixed reference loop of Fraction, dict and str
work (the kinds of work gwrev does) about every PROBE_EVERY seconds, and
a time taken between two probes is expressed in reference loops: it is
divided by the mean of those two probes and multiplied by REFERENCE_S,
the loop's time when the host runs at full speed.  The result is the
time the work takes on the host at full speed.  The loop never touches
gwrev, so a change to gwrev moves the scaled times as much as the raw
ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_EVERY = 0.1  # seconds
# reference_work() at full speed on an Intel Xeon vCPU with Python 3.11;
# a constant, so that scaled times of different runs compare.
REFERENCE_S = 0.0025


def reference_work():
    """About 2.5 ms of work at full speed, the same on every call."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    names = {i: str(i) for i in range(10000)}
    return total, len(names)


class Host:
    def __init__(self):
        self.probes = []  # (perf_counter at the end, seconds)
        self.probe()

    def probe(self):
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.probes.append((t1, t1 - t0))

    def mark(self):
        """Index of the last probe, taken now if the last is PROBE_EVERY
        old; a time taken next lies between it and the probe after it."""
        if time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY:
            self.probe()
        return len(self.probes) - 1

    def scale(self, seconds, mark):
        """`seconds` taken after probe `mark` and before the next probe,
        at the host's full speed."""
        local = (self.probes[mark][1] + self.probes[mark + 1][1]) / 2
        return seconds * REFERENCE_S / local
