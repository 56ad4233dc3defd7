"""A fixed reference computation, sampled during calls to gauge the host's speed.

The benchmark runs on a shared host whose speed drifts by tens of percent
over seconds to minutes, with no change to the program.  A wall time taken
alone carries that drift, and a run that is slow throughout cannot be told
from a slower program.  So while the workload runs, an interval timer
interrupts it every ``period`` seconds of wall time and times a few units of
a fixed reference computation, in the same process.  The call-cost metrics
divide a call's wall time by the mean time of the units sampled during it:
the drift slows both alike and cancels, and a change to the program does
not touch the reference, which depends only on numpy and is the same on
every seed.  The samples' own time is left out of the call's wall time.

Sampling inside the calls, not between them, is what lets the ratio follow
the drift during a 25-second call.  A sample waits for a running
numpy operation to return, so the samples fall between the program's
operations.  The reference's kind follows the workload's scale: ``small``
for interpreter-bound calls on small matrices, ``dense`` for calls dominated
by dense linear algebra at N in the hundreds.  A sample runs enough units to
warm the cache it needs, so the program's cache state does not leak into it.
"""

from __future__ import annotations

import signal
import time
from functools import cache

import numpy as np


@cache
def _hermitian(n: int) -> np.ndarray:
    idx = np.arange(n * n).reshape(n, n)
    a = ((idx % 11) - 5 + 1j * ((idx % 13) - 6)) / n
    return a + a.conj().T


def _small_unit() -> float:
    """Functional calculus on a 24x24 Hermitian matrix and a short Python loop."""
    h = _hermitian(24)
    w, v = np.linalg.eigh(h)
    acc = float(np.trace(((v * np.exp(-w)) @ v.conj().T) @ h).real)
    for j in range(300):
        acc += (j * 0.5) % 3.0
    return acc


def _dense_unit() -> float:
    """Functional calculus and an inverse on a 128x128 Hermitian matrix.

    Kept small: a sample that lands on the program's memory peak adds its
    arrays to the peak resident memory the benchmark reports.
    """
    w, v = np.linalg.eigh(_hermitian(128))
    f = (v * np.exp(-w / 100.0)) @ v.conj().T
    return float(np.trace(np.linalg.inv(f + 2.0 * np.eye(len(f)))).real)


KINDS = {"small": _small_unit, "dense": _dense_unit}


class SpeedProbe:
    """Times ``units`` reference units of ``kind`` every ``period`` seconds while started.

    ``spent_s`` is the total time of the samples and ``units_run`` the number
    of units they ran; a caller reads both before and after a call to get the
    call's share.
    """

    def __init__(self, kind: str, units: int, period: float) -> None:
        self.unit, self.units, self.period = KINDS[kind], units, period
        self.spent_s = 0.0
        self.units_run = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        for _ in range(self.units):
            self.unit()
        self.spent_s += time.perf_counter() - start
        self.units_run += self.units

    def start(self) -> None:
        self.unit()  # the first unit pays lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
