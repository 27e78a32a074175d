"""Speed probe: how fast the machine runs while the benchmark measures.

A shared 2-vCPU Xeon VM swings between a fast and a slow state, often
within a fraction of a second and sometimes for a whole run: a fixed loop
takes 2.0 ms or 2.9 ms depending on the moment, on either vCPU, in process
time as much as in wall time.  There, those swings put the run-to-run spread
(interquartile range over median, ten runs) of every timing at 0.15-0.35.

``SpeedProbe`` samples that state while operations run.  A timer signal
every ``PERIOD`` seconds of wall time interrupts the operation in progress
and times one of three fixed reference kernels, taking turns.  A sample's
speed is the kernel's nominal time over its measured time, lower when the
machine runs slower.  The kernels share no code with the package, so a
change to the package moves them only through the state it leaves in the
processor's caches; between workloads that shifted the speed by about 5%.
``local_speed`` gives each operation the mean speed of the samples taken
during it and up to ``WINDOW`` seconds around it.

``clock()`` stops while the probe runs, so an operation's latency excludes
the probe's own time; sample times are read on the same clock.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PERIOD = 0.025
WINDOW = 0.1

_VECTOR = np.linspace(-1.0, 1.0, 6)


def _python_loop():
    s = 0
    for i in range(2000):
        s += i * i % 7
    return s


def _numpy_small():
    a = _VECTOR
    for _ in range(60):
        a = np.maximum(a * 0.5, a - 1.0)
        a = a / (1.0 + float(a @ a))
    return a


def _containers():
    d = {}
    for i in range(400):
        k = i % 13
        d[k] = d.get(k, 0) + i
        sorted((k, i))
    return d


# (kernel, nominal seconds): the mean time of each kernel on a 2-vCPU Xeon
# VM (Python 3.11, NumPy 2.4).  They only fix the unit of speed.
REFERENCES = (
    (_python_loop, 1.85e-4),
    (_numpy_small, 3.60e-4),
    (_containers, 2.15e-4),
)


class SpeedProbe:
    """Samples the reference kernels from a timer signal while installed."""

    def __init__(self):
        self.times = array("d")
        self.speeds = array("d")
        self.busy = 0.0
        self._turn = 0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel, nominal = REFERENCES[self._turn]
        self._turn = (self._turn + 1) % len(REFERENCES)
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0 - self.busy)
        self.speeds.append(nominal / (t1 - t0))
        self.busy += time.perf_counter() - t0

    def clock(self) -> float:
        """``time.perf_counter`` minus the time spent in the probe so far."""
        return time.perf_counter() - self.busy

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def local_speed(self, starts, durations) -> np.ndarray:
        """Mean sample speed within ``WINDOW`` of each ``[start, start + duration]``.

        Times are ``clock()`` readings.  An operation with no sample that
        close gets the mean speed of the whole run.
        """
        times = np.frombuffer(self.times)
        speeds = np.frombuffer(self.speeds)
        cumulative = np.concatenate(([0.0], np.cumsum(speeds)))
        lo = np.searchsorted(times, starts - WINDOW)
        hi = np.searchsorted(times, starts + durations + WINDOW)
        count = hi - lo
        local = (cumulative[hi] - cumulative[lo]) / np.maximum(count, 1)
        return np.where(count > 0, local, speeds.mean())
