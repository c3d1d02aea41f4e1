"""Machine-speed samples, taken on a timer signal while the run works.

The 2-core machine this benchmark was built on changes speed in steps
that last from seconds to minutes, on both cores at once, while process
CPU time stays equal to wall time. ``SpeedProbe`` times a fixed kernel (small
windowed einsums and a Python loop, the kind of work the package does)
every ``PERIOD`` seconds from a SIGALRM handler, which runs in the main
thread between bytecodes. ``scaled`` turns a measured interval into
reference seconds: the interval without the probe's own time, divided
by ``slowdown``, the kernel's slowdown around it against ``REFERENCE_S``.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The kernel's median time on the 2-core machine the benchmark was
# built on (Python 3.11, numpy 2.4); reference seconds are seconds at
# the speed where the kernel takes this long.
REFERENCE_S = 0.0018
PERIOD = 0.25  # seconds between kernel samples
AROUND = 1.0  # seconds either side of an interval whose samples scale it
BURST = 15  # kernel runs in a row for ``slowdown_now``
SMOOTH = 2  # samples either side in the running median of kernel times


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        rng = np.random.default_rng(0)
        self._image = rng.random((32, 32))
        self._template = rng.random((16, 16))
        self._previous = None
        self._smooth = np.zeros(0)

    def kernel(self):
        windows = sliding_window_view(self._image, self._template.shape)
        for _ in range(10):
            np.einsum("ijkl,kl->ij", windows, self._template)
        s = 0
        for i in range(10000):
            s += i * i

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        """Stop sampling; does nothing if not started or already stopped."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _kernel_times(self) -> np.ndarray:
        """Each sample's kernel time as the median of it and its ``SMOOTH``
        neighbours either side: a lone slow sample, from a burst of other
        work on the machine, does not scale the intervals near it, while
        a step in speed that lasts seconds still shows."""
        if len(self._smooth) != len(self.starts):
            k = np.subtract(self.ends, self.starts)
            self._smooth = np.array([np.median(k[max(0, i - SMOOTH) : i + SMOOTH + 1]) for i in range(len(k))])
        return self._smooth

    def slowdown(self, t0: float, t1: float) -> float:
        """The kernel's mean smoothed time near [t0, t1] over ``REFERENCE_S``."""
        if len(self.starts) < 2:
            raise RuntimeError("fewer than two speed samples: start the probe earlier")
        lo = bisect.bisect_left(self.starts, t0 - AROUND)
        hi = bisect.bisect_right(self.starts, t1 + AROUND)
        if hi - lo < 2:  # too few samples near: take the nearest ones
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo, hi = max(0, mid - 2), min(len(self.starts), mid + 2)
        return float(np.mean(self._kernel_times()[lo:hi])) / REFERENCE_S

    def slowdown_now(self) -> float:
        """The kernel's median time over ``BURST`` runs in a row, over
        ``REFERENCE_S``; for a process too short-lived to sample."""
        times = []
        for _ in range(BURST):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return float(np.median(times)) / REFERENCE_S

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1] of this process's
        work, without the time of kernel samples taken inside it."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(min(e, t1) - max(s, t0) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (t1 - t0 - inside) / self.slowdown(t0, t1)
