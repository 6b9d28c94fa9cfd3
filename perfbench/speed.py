"""Host-speed probe: how fast this core runs a fixed kernel, while it runs.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to 2x over seconds to minutes; every kind of work (Python
loops, small and large FFTs) slows together.  That drift swamps the
program's own run-to-run spread.  While operations run, a timer signal
times four round trips of a 16^3 real FFT every ``INTERVAL`` seconds, in the
same thread and so on the same core.  An operation's wall time is scaled by
``KERNEL_REF_S`` over the mean kernel time around it: ``op_s`` is seconds at
the speed the kernel runs at ``KERNEL_REF_S``.

The kernel touches 32 KiB and costs about 0.5% of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.fft import irfftn, rfftn

INTERVAL = 0.1
# Kernel seconds on an idle core of the machine the bounds were set on
# (Intel Xeon, 2 vCPUs, numpy 2.4, scipy 1.17); its 5th percentile there.
KERNEL_REF_S = 4.5e-4
# Samples this far either side of an operation also count towards it, so
# that operations shorter than INTERVAL get a speed too.
PAD = 0.5
_SHAPE = (16, 16, 16)


class SpeedProbe:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._field = np.random.default_rng(0).random((8, 8, 8))
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        for _ in range(4):
            irfftn(rfftn(self._field, s=_SHAPE), s=_SHAPE)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor that turns wall seconds in [start, end] into reference seconds."""
        near = [k for t, k in self.samples if start - PAD <= t <= end + PAD]
        return KERNEL_REF_S / statistics.mean(near or [k for _, k in self.samples])
