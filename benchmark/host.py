"""Host-speed calibration: a fixed kernel sampled all through a timed region.

The benchmark shares a few cores of a host with other tenants.  The speed
the host gives it switches between regimes within a second and drifts by a
quarter or more over tens of seconds; CPU time moves with wall time, so the
process cannot see the loss in its own clock.  A ``Sampler`` runs a small
fixed kernel, which does not touch lineclust, from a ``SIGALRM`` handler
every ``INTERVAL_S`` of wall time, so the kernel meets the same host speed
as the code around it.  A region that took ``t`` seconds, of which the
kernel took ``busy`` in ``count`` samples, is reported as

    (t - busy) * REFERENCE_S / (busy / count)

seconds at the host speed at which the kernel takes ``REFERENCE_S``.  A
change to lineclust moves the region and not the kernel, so it shows in full.

The kernel does what lineclust's per-pair paths do, numpy calls on
2-vectors between interpreted float arithmetic; a kernel of interpreted
arithmetic alone tracked the host speed those paths see half as well.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
REFERENCE_S = 1e-3  # near the kernel's median, 1.1 ms, on 2 shared vCPUs with Python 3.11
_X = np.array([0.3, -1.2])
_D = np.array([0.8, 1.6])


def _kernel() -> float:
    """Clamped projections and distances on 2-vectors, as in geometry."""
    acc = 0.0
    dd = float(_D @ _D)
    for i in range(100):
        q = _X * (i % 5) - _D
        t = min(max(float((q - _X) @ _D) / dd, 0.0), 1.0)
        acc += float(np.linalg.norm(q - (_X + t * _D)))
    return acc


class Sampler:
    """Runs the kernel from a ``SIGALRM`` handler while started; ``count``
    and ``busy`` (seconds inside the kernel) only grow."""

    def __init__(self):
        self.count = 0
        self.busy = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self.busy += time.perf_counter() - start
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def reading(self) -> tuple[int, float]:
        return self.count, self.busy


def normalised(seconds: float, before: tuple[int, float], after: tuple[int, float]) -> float:
    """A region's time at the reference host speed, from the sampler's
    readings before and after it; the kernel's own time is taken out."""
    count, busy = after[0] - before[0], after[1] - before[1]
    return (seconds - busy) * REFERENCE_S * count / busy
