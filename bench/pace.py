"""The host-speed reference that the benchmark's round times are scaled by.

On a shared virtual machine the speed of one thread drifts: within a few
minutes the same sweep took anywhere from 1.2 s to 2.0 s, with CPU time
equal to wall time, so raw times of identical runs spread by up to a
quarter.  ``Pacer`` times a fixed reference loop between the operations of
a run, in the same process (or, for ``cli``, the parent on the same pinned
CPU), so the loop sees the host's speed at the same moments as the work.
The host's speed switches within a second, so the loop's times estimate
the run's mean speed; a mean round time divided by the loop's mean time
cancels most of the drift.

The loop does the kind of work lgsim's per-point calls do: 2x2 complex
products through numpy and Python float arithmetic.  It never calls lgsim,
so no change to the package can move it.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 3000
# Op time between two timings of the loop; about 5% of a point-checks run.
EVERY_S = 0.2
# Round times are reported in ms of a host on which the loop takes this
# long, about its time on the 2-vCPU machine the benchmark was written on.
NOMINAL_MS = 10.0

_STEP = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def reference_s() -> float:
    """Wall seconds for one pass of the reference loop."""
    start = time.perf_counter()
    a = np.eye(2, dtype=complex)
    acc = 0.0
    for _ in range(STEPS):
        a = _STEP @ a
        acc += abs(a[0, 0])
    return time.perf_counter() - start


class Pacer:
    """Times the reference loop at the start and after every ``EVERY_S``
    seconds of op time."""

    def __init__(self):
        self.samples = [reference_s()]
        self._owed = 0.0

    def after(self, op_s: float) -> None:
        self._owed += op_s
        if self._owed >= EVERY_S:
            self._owed = 0.0
            self.samples.append(reference_s())
