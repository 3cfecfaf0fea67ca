"""The speed gauge that every end-to-end timing is scaled by.

The machine this benchmark was built on is a share of a host, and the
host's other tenants slow it by up to a third for seconds to minutes at
a time, on both CPUs at once.  A timing taken in a slow stretch says as
much about the neighbours as about flatknot.  So the benchmark times a
fixed kernel between its pieces of work and scales each stretch of work
by REFERENCE_S over the kernel's mean time in that stretch: a timing
then reads as it would on a machine where the kernel takes REFERENCE_S.

The kernel uses no flatknot code, so no change to the package moves it.
It mixes what flatknot's time goes to: elementwise numpy work on arrays
of tens of thousands of elements (crossing detection), a sort, and a
pure-Python loop over small integers and a dict (cycle enumeration).
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.8e-3  # seconds: the kernel in a tight loop on an unloaded 2-vCPU Xeon VM

_X = np.random.default_rng(0).normal(size=(256, 1))
_Y = np.random.default_rng(1).normal(size=8192)


def kernel() -> int:
    hits = int(np.count_nonzero(_X - _X.T > 0.5))
    order = np.argsort(_Y, kind="stable")
    seen = {}
    for i in range(1500):
        seen[i & 63] = seen.get(i & 63, 0) + (i ^ (i >> 3))
    return hits + int(order[0]) + len(seen)


class Gauge:
    """Kernel times taken between the pieces of one stretch of work."""

    def __init__(self):
        self.samples = []

    def __call__(self):
        # a garbage collection due from the work around it would land here
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def scale(self) -> float:
        """REFERENCE_S over the mean kernel time of the stretch."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
