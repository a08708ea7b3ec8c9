"""The host probe: a fixed task that does not use swanson.

run.py times it now and then to follow how fast the host runs at the
moment; a shared 2-vCPU host slows down and speeds up by itself, by as much
as a factor of two from one second to the next and differently on each
vCPU.  The task has the shape of the library's hot loops: small numpy
operations driven from a Python loop.  Its CPU time, not its wall time, is
the measure, so that time spent waiting for the interpreter lock or for
the CPU does not count.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_LOOPS = 1000
# CPU seconds the probe takes on the reference host.
PROBE_NOMINAL_S = 0.005


def probe() -> float:
    """Run the task once and return the CPU seconds of this thread it took."""
    start = time.thread_time()
    x = np.linspace(1.0, 2.0, 3)
    q = x.copy()
    below = 0
    for _ in range(PROBE_LOOPS):
        q = x - 0.5 / q
        q = np.where(np.abs(q) < 1e-300, -1e-300, q)
        below += int(q[0] < 0.0)
    return time.thread_time() - start
