"""Host speed probe: a fixed mix of small numpy draws and Python loop work.

It uses no qzopt code, so a change to qzopt cannot move it.  Timed calls
are measured in CPU time of the calling process (``clock``), which leaves
out time the process waits for a CPU that other processes of the same
machine hold, and rescaled by ``PROBE_REF_S / (probe time around the
call)``, which removes the slow-downs that show inside CPU time (other
tenants of the host).  The result is CPU seconds at the reference host
speed.  Only numpy is imported, so the orchestrating parent can probe
before it spawns an interpreter.
"""
from __future__ import annotations

import time

import numpy as np

# cpu_probe() on a 2-core Xeon VM when no other tenant loads the host.
PROBE_REF_S = 0.0016

clock = time.process_time  # CPU seconds of this process, all threads


def cpu_probe(rng=np.random.default_rng(0)) -> float:
    """Median of three timings of the fixed loop, in CPU seconds."""
    times = []
    for _ in range(3):
        t0 = clock()
        acc = 0.0
        for _ in range(100):
            x = rng.standard_normal((64, 8))
            acc += float((x / np.sqrt((x * x).sum(axis=1))[:, None]).sum())
        times.append(clock() - t0)
    return sorted(times)[1]
