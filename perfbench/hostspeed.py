"""Host-speed calibration for the timed metrics.

On a shared machine the speed of one core can swing by up to 2x within
minutes as other tenants come and go.  The benchmark therefore times a
fixed pure-Python kernel, which runs none of the repository's code,
between short segments of a workload, and scales each segment's
wall-clock times by ``REFERENCE_S / kernel time``: the figures read as
times on a host where the kernel takes ``REFERENCE_S``.  On a 2-vCPU
shared Xeon VM this narrowed the run-to-run range of batch-warm
throughput from 1.5x (raw) to 1.1x (scaled).  A kernel touching a few
MB of memory tracked the workloads worse than this one.  The raw times
are kept in each result file, and ``host.kernel_ms`` reports the
kernel time itself.
"""

from __future__ import annotations

import statistics
import time

#: Seconds the kernel takes on an uncontended core of the reference
#: host (a 2-vCPU Intel Xeon VM); the scale of the reported times.
REFERENCE_S = 0.005

_TABLE = list(range(1024))


def kernel_seconds(repeats: int = 3) -> float:
    """Median wall time of the calibration kernel.  It allocates no
    object the garbage collector tracks, so the heap the workload has
    built does not change its cost."""
    times = []
    for _ in range(repeats):
        acc = 0
        start = time.perf_counter()
        for i in range(40_000):
            acc = (acc + _TABLE[(i * 7) & 1023] * 3) & 0xFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)
