"""The host's speed, measured with a fixed loop that never calls polylat.

The benchmark's host is a shared 2-vCPU guest whose speed for fixed work
drifts by half over minutes (neighbours on the same cores, not CPU steal:
the guest's steal counter stays flat).  Every timing of a run is scaled
to the reference speed, at which `sample_ns()` reads `NOMINAL_NS`, by
the reference samples taken around it:

    reported = measured * NOMINAL_NS / median(nearby samples)

The loop mixes interpreter work and small numpy calls, like the
workloads, and stays fixed, so a faster program reads faster by the same
share at any host speed.  The raw times are kept in the run's record.
"""

import statistics
import time

import numpy as np

NOMINAL_NS = 350_000  # the loop's usual time on the 2.1 GHz Xeon guest it was written on
EVERY_NS = 100_000_000  # the timed loop takes a sample before an op once this has passed
WINDOW = 5  # samples on each side of an op that set its scale

_DATA = np.random.default_rng(0).standard_normal(4000)


def _loop_ns():
    t0 = time.perf_counter_ns()
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    a = _DATA
    for _ in range(5):
        a = np.sort(a) * 1.0000001
    return time.perf_counter_ns() - t0


def sample_ns():
    """One reference sample: the median of three runs of the loop."""
    return statistics.median(_loop_ns() for _ in range(3))


def scales(samples, n_ops):
    """Per-op factors to the reference speed.

    `samples` are (index of the next op, ns) pairs in op order; op i is
    scaled by the median of the WINDOW samples before it and after it
    around the last sample taken before it.
    """
    at = [i for i, _ in samples]
    ns = [v for _, v in samples]
    out, j = [], 0
    for i in range(n_ops):
        while j + 1 < len(at) and at[j + 1] <= i:
            j += 1
        near = ns[max(0, j - WINDOW) : j + WINDOW + 1]
        out.append(NOMINAL_NS / statistics.median(near))
    return out
