"""Machine-speed calibration.

The CPUs of a shared machine run at a speed that drifts by up to 2x over
seconds as other tenants load them.  A fixed loop, timed right before
and after each measured step in the same process, tracks that speed;
dividing a step's time by the loop's time (and multiplying by REF_S)
reports the step as it would run on a CPU on which the loop takes REF_S.

The loop makes many small numpy calls on tiny arrays, each allocating
its result, as greektag's decoder does per trellis block.  On this kind
of machine its time moved in proportion (elasticity about 1.0) with
cold tagging, training and per-sequence latency, whereas a loop of pure
dict traffic moved only 0.7 as much; see README.md.  It never calls
greektag, so a change to greektag does not change it.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference time of one calibration loop, in seconds.
REF_S = 0.010

_BLOCK = np.arange(60.0).reshape(3, 4, 5)


def calibrate() -> float:
    """Seconds taken by one run of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(1000):
        b = _BLOCK + 1.0
        best = b.max(axis=0)
        arg = b.argmax(axis=0)
        acc += float(best[1, 2]) + int(arg[0, 0]) + len(np.nonzero(b[0] > 3.0)[0])
    if acc <= 0:  # keeps the work observable
        raise AssertionError
    return time.perf_counter() - t0


def scale(seconds: float, cal: float) -> float:
    """``seconds`` measured while the loop took ``cal``, at reference speed."""
    return seconds * REF_S / cal
