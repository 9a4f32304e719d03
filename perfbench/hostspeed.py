"""Host speed, from a fixed kernel timed next to every measurement.

The shared hosts this benchmark runs on change speed for seconds to
minutes at a time, by up to 1.7x, and the slowdown hits every
interpreted instruction alike.  So each timed interval is paired with
the time of a small pure-Python kernel run right before it, and every
reported time is scaled to a host on which that kernel takes
REFERENCE_S: ``scaled = measured * REFERENCE_S / kernel``.  The kernel
uses no derlint code, so a change to derlint moves the scaled figures
exactly as it moves the measured ones.
"""

from __future__ import annotations

import random
import time

REFERENCE_S = 0.0004

_INPUT = random.Random(0).randbytes(2000)


def _kernel() -> int:
    # Byte loop, integer arithmetic, dict updates and small allocations:
    # the operations derlint's layers are made of.
    acc = 0
    counts: dict[int, int] = {}
    pending = []
    for b in _INPUT:
        acc = (acc * 31 + b) & 0xFFFFFFFF
        if b & 3 == 0:
            counts[b] = counts.get(b, 0) + 1
        if b & 15 == 0:
            pending.append((b, acc))
    return acc + len(counts) + len(pending)


def kernel_seconds() -> float:
    """The kernel's time right now: the faster of two passes."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured next to kernel_s into reference time."""
    return REFERENCE_S / kernel_s
