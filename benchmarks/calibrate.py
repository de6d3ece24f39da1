"""Host-speed calibration for a shared, noisy machine.

On the machine the benchmark was defined on, the same fleetchain operation
takes anywhere from 0.43 s to 0.71 s depending on the minute, with process
CPU time equal to wall time: the host itself runs faster or slower, and the
slow phases last tens of seconds. A fixed pure-Python kernel, timed between
measured operations, slows down with it. Each operation's wall time is
scaled by `REFERENCE_S / kernel time`, with the kernel timed right before
and right after it: that is its time at the host speed at which the kernel
takes `REFERENCE_S`. Raw wall times are reported alongside.

Measured over 10-second windows of a 150-second run, the scaled times of a
paired run, a sweep of short points and a small validate call spread 3.8 to
4.5 % (standard deviation of the log), against 10.6 to 13.9 % unscaled. The
kernel has to be large for that: it walks 60 000 objects, several MB, as the
slot loop walks its vehicles; a kernel that fits in the CPU caches tracked
the host worse (7 to 8 %).

The kernel does not depend on fleetchain, so no change to the program
moves it.
"""

from __future__ import annotations

import gc
import math
import time

# Kernel time on the defining machine (Intel Xeon, 2 vCPUs, CPython 3.11.7);
# it only sets the scale of the reported seconds.
REFERENCE_S = 0.09
ITEMS = 60_000


class _Item:
    __slots__ = ("key", "value", "weight")

    def __init__(self, key: int, value: float, weight: int):
        self.key = key
        self.value = value
        self.weight = weight


def kernel() -> float:
    """Seconds the fixed kernel takes now. The garbage collector is off
    meanwhile, so the kernel does not time a collection of whatever the
    caller holds on the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        items = [_Item(i, math.exp(-(i % 50) / 25.0), (i * 7) % 13) for i in range(ITEMS)]
        buckets: dict[int, float] = {}
        total = 0.0
        for item in items:
            if item.weight:
                total += item.value / item.weight
            buckets[item.key % 61] = buckets.get(item.key % 61, 0.0) + item.value
        ranked = sorted(items, key=lambda it: (-it.value, it.key))
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if not (total > 0.0 and len(buckets) == 61 and ranked[0].key == 0):
        raise RuntimeError("calibration kernel computed a wrong result")
    return elapsed


def normalise(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """`wall_s` in seconds at the reference host speed, from the kernel
    times right before and right after the interval."""
    return wall_s * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
