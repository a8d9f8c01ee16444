"""The reference loop: how fast the CPU it runs on executes Python right now.

On a shared host the speed of a CPU drifts by up to 1.6x over minutes, and
only a sample taken on the same CPU close in time follows it. Timings are
scaled by a sample so taken to the speed of the host the benchmark was tuned
on. This module imports nothing heavy, because a fresh interpreter timed for
setup_s imports it too.
"""

from time import perf_counter

# Time of reference_s() on the host the benchmark was tuned on (Intel Xeon,
# 2 vCPUs under KVM, Python 3.11). Scaled timings are seconds at that speed.
REFERENCE_S = 0.015


def reference_s() -> float:
    """Time of a fixed pure-Python loop."""
    started = perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return perf_counter() - started


def scaled(seconds: float, ref: float) -> float:
    """seconds measured where the reference loop took ref, at REFERENCE_S."""
    return seconds * REFERENCE_S / ref
