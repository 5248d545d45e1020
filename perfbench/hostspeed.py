"""Host speed, measured beside the workload, so time metrics track the simulator.

The benchmark shares its host: the speed of the same code swings up to
2x over tens of seconds (frequency, neighbours on the same cores), and
CPU time tracks wall time, so a raw host-second figure measures the
host as much as the simulator.  :class:`HostSpeed` times a fixed
pure-Python kernel -- a heap of timestamped events, slotted objects,
dict counters and float arithmetic, the operations a discrete-event
simulator spends its time in -- at run boundaries, at most every
:data:`INTERVAL_S`, and :meth:`HostSpeed.scaled` turns a host interval
into *reference seconds*: each piece of the interval, calibration
excluded, times ``REFERENCE_KERNEL_S / kernel seconds``, where kernel
seconds is the median of the :data:`WINDOW` samples centred on the one
that precedes the piece (one sample is noisier than the host's swings).  A reference second is a host second on a host that
runs the kernel in :data:`REFERENCE_KERNEL_S`.

The kernel is part of the benchmark, not of the simulator, so a change
to ``src/repro`` moves reference seconds exactly as it moves host
seconds on a steady host.  The garbage collector is off while the
kernel runs, so the simulator's heap does not leak into the sample.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from bisect import bisect_right

#: Kernel seconds that define the reference second.  The kernel (best of
#: :data:`REPS`) takes 0.6-1.45 ms on a 2-core x86-64 container under
#: Python 3.11, depending on the moment.
REFERENCE_KERNEL_S = 0.001
#: Kernel repetitions per sample; the sample is the fastest.
REPS = 4
#: Least host time between two samples.
INTERVAL_S = 0.25
#: Samples whose median gives the speed of one piece of host time.
WINDOW = 9


class _Event:
    __slots__ = ("at", "port", "size", "acc")

    def __init__(self, at: float, port: int, size: int) -> None:
        self.at = at
        self.port = port
        self.size = size
        self.acc = 0.0

    def fire(self, now: float) -> float:
        self.acc += (now - self.at) * 0.5 + self.size
        return self.acc


def _kernel(n: int = 500) -> float:
    heap: list = []
    counters: dict[int, int] = {}
    for i in range(n):
        event = _Event(float(i * 7919 % 1009), i % 13, 64 + i % 1455)
        heapq.heappush(heap, (event.at, i, event))
    total = 0.0
    while heap:
        at, i, event = heapq.heappop(heap)
        counters[event.port] = counters.get(event.port, 0) + event.size
        total += event.fire(at + 1.0)
    return total + sum(counters.values())


def kernel_seconds(reps: int = REPS) -> float:
    """Fastest of ``reps`` timed kernel runs, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class HostSpeed:
    """Kernel samples along the host clock of one process."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless the last sample is under the interval old."""
        start = time.perf_counter()
        if not force and self.ends and start - self.ends[-1] < self.interval_s:
            return
        kernel = kernel_seconds()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.kernel_s.append(kernel)

    def _pieces(self, t0: float, t1: float):
        """(host seconds, kernel seconds) of [t0, t1] outside calibration."""
        if not self.kernel_s:
            raise RuntimeError("no host-speed sample taken")
        n = len(self.kernel_s)
        # Before the first sample, the first sample's speed applies.
        yield max(0.0, min(t1, self.starts[0]) - t0), self._kernel_at(0)
        j = max(0, bisect_right(self.ends, t0) - 1)
        while j < n and self.ends[j] < t1:
            hi = self.starts[j + 1] if j + 1 < n else t1
            yield max(0.0, min(hi, t1) - max(self.ends[j], t0)), self._kernel_at(j)
            j += 1

    def _kernel_at(self, j: int) -> float:
        half = WINDOW // 2
        return statistics.median(self.kernel_s[max(0, j - half):j + half + 1])

    def host(self, t0: float, t1: float) -> float:
        """Host seconds in [t0, t1], calibration excluded."""
        return sum(seconds for seconds, _ in self._pieces(t0, t1))

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds in [t0, t1], calibration excluded."""
        return sum(
            seconds * REFERENCE_KERNEL_S / kernel for seconds, kernel in self._pieces(t0, t1)
        )
