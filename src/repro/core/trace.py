"""Telemetry: periodic sampling of testbed internals during a run.

The paper identifies bottlenecks by reasoning about where time goes; the
simulated testbed can simply *show* it.  A :class:`Telemetry` instance
samples registered probes (ring occupancy, core utilisation, counters)
on a fixed period and keeps the time series for post-run analysis --
used by the bottleneck-hunting example and by tests that assert queue
dynamics (e.g. queues grow at 0.99 R+ but not at 0.50 R+).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.ring import Ring
from repro.cpu.cores import Core

if TYPE_CHECKING:
    from repro.core.engine import Simulator


@dataclass
class Series:
    """One sampled time series."""

    name: str
    times_ns: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, t_ns: float, value: float) -> None:
        self.times_ns.append(t_ns)
        self.values.append(value)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def peak(self) -> float:
        return max(self.values) if self.values else 0.0

    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the sampled values, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]


class Telemetry:
    """Samples registered probes every ``period_ns`` until stopped."""

    #: What the fast-forward census reports while sampling runs.
    census_fact = "sampler-active"

    def __init__(self, sim: "Simulator", period_ns: float = 50_000.0) -> None:
        if period_ns <= 0:
            raise ValueError("sampling period must be positive")
        self.sim = sim
        self.period_ns = period_ns
        self._probes: list[tuple[Series, Callable[[], float]]] = []
        self.series: dict[str, Series] = {}
        self._running = False
        self._stop_at: float | None = None
        #: Bumped on every start/stop; a scheduled ``_sample`` from an
        #: earlier generation is stale and dies silently, so stop() and
        #: restarts never leave a phantom sampler in the event queue.
        self._generation = 0
        sim.samplers.append(self)

    def watch(self, name: str, probe: Callable[[], float]) -> Series:
        """Register an arbitrary probe function."""
        if name in self.series:
            raise ValueError(f"probe {name!r} already registered")
        series = Series(name)
        self.series[name] = series
        self._probes.append((series, probe))
        return series

    def watch_ring(self, name: str, ring: Ring) -> Series:
        """Sample a ring's occupancy."""
        return self.watch(name, ring.peek_len)

    def watch_ring_drops(self, name: str, ring: Ring) -> Series:
        """Sample a ring's cumulative drop counter."""
        return self.watch(name, lambda: float(ring.dropped))

    def watch_core_busy(self, name: str, core: Core) -> Series:
        """Sample a core's cumulative busy time (ns)."""
        return self.watch(name, lambda: core.busy_ns)

    @property
    def running(self) -> bool:
        return self._running

    def start(self, stop_at_ns: float | None = None) -> None:
        """Begin (or resume) sampling; restarting after a ``stop_at_ns``
        expiry or an explicit :meth:`stop` appends to the same series."""
        if self._running:
            return
        self._running = True
        self._stop_at = stop_at_ns
        self._generation += 1
        generation = self._generation
        self.sim.after(0, lambda: self._sample(generation))

    def stop(self) -> None:
        """Halt sampling immediately; the pending sample event is voided."""
        self._running = False
        self._generation += 1

    def _sample(self, generation: int) -> None:
        if generation != self._generation or not self._running:
            return
        now = self.sim.now
        if self._stop_at is not None and now > self._stop_at:
            self._running = False
            return
        for series, probe in self._probes:
            series.add(now, float(probe()))
        self.sim.after(self.period_ns, lambda: self._sample(generation))

    def utilization(self, core_series_name: str) -> float:
        """Mean utilisation derived from a cumulative busy-time series."""
        try:
            series = self.series[core_series_name]
        except KeyError:
            known = ", ".join(sorted(self.series)) or "<none>"
            raise KeyError(
                f"no series named {core_series_name!r}; known series: {known}"
            ) from None
        if len(series.values) < 2:
            return 0.0
        dt = series.times_ns[-1] - series.times_ns[0]
        if dt <= 0:
            return 0.0
        return (series.values[-1] - series.values[0]) / dt
