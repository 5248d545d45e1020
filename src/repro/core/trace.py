"""Telemetry: periodic sampling of testbed internals during a run.

The paper identifies bottlenecks by reasoning about where time goes; the
simulated testbed can simply *show* it.  A :class:`Telemetry` instance
samples registered probes (ring occupancy, core utilisation, counters)
on a fixed period and keeps the time series for post-run analysis --
used by the bottleneck-hunting example, by the degradation timeline of
:func:`repro.measure.resilience.measure_resilience`, and by tests that
assert queue dynamics (e.g. queues grow at 0.99 R+ but not at 0.50 R+).
Sampling runs on one :class:`~repro.core.engine.Periodic` schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.engine import Periodic, Simulator
from repro.core.ring import Ring
from repro.cpu.cores import Core


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

    def __init__(self, sim: Simulator, period_ns: float = 50_000.0) -> None:
        self.sim = sim
        self._schedule = Periodic(sim, period_ns, self._sample, "sampler-active")
        self.period_ns = period_ns
        self._probes: list[tuple[Series, Callable[[], float]]] = []
        self.series: dict[str, Series] = {}

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
        return self._schedule.running

    def start(self, stop_at_ns: float | None = None) -> None:
        """Begin (or resume) sampling now; the last sample lands exactly
        on ``stop_at_ns`` when given.  Restarting after that expiry or an
        explicit :meth:`stop` appends to the same series."""
        self._schedule.start(until_ns=stop_at_ns)

    def stop(self) -> None:
        """Halt sampling immediately; the pending sample event is voided."""
        self._schedule.stop()

    def _sample(self) -> None:
        now = self.sim.now
        for series, probe in self._probes:
            series.add(now, float(probe()))

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
