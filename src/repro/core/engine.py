"""Discrete-event simulation engine.

A tiny, fast event scheduler with an integer-nanosecond clock.  All testbed
components (cores, NIC wires, traffic generators, interrupt controllers)
schedule callbacks on a shared :class:`Simulator`.

Design notes
------------
* Time is ``float`` nanoseconds internally (sub-ns fractions arise from
  cycle-to-ns conversion at 2.6 GHz); events are ordered by ``(time, seq)``
  so simultaneous events fire in FIFO order, which keeps runs deterministic.
* Callbacks take no arguments; closures capture whatever context they need.
  Hot re-arming loops (cores, paced sources) pass *bound methods*, so the
  steady state allocates no closures.
* There are no "processes"; polling loops re-arm themselves by scheduling
  their next iteration.  This keeps the hot path to a single ``heappush`` /
  ``heappop`` pair per event.
* ``run`` and ``run_until`` share one dispatch loop (:meth:`_drain`); the
  observer hook keeps its own branch of that loop so an idle hook adds
  zero per-event work to unobserved runs.
* A *parked* poll-mode core (:meth:`repro.cpu.cores.Core._park`) keeps
  no event in the heap while its polls are provably no-ops; it registers
  in ``_parked`` and :meth:`run_until` settles the polls it skipped, so
  clock, seq and event counters read exactly as if it had busy-polled.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Protocol

from repro.core.packet import reset_seq


class SimObserverProtocol(Protocol):
    """Dispatch hook contract (see :class:`repro.obs.tracing.SimObserver`)."""

    def on_event(self, time_ns: float, callback: Callable[[], None]) -> None:
        ...


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Simulator:
    """Event-driven simulator with a nanosecond clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0
        #: Idle polls accounted in ``events_executed`` without being
        #: dispatched (parked cores); dispatched = executed - replayed - parked.
        self.events_parked = 0
        #: Parked cores (see :meth:`repro.cpu.cores.Core._park`).
        self._parked: list = []
        self._observer: "SimObserverProtocol | None" = None
        #: Every :class:`Periodic` on this clock (telemetry, watchdog
        #: scans); the fast-forward census declines while one runs.
        self.samplers: list[Periodic] = []
        # One run == one Simulator: frame seqs restart so identical runs
        # hand out identical seqs regardless of process history.
        reset_seq()

    def set_observer(self, observer: "SimObserverProtocol | None") -> None:
        """Install (or clear) a dispatch observer.

        The observer's ``on_event(time_ns, callback)`` is invoked after
        every executed event.  When no observer is set the dispatch loop
        below takes its un-instrumented branch, so an idle hook costs
        nothing per event.  Parked cores rejoin their poll grid, and no
        core parks while an observer is attached, so it sees every poll.
        """
        self._observer = observer
        if observer is not None:
            for core in list(self._parked):
                core._unpark()

    @property
    def observer(self) -> "SimObserverProtocol | None":
        return self._observer

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    def at(self, time_ns: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns; clock already at {self._now} ns"
            )
        heappush(self._queue, (time_ns, self._seq, callback))
        self._seq += 1

    def after(self, delay_ns: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after a relative delay."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay {delay_ns} ns")
        heappush(self._queue, (self._now + delay_ns, self._seq, callback))
        self._seq += 1

    def _drain(self, t_end_ns: float) -> None:
        """Execute queued events with ``time <= t_end_ns`` in order.

        The single dispatch loop behind both :meth:`run` and
        :meth:`run_until`; heap ops and the queue are cached in locals, and
        the unobserved branch carries no observer test per event.
        """
        if self._running:
            raise SimulationError("dispatch is not reentrant")
        self._running = True
        try:
            queue = self._queue
            pop = heappop
            observer = self._observer
            if observer is None:
                while queue and queue[0][0] <= t_end_ns:
                    time_ns, _, callback = pop(queue)
                    self._now = time_ns
                    callback()
                    self.events_executed += 1
            else:
                on_event = observer.on_event
                while queue and queue[0][0] <= t_end_ns:
                    time_ns, _, callback = pop(queue)
                    self._now = time_ns
                    callback()
                    self.events_executed += 1
                    on_event(time_ns, callback)
        finally:
            self._running = False

    def run_until(self, t_end_ns: float) -> None:
        """Execute events in order until the clock reaches ``t_end_ns``.

        The first event strictly after ``t_end_ns`` is left in the queue and
        the clock is advanced exactly to ``t_end_ns``.  Parked cores are
        credited with the idle polls they skipped up to ``t_end_ns``.
        """
        self._drain(t_end_ns)
        for core in self._parked:
            core._settle(t_end_ns)
        self._now = max(self._now, t_end_ns)

    def run(self) -> None:
        """Run until the event queue drains completely."""
        self._drain(math.inf)

    def pending(self) -> int:
        """Number of events currently queued (a parked core's next grid
        poll counts, as it would sit in the heap of a busy-polling core)."""
        return len(self._queue) + sum(
            1 for core in self._parked if core._park_entry is None
        )

    def discard_pending(self) -> None:
        """Drop every queued event and parked core (fluid extrapolation):
        nothing dispatches or settles after this."""
        self._queue.clear()
        self._parked.clear()

    def replace_pending(
        self,
        entries: list[tuple[float, int, Callable[[], None]]],
        *,
        now: float,
        seq: int,
        events: int,
    ) -> None:
        """Atomically install a reconstructed scheduler state.

        Used by :mod:`repro.core.warp` to commit a fast-forwarded run:
        ``entries`` must be ``(time, seq, callback)`` tuples sorted by
        ``(time, seq)`` (a sorted list is a valid heap), ``now``/``seq``/
        ``events`` the clock, next event seq and executed-event count the
        replaced state corresponds to.  Refuses to run mid-dispatch.
        """
        if self._running:
            raise SimulationError("cannot replace pending events mid-dispatch")
        if now < self._now:
            raise SimulationError(
                f"cannot rewind clock to {now} ns; already at {self._now} ns"
            )
        self._queue = list(entries)
        self._now = now
        self._seq = seq
        self.events_executed = events


class Periodic:
    """One read-only periodic sampler on a simulator's clock.

    ``tick`` is called every ``period_ns`` from :meth:`start` until
    :meth:`stop` or, with ``until_ns``, through a last tick clamped to
    exactly ``until_ns``.  Each start queues a fresh tick closure and
    only the current one re-arms: a start or stop voids the queued tick,
    so a restart never leaves a second chain running.  Every instance
    registers on ``sim.samplers`` under ``census_fact``, the fact the
    fast-forward census reports while it runs.
    """

    def __init__(
        self,
        sim: Simulator,
        period_ns: float,
        tick: Callable[[], object],
        census_fact: str,
    ) -> None:
        if not period_ns > 0:
            raise ValueError(f"sampling period must be positive, got {period_ns}")
        self.sim = sim
        self.period_ns = period_ns
        self.census_fact = census_fact
        self._tick = tick
        #: The queued tick closure of the current start; None when stopped.
        self._armed: Callable[[], None] | None = None
        sim.samplers.append(self)

    @property
    def running(self) -> bool:
        return self._armed is not None

    def start(self, delay_ns: float = 0.0, until_ns: float | None = None) -> None:
        """Tick after ``delay_ns``, then every period; no-op while running."""
        if self._armed is not None:
            return
        end = math.inf if until_ns is None else until_ns

        def fire() -> None:
            if self._armed is not fire:
                return  # voided by a stop or restart
            now = self.sim.now
            if now <= end:
                self._tick()
            if self._armed is fire:
                if now < end:
                    self.sim.at(min(now + self.period_ns, end), fire)
                else:
                    self._armed = None

        self._armed = fire
        self.sim.after(delay_ns, fire)

    def stop(self) -> None:
        """Halt at once; the queued tick dies when it comes due."""
        self._armed = None
