"""Unit tests for the CPU core model."""

from __future__ import annotations

from math import inf

import pytest

from repro.core.engine import Simulator
from repro.core.packet import Packet
from repro.core.ring import Ring
from repro.cpu.cores import Core


class FixedWorkTask:
    """Consumes a fixed number of cycles for a limited number of polls."""

    def __init__(self, cycles, times):
        self.cycles = cycles
        self.remaining = times
        self.polls = 0

    def poll(self, core):
        self.polls += 1
        if self.remaining <= 0:
            return 0.0
        self.remaining -= 1
        return self.cycles


def test_busy_time_accumulates(sim):
    core = Core(sim, "c0", freq_hz=1e9)  # 1 cycle == 1 ns
    task = FixedWorkTask(cycles=100, times=3)
    core.attach(task)
    core.start()
    sim.run_until(10_000)
    assert core.busy_ns == pytest.approx(300.0)


def test_poll_mode_core_keeps_polling_when_idle(sim):
    core = Core(sim, "c0", freq_hz=1e9, idle_loop_cycles=50)
    task = FixedWorkTask(cycles=0, times=0)
    core.attach(task)
    core.start()
    sim.run_until(1_000)
    # ~1000ns / 50ns per idle loop
    assert task.polls >= 15


def test_interrupt_core_sleeps_after_idle_streak(sim):
    core = Core(sim, "c0", freq_hz=1e9, interrupt_driven=True, idle_polls_before_sleep=4)
    task = FixedWorkTask(cycles=0, times=0)
    core.attach(task)
    core.start()
    sim.run_until(100_000)
    assert core.sleeping
    polls_when_asleep = task.polls
    sim.run_until(200_000)
    assert task.polls == polls_when_asleep  # no polling while asleep


def test_wake_resumes_after_interrupt_latency(sim):
    core = Core(
        sim, "c0", freq_hz=1e9, interrupt_driven=True,
        idle_polls_before_sleep=2, interrupt_latency_ns=500.0,
    )
    task = FixedWorkTask(cycles=0, times=0)
    core.attach(task)
    core.start()
    sim.run_until(10_000)
    assert core.sleeping
    polls_before = task.polls
    core.wake()
    assert not core.sleeping
    sim.run_until(10_000 + 499)
    assert task.polls == polls_before  # latency not yet elapsed
    sim.run_until(10_000 + 50_000)
    assert task.polls > polls_before


def test_wake_is_noop_when_awake(sim):
    core = Core(sim, "c0", interrupt_driven=True)
    core.attach(FixedWorkTask(cycles=10, times=1000))
    core.start()
    sim.run_until(100)
    pending_before = sim.pending()
    core.wake()  # not sleeping: should not schedule anything
    assert sim.pending() == pending_before


def test_round_robin_shares_one_core(sim):
    core = Core(sim, "c0", freq_hz=1e9)
    a = FixedWorkTask(cycles=100, times=10**9)
    b = FixedWorkTask(cycles=100, times=10**9)
    core.attach(a)
    core.attach(b)
    core.start()
    sim.run_until(100_000)
    # Both tasks run, each gets ~half the iterations' service time.
    assert a.polls == b.polls
    assert a.polls == pytest.approx(100_000 / 200, rel=0.05)


def test_utilization(sim):
    core = Core(sim, "c0", freq_hz=1e9)
    core.attach(FixedWorkTask(cycles=100, times=5))
    core.start()
    sim.run_until(1_000)
    assert core.utilization(1_000) == pytest.approx(0.5)
    assert core.utilization(0) == 0.0


def test_start_is_idempotent(sim):
    core = Core(sim, "c0")
    task = FixedWorkTask(cycles=0, times=0)
    core.attach(task)
    core.start()
    core.start()
    sim.run_until(100)
    # A double start must not run two interleaved poll loops.
    assert sim.events_executed <= 100 / (80 / 2.6) + 2


def test_cycles_to_ns_uses_core_frequency(sim):
    core = Core(sim, "c0", freq_hz=2.6e9)
    assert core.cycles_to_ns(2600) == pytest.approx(1000.0)


# -- idle-grid parking ------------------------------------------------------


class DrainTask:
    """Drains a ring; optionally owes one poll at or after ``due``.

    Declares ``park_rings`` only when ``parks`` is set, so the same task
    without it is the busy-polling reference.
    """

    def __init__(self, sim, ring, due=None, parks=True):
        self.sim = sim
        self.ring = ring
        self.due = due
        self.work = []  # (time, what) of every poll that did something
        if parks:
            self.park_rings = (ring,)

    def park_deadline(self):
        return inf if self.due is None else self.due

    def poll(self, core):
        now = self.sim.now
        if self.due is not None and now >= self.due:
            self.due = None
            self.work.append((now, "due"))
            return 10.0
        batch = self.ring.pop_batch(32)
        if batch:
            self.work.append((now, len(batch)))
            return 40.0 * len(batch)
        return 0.0


def _parking_run(parks, pushes=(1_000.0, 1_003.0, 25_000.0), due=None,
                 stops=(7_000.0, 40_000.0), fault=None):
    """Drive one DrainTask core; return everything parking must preserve."""
    sim = Simulator()
    ring = Ring(64)
    core = Core(sim, "c0")
    task = DrainTask(sim, ring, due=due, parks=parks)
    core.attach(task)
    core.start()
    for t in pushes:
        sim.at(t, lambda: ring.push(Packet()))
    if fault is not None:
        fault(sim, core)
    views = []
    for stop in stops:
        sim.run_until(stop)
        views.append((
            sim.now, sim._seq, sim.events_executed, sim.pending(),
            core._idle_streak, core.busy_ns, tuple(task.work),
        ))
    return views, sim


@pytest.mark.parametrize("due", [None, 12_345.6])
def test_parked_core_matches_busy_polling(due):
    parked, sim = _parking_run(True, due=due)
    busy, busy_sim = _parking_run(False, due=due)
    assert parked == busy
    assert sim.events_parked > 0 and busy_sim.events_parked == 0
    # Dispatched = executed - parked: parking removed most of the heap work.
    assert sim.events_executed - sim.events_parked < busy_sim.events_executed / 10


def test_park_deadline_poll_runs_on_the_busy_grid():
    parked, _ = _parking_run(True, pushes=(), due=12_345.6)
    busy, _ = _parking_run(False, pushes=(), due=12_345.6)
    assert parked == busy
    (when, what), = parked[-1][-1]
    assert what == "due" and 12_345.6 <= when < 12_345.6 + 80 / 2.6


def test_preempting_a_parked_core_matches_busy_polling():
    # (A throttle on a parked core once hung ``_unpark``; that regression
    # test runs in a subprocess, in tests/unit/test_parking.py.)
    def preempt(sim, core):
        sim.at(5_000.0, core.preempt)
        sim.at(9_000.0, core.resume_from_preemption)

    parked, sim = _parking_run(True, fault=preempt)
    busy, _ = _parking_run(False, fault=preempt)
    assert parked == busy
    assert sim.events_parked > 0


def test_observer_keeps_every_poll_on_the_heap():
    class Observer:
        def on_event(self, time_ns, callback):
            pass

    sim = Simulator()
    ring = Ring(8)
    core = Core(sim, "c0")
    core.attach(DrainTask(sim, ring))
    core.start()
    sim.run_until(1_000.0)
    assert core._parked
    sim.set_observer(Observer())  # a parked core rejoins its grid
    assert not core._parked
    parked_so_far = sim.events_parked
    sim.run_until(5_000.0)
    assert sim.events_parked == parked_so_far


def test_discard_pending_drops_parked_cores():
    sim = Simulator()
    core = Core(sim, "c0")
    core.attach(DrainTask(sim, Ring(8)))
    core.start()
    sim.run_until(1_000.0)
    assert sim.pending() == 1  # the parked core's next grid poll
    sim.discard_pending()
    events = sim.events_executed
    sim.run_until(9_000.0)
    assert sim.pending() == 0 and sim.events_executed == events
