"""Unit tests for the telemetry subsystem and the periodic schedule it
shares with the invariant watchdog."""

from __future__ import annotations

import pytest

from repro.core.engine import Simulator
from repro.core.packet import Packet
from repro.core.ring import Ring
from repro.core.trace import Series, Telemetry
from repro.cpu.cores import Core
from repro.faults.watchdog import InvariantWatchdog
from repro.scenarios import p2p


def test_series_statistics():
    series = Series("s")
    for t, v in ((0, 1.0), (10, 3.0), (20, 2.0)):
        series.add(t, v)
    assert series.mean == pytest.approx(2.0)
    assert series.peak == 3.0
    assert series.last() == 2.0


def test_empty_series():
    series = Series("s")
    assert series.mean == 0.0
    assert series.peak == 0.0
    assert series.last() == 0.0


def test_invalid_period(sim):
    with pytest.raises(ValueError):
        Telemetry(sim, period_ns=0)


def test_duplicate_probe_rejected(sim):
    telemetry = Telemetry(sim)
    telemetry.watch("x", lambda: 0.0)
    with pytest.raises(ValueError):
        telemetry.watch("x", lambda: 1.0)


def test_samples_on_period(sim):
    telemetry = Telemetry(sim, period_ns=100.0)
    values = iter(range(1000))
    series = telemetry.watch("count", lambda: float(next(values)))
    telemetry.start()
    sim.run_until(1_000)
    assert len(series.values) == 11  # t=0..1000 inclusive
    assert series.times_ns[1] - series.times_ns[0] == pytest.approx(100.0)


def test_stop_at(sim):
    telemetry = Telemetry(sim, period_ns=100.0)
    series = telemetry.watch("x", lambda: 1.0)
    telemetry.start(stop_at_ns=250.0)
    sim.run_until(10_000)
    # The last sample lands exactly on the off-grid end and nothing is
    # left queued past it.
    assert series.times_ns == [0.0, 100.0, 200.0, 250.0]
    assert not telemetry.running
    assert sim.pending() == 0


def test_watch_ring_occupancy(sim):
    ring = Ring(64)
    telemetry = Telemetry(sim, period_ns=100.0)
    series = telemetry.watch_ring("ring", ring)
    telemetry.start()
    sim.at(150, lambda: ring.push_batch([Packet() for _ in range(5)]))
    sim.run_until(400)
    assert series.values[0] == 0
    assert series.last() == 5


def test_watch_ring_drops(sim):
    ring = Ring(2)
    telemetry = Telemetry(sim, period_ns=100.0)
    series = telemetry.watch_ring_drops("drops", ring)
    telemetry.start()
    sim.at(150, lambda: ring.push_batch([Packet() for _ in range(5)]))
    sim.run_until(400)
    assert series.last() == 3


def test_core_utilization(sim):
    core = Core(sim, "c", freq_hz=1e9)

    class Busy:
        def poll(self, core):
            return 50.0  # always half-busy at 100ns poll granularity? no: full

    core.attach(Busy())
    core.start()
    telemetry = Telemetry(sim, period_ns=1_000.0)
    telemetry.watch_core_busy("core", core)
    telemetry.start()
    sim.run_until(100_000)
    # The task consumes 50 cycles (=50ns) per iteration and iterations are
    # back-to-back, so utilisation is ~100%.
    assert telemetry.utilization("core") == pytest.approx(1.0, abs=0.05)


def test_utilization_requires_samples(sim):
    telemetry = Telemetry(sim, period_ns=100.0)
    telemetry.watch("core", lambda: 0.0)
    assert telemetry.utilization("core") == 0.0


def test_series_percentile_and_min():
    series = Series("s")
    for t, v in enumerate((5.0, 1.0, 3.0, 2.0, 4.0)):
        series.add(t, v)
    assert series.min == 1.0
    assert series.percentile(0) == 1.0
    assert series.percentile(50) == 3.0
    assert series.percentile(100) == 5.0


def test_series_percentile_validates_range():
    series = Series("s")
    with pytest.raises(ValueError):
        series.percentile(101)
    assert series.percentile(50) == 0.0  # empty series


def _telemetry(period_ns):
    """A Telemetry on a bare clock; it samples at t=0, then every period."""
    sim = Simulator()
    telemetry = Telemetry(sim, period_ns=period_ns)
    series = telemetry.watch("x", lambda: 1.0)
    return sim, telemetry, lambda: len(series.values)


def _watchdog(period_ns):
    """An InvariantWatchdog; its first scan comes one interval after start."""
    tb = p2p.build("vale", frame_size=64, seed=1)
    watchdog = InvariantWatchdog(tb, interval_ns=period_ns)
    return tb.sim, watchdog, lambda: watchdog.scans


#: Periodic samplers and how many ticks each gives over ten periods.
SAMPLERS = {"telemetry": (_telemetry, 11), "watchdog": (_watchdog, 10)}
PERIOD_NS = 100_000.0


@pytest.mark.parametrize("kind", SAMPLERS)
def test_stop_halts_sampling(kind):
    make, _ = SAMPLERS[kind]
    sim, sampler, ticks = make(PERIOD_NS)
    sampler.start()
    sim.run_until(5 * PERIOD_NS)
    assert sampler.running
    sampler.stop()
    assert not sampler.running
    n = ticks()
    sim.run_until(20 * PERIOD_NS)
    assert ticks() == n  # the pending tick died silently


@pytest.mark.parametrize("kind", SAMPLERS)
def test_restart_within_a_period_runs_one_chain(kind):
    make, expected = SAMPLERS[kind]
    sim, sampler, ticks = make(PERIOD_NS)
    sampler.start()
    sampler.stop()
    sampler.start()  # the first start's queued tick must not re-arm
    sim.run_until(10 * PERIOD_NS)
    assert ticks() == expected


def test_restart_after_stop_appends(sim):
    telemetry = Telemetry(sim, period_ns=100.0)
    series = telemetry.watch("x", lambda: sim.now)
    telemetry.start()
    sim.run_until(300)
    telemetry.stop()
    sim.run_until(1_000)
    telemetry.start()
    sim.run_until(1_300)
    # Samples from both windows land in the same series, none in between.
    assert any(t <= 300 for t in series.times_ns)
    assert any(t >= 1_000 for t in series.times_ns)
    assert not any(400 <= t <= 900 for t in series.times_ns)


def test_restart_after_stop_at_expiry(sim):
    telemetry = Telemetry(sim, period_ns=100.0)
    series = telemetry.watch("x", lambda: 1.0)
    telemetry.start(stop_at_ns=250.0)
    sim.run_until(1_000)
    assert not telemetry.running
    first_window = len(series.values)
    telemetry.start()  # no stop_at: samples until the run ends
    sim.run_until(1_500)
    assert len(series.values) > first_window
    assert series.times_ns[-1] > 1_000


@pytest.mark.parametrize("kind", SAMPLERS)
def test_double_start_is_idempotent(kind):
    make, expected = SAMPLERS[kind]
    sim, sampler, ticks = make(PERIOD_NS)
    sampler.start()
    sampler.start()  # must not double the sampling rate
    sim.run_until(10 * PERIOD_NS)
    assert ticks() == expected


def test_utilization_unknown_series_names_known(sim):
    telemetry = Telemetry(sim)
    telemetry.watch("alpha", lambda: 0.0)
    telemetry.watch("beta", lambda: 0.0)
    with pytest.raises(KeyError) as excinfo:
        telemetry.utilization("gamma")
    message = str(excinfo.value)
    assert "gamma" in message
    assert "alpha" in message and "beta" in message
