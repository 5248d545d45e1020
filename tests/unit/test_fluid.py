"""Unit tests for the fluid (rate-based) fast-forward tier."""

from __future__ import annotations

import pytest

from repro.core.fluid import CAL_CAP_NS, CAL_FLOOR_NS, fluid_tolerance, try_fluid
from repro.core.trace import Telemetry
from repro.core.warp import WarpReport, engine_features, env_setting, try_warp
from repro.faults.watchdog import InvariantWatchdog
from repro.measure.runner import drive
from repro.scenarios import p2p


def _fluid(result):
    """The run's fluid report (asserting fluid was the tier reported)."""
    assert result.warp is not None and result.warp.mode == "fluid", result.warp
    return result.warp


def test_fluid_enabled_parses_environment(monkeypatch):
    monkeypatch.delenv("REPRO_FLUID", raising=False)
    assert env_setting("REPRO_FLUID", False) is False
    assert env_setting("REPRO_FLUID", True) is True
    for value, expected in [
        ("1", True), ("true", True), ("on", True), ("yes", True),
        ("0", False), ("false", False), ("off", False), ("", False),
    ]:
        monkeypatch.setenv("REPRO_FLUID", value)
        assert env_setting("REPRO_FLUID", False) is expected, value
    monkeypatch.setenv("REPRO_FLUID", "maybe")
    with pytest.raises(ValueError, match=r"REPRO_FLUID='maybe'.*1, true, on, yes"):
        env_setting("REPRO_FLUID", False)


def test_fluid_tolerance_parses_environment(monkeypatch):
    monkeypatch.delenv("REPRO_FLUID_TOLERANCE", raising=False)
    assert fluid_tolerance() == 0.05
    monkeypatch.setenv("REPRO_FLUID_TOLERANCE", "0.02")
    assert fluid_tolerance() == 0.02
    for bad in ("garbage", "-1", "0", "nan"):
        monkeypatch.setenv("REPRO_FLUID_TOLERANCE", bad)
        with pytest.raises(ValueError, match="REPRO_FLUID_TOLERANCE.*positive numbers"):
            fluid_tolerance()


def test_engine_features_gain_fluid_keys_only_when_enabled(monkeypatch):
    """Cache-key safety: a fluid-off session must fingerprint exactly as
    it did before the fluid tier existed."""
    monkeypatch.delenv("REPRO_FLUID", raising=False)
    off = dict(engine_features())
    assert not any(key.startswith("fluid") for key in off)
    monkeypatch.setenv("REPRO_FLUID", "1")
    on = dict(engine_features())
    assert on["fluid_version"] >= 1
    assert on["fluid_tolerance"] == fluid_tolerance()


def test_report_describe_both_shapes():
    engaged = WarpReport(
        engaged=True, mode="fluid", warped_ns=9e6, verify_ns=1e6, tolerance=0.05
    )
    assert engaged.describe() == (
        "engaged[fluid]: extrapolated 9.000 ms from a 1.000 ms calibration "
        "slice (tolerance 5.0%)"
    )
    declined = WarpReport(engaged=False, mode="fluid", reason="span-too-short")
    assert declined.describe() == "declined[fluid]: span-too-short"


def test_engages_on_clean_run_and_extrapolates(monkeypatch):
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)  # fluid declines it
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    watched = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    InvariantWatchdog(watched).start()
    assert try_fluid(watched, 6e5, 6e5 + 6e7).reason == "watchdog-active"
    result = drive(tb, warmup_ns=6e5, measure_ns=6e7, fluid=True)
    report = _fluid(result)
    assert report.engaged, result
    assert CAL_FLOOR_NS <= report.verify_ns <= CAL_CAP_NS
    assert report.warped_ns == pytest.approx(6e7 - report.verify_ns)
    # The heap was drained and meters hold extrapolated window counts.
    assert result.mpps == pytest.approx(3.0, rel=0.05)
    total = sum(m.packets for m in tb.meters)
    assert total == pytest.approx(3e6 * 6e7 / 1e9, rel=0.05)


def test_declines_below_double_calibration_span():
    tb = p2p.build("vpp", frame_size=64, seed=1)
    report = try_fluid(tb, 6e5, 6e5 + 1.5 * CAL_FLOOR_NS)
    assert not report.engaged
    assert report.reason == "span-too-short"
    assert not report.advanced


def test_declines_under_watchdog():
    tb = p2p.build("vpp", frame_size=64, seed=1)
    InvariantWatchdog(tb).start()
    report = try_fluid(tb, 6e5, 6e7)
    assert not report.engaged
    assert report.reason == "watchdog-active"


def test_samplers_decline_instead_of_being_truncated(monkeypatch):
    """Fluid would stop a running watchdog or Telemetry at the calibration
    edge when it discards the heap; the run declines and samples it all."""
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
    tb = p2p.build("vpp", frame_size=64, rate_pps=1e6, seed=1)
    watchdog = InvariantWatchdog(tb)
    watchdog.start()
    telemetry = Telemetry(tb.sim)
    series = telemetry.watch_ring("rx", tb.extras["sut_ports"][0].rx_ring)
    telemetry.start()
    result = drive(tb, warmup_ns=6e5, measure_ns=6e7, fluid=True)
    assert result.warp.describe() == "declined[replay]: sampler-active"
    assert watchdog.scans >= 600
    assert series.times_ns[-1] >= 6e5 + 6e7 - telemetry.period_ns
    # Both tiers decline with the sampler's own reason.
    for attach, reason in (
        (lambda tb: Telemetry(tb.sim).start(), "sampler-active"),
        (lambda tb: InvariantWatchdog(tb).start(), "watchdog-active"),
    ):
        for attempt in (try_fluid, try_warp):
            tb = p2p.build("vpp", frame_size=64, rate_pps=1e6, seed=1)
            attach(tb)
            assert attempt(tb, 6e5, 6e7).reason == reason


def test_declines_on_armed_fault_plan():
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent, FaultPlan

    tb = p2p.build("vpp", frame_size=64, seed=1)
    plan = FaultPlan.of(
        FaultEvent.from_dict(
            {"kind": "nic-link-flap", "target": "sut-nic.p1",
             "at_ns": 1.2e6, "duration_ns": 3e5}
        )
    )
    FaultInjector(tb, plan).arm()
    report = try_fluid(tb, 6e5, 6e7)
    assert not report.engaged
    assert report.reason == "fault-plan-active"


def test_declines_on_flow_telemetry():
    tb = p2p.build("ovs-dpdk", frame_size=64, seed=1)
    tb.extras["flowstats"] = object()  # what obs attach leaves behind
    report = try_fluid(tb, 6e5, 6e7)
    assert not report.engaged
    assert report.reason == "flow-telemetry"


def test_declines_on_flow_churn():
    tb = p2p.build(
        "ovs-dpdk", frame_size=64, seed=1,
        flow_dist="uniform", flows=64, churn=1000.0,
    )
    report = try_fluid(tb, 6e5, 6e7)
    assert not report.engaged
    assert report.reason == "flow-churn"


def test_drive_fluid_kwarg_pins_the_tier(monkeypatch):
    monkeypatch.delenv("REPRO_FLUID", raising=False)
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)  # fluid declines it
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    assert _fluid(drive(tb, measure_ns=6e7, fluid=True)).engaged
    # Default-off: no fluid attempt at all without the kwarg or env.
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    assert drive(tb, measure_ns=6e7).warp.mode == "replay"
    # The same run declines under the environment's watchdog.
    monkeypatch.setenv("REPRO_WATCHDOG", "1")
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    assert _fluid(drive(tb, measure_ns=6e7, fluid=True, warp=False)).reason == (
        "watchdog-active"
    )


def test_fluid_rate_within_declared_tolerance(monkeypatch):
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)  # fluid declines it
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    exact = drive(tb, measure_ns=6e7)
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    fluid = drive(tb, measure_ns=6e7, fluid=True)
    assert _fluid(fluid).engaged
    tb = p2p.build("vpp", frame_size=64, rate_pps=3e6, seed=1)
    InvariantWatchdog(tb).start()
    assert try_fluid(tb, 6e5, 6e5 + 6e7).reason == "watchdog-active"
    rel_err = abs(fluid.mpps - exact.mpps) / exact.mpps
    assert rel_err <= fluid_tolerance()
