"""Integration tests for fault injection and resilience measurement.

Covers the per-layer fault kinds end-to-end, the determinism contract
(same seed + plan => byte-identical metrics, serial or parallel), the
campaign wiring, the env-gated watchdog and graceful SIGINT handling.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import RunSpec, execute_run, grid
from repro.campaign.store import CampaignStore
from repro.faults import FaultEvent, FaultPlan
from repro.measure.resilience import measure_resilience
from repro.scenarios import p2p, p2v

_WINDOWS = {"warmup_ns": 400_000.0, "measure_ns": 1_600_000.0}


def _flap(at_ns=800_000.0, duration_ns=300_000.0, target="sut-nic.p1"):
    return FaultPlan.of(
        FaultEvent(at_ns=at_ns, kind="nic-link-flap", target=target, duration_ns=duration_ns)
    )


# ---------------------------------------------------------------------------
# Fault effects, per layer
# ---------------------------------------------------------------------------


def test_link_flap_costs_frames_then_recovers():
    result, report, obs = measure_resilience(
        p2p.build, "vale", 64, _flap(), **_WINDOWS
    )
    assert obs is None
    assert report.pre_fault_pps > 1e6
    assert report.loss_during_fault_frames > 0
    assert report.drops_during_fault_frames > 0
    assert report.recovered
    assert report.time_to_recover_ns is not None
    assert report.fault_spans[0]["detail"]["frames_dropped"] > 0
    # The flap must hurt the aggregate number vs an unfaulted run.
    clean = p2p.build("vale", frame_size=64, seed=1)
    from repro.measure.runner import drive

    baseline = drive(clean, **_WINDOWS)
    assert result.gbps < baseline.gbps


def test_timeline_shows_the_outage_window():
    _, report, _ = measure_resilience(p2p.build, "vale", 64, _flap(), **_WINDOWS)
    during = [
        row["pps"]
        for row in report.timeline
        if 800_000.0 < row["t_ns"] <= 1_100_000.0
    ]
    after = [row["pps"] for row in report.timeline if row["t_ns"] > 1_300_000.0]
    assert during and min(during) < 0.5 * report.pre_fault_pps
    assert after and max(after) > 0.9 * report.pre_fault_pps


def test_vnf_crash_halts_guest_traffic_and_restarts():
    plan = FaultPlan.of(
        FaultEvent(at_ns=800_000.0, kind="vnf-crash", target="vm1", duration_ns=300_000.0)
    )
    _, report, _ = measure_resilience(p2v.build, "vale", 64, plan, **_WINDOWS)
    span = report.fault_spans[0]
    assert span["kind"] == "vnf-crash"
    assert "frames_lost" in span["detail"]
    assert "frames_drained" in span["detail"]
    assert report.loss_during_fault_frames > 0


def test_vif_disconnect_and_freeze():
    for kind in ("vif-disconnect", "vif-freeze"):
        plan = FaultPlan.of(
            FaultEvent(at_ns=800_000.0, kind=kind, target="vm1.eth0", duration_ns=200_000.0)
        )
        _, report, _ = measure_resilience(p2v.build, "vale", 64, plan, **_WINDOWS)
        assert report.fault_spans[0]["kind"] == kind
        assert report.recovered, f"{kind} should heal after reconnect/thaw"


def test_core_preempt_and_throttle_degrade_throughput():
    for kind in ("core-preempt", "core-throttle"):
        plan = FaultPlan.of(
            FaultEvent(at_ns=800_000.0, kind=kind, target="numa0/sut", duration_ns=300_000.0)
        )
        _, report, _ = measure_resilience(p2p.build, "vale", 64, plan, **_WINDOWS)
        assert report.loss_during_fault_frames > 0, kind
        assert report.recovered, kind


def test_mac_flush_is_instant_and_survivable():
    plan = FaultPlan.of(
        FaultEvent(at_ns=800_000.0, kind="switch-mac-flush", target="switch")
    )
    _, report, _ = measure_resilience(p2p.build, "vale", 64, plan, **_WINDOWS)
    span = report.fault_spans[0]
    assert span["start_ns"] == span["end_ns"] == 800_000.0
    assert span["detail"]["entries_flushed"] >= 1
    assert report.recovered


def test_emc_flush_and_flow_reinstall_on_ovs():
    plan = FaultPlan.of(
        FaultEvent(at_ns=700_000.0, kind="switch-emc-flush", target="switch"),
        FaultEvent(
            at_ns=1_000_000.0, kind="switch-flow-reinstall", target="switch",
            duration_ns=200_000.0,
        ),
    )
    _, report, _ = measure_resilience(p2p.build, "ovs-dpdk", 64, plan, **_WINDOWS)
    kinds = [span["kind"] for span in report.fault_spans]
    assert "switch-emc-flush" in kinds
    assert "switch-flow-reinstall" in kinds
    reinstall = next(s for s in report.fault_spans if s["kind"] == "switch-flow-reinstall")
    # p2p installs no OpenFlow rules, so the reinstall window flushes the
    # caches and reinstalls an empty set; rule preservation itself is
    # unit-tested against a populated table.
    assert reinstall["detail"]["rules"] == 0
    assert report.recovered


def test_mem_contention_with_stochastic_bursts_is_deterministic():
    plan = FaultPlan.of(
        FaultEvent(
            at_ns=800_000.0, kind="mem-contention", target="numa0",
            duration_ns=400_000.0, seed=7,
            args=(("factor", 0.4), ("burst_bytes", 262144.0), ("bursts", 20.0)),
        )
    )
    reports = [
        measure_resilience(p2p.build, "snabb", 64, plan, **_WINDOWS)[1].to_dict()
        for _ in range(2)
    ]
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


# ---------------------------------------------------------------------------
# Campaign wiring + determinism
# ---------------------------------------------------------------------------


def _resilience_grid(seeds=(1,), switches=("vale",)):
    return grid(
        name="resilience-it",
        switches=switches,
        scenarios=("p2p",),
        frame_sizes=(64,),
        directions=(False,),
        seeds=seeds,
        fault_plans=(_flap(),),
        **_WINDOWS,
    )


def _comparable(record) -> str:
    payload = record.to_dict()
    payload.pop("wall_clock_s", None)  # host timing, not simulation output
    return json.dumps(payload, sort_keys=True)


def test_execute_run_attaches_resilience_report():
    spec = _resilience_grid().runs[0]
    assert spec.kind == "resilience"
    record = execute_run(spec)
    assert record.status == "ok"
    assert record.resilience is not None
    assert record.resilience["recovered"] is True
    assert record.resilience["fault_spans"]
    # And the record round-trips through its wire format.
    from repro.campaign.spec import RunRecord

    clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert clone.resilience == record.resilience


def test_same_seed_and_plan_is_byte_identical():
    spec = _resilience_grid().runs[0]
    assert _comparable(execute_run(spec)) == _comparable(execute_run(spec))


@pytest.mark.skipif(os.name != "posix", reason="needs fork for the process pool")
def test_serial_and_parallel_resilience_records_are_byte_identical():
    campaign = _resilience_grid(seeds=(1, 2), switches=("vale", "bess"))
    serial = run_campaign(campaign, workers=1)
    parallel = run_campaign(campaign, workers=2)
    assert len(serial.outcomes) == len(parallel.outcomes) == 4
    for (_, a), (_, b) in zip(serial.outcomes, parallel.outcomes):
        assert _comparable(a) == _comparable(b)


def test_unfaulted_spec_wire_format_is_unchanged():
    """No plan => no 'faults' key: pre-fault cache keys and stores stay valid."""
    spec = RunSpec(scenario="p2p", switch="vale")
    assert "faults" not in spec.to_dict()
    faulted = _resilience_grid().runs[0]
    assert "faults" in faulted.to_dict()
    from repro.campaign.cache import params_fingerprint, run_key

    fp = params_fingerprint("vale")
    assert run_key(spec, fp) != run_key(faulted, fp)


def test_with_faults_toggles_the_fault_axis():
    campaign = grid(
        "toggle", ["vale"], scenarios=("p2p",), frame_sizes=(64,),
        directions=(False,), **_WINDOWS,
    )
    faulted = campaign.with_faults(_flap())
    assert all(run.kind == "resilience" and run.faults for run in faulted.runs)
    cleared = faulted.with_faults(FaultPlan())
    assert all(run.kind == "throughput" and not run.faults for run in cleared.runs)
    assert [r.to_dict() for r in cleared.runs] == [r.to_dict() for r in campaign.runs]


# ---------------------------------------------------------------------------
# Env-gated watchdog in the runner
# ---------------------------------------------------------------------------


def test_drive_watchdog_env_gate(monkeypatch, tmp_path):
    from repro.measure.runner import drive

    report_path = tmp_path / "watchdog.jsonl"
    monkeypatch.setenv("REPRO_WATCHDOG", "1")
    monkeypatch.setenv("REPRO_WATCHDOG_REPORT", str(report_path))
    tb = p2p.build("vale", frame_size=64, seed=1)
    watched = drive(tb, **_WINDOWS)
    rows = [json.loads(line) for line in report_path.read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["label"] == "p2p/vale/64B"
    assert rows[0]["violations"] == []
    assert rows[0]["scans"] > 0

    # The watchdog only reads: measured numbers are identical without it.
    monkeypatch.delenv("REPRO_WATCHDOG")
    monkeypatch.delenv("REPRO_WATCHDOG_REPORT")
    unwatched = drive(p2p.build("vale", frame_size=64, seed=1), **_WINDOWS)
    assert watched.per_direction_gbps == unwatched.per_direction_gbps


def test_drive_watchdog_strict_mode(monkeypatch):
    from repro.faults.watchdog import WatchdogError
    from repro.measure.runner import drive

    monkeypatch.setenv("REPRO_WATCHDOG", "strict")
    tb = p2p.build("vale", frame_size=64, seed=1)
    # Seed corruption that the first scan must catch.
    tb.switch.paths[0].forwarded += 1_000_000
    with pytest.raises(WatchdogError, match="conservation"):
        drive(tb, **_WINDOWS)


def test_resilience_timeline_is_on_the_census(monkeypatch):
    """The timeline is a running sampler the census sees, and the fault
    plan still names why replay and fluid decline."""
    from repro.core.fluid import FLUID_UNSERVED
    from repro.core.warp import REPLAY_UNSERVED, first_unserved
    from repro.measure import runner

    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
    census, taken = runner.run_census, []
    monkeypatch.setattr(
        runner, "run_census", lambda tb: taken.append(census(tb)) or taken[-1]
    )
    result, _, _ = measure_resilience(p2p.build, "vpp", 64, _flap(), **_WINDOWS)
    assert taken == [("fault-plan-active", "sampler-active")]
    assert first_unserved(taken[0], REPLAY_UNSERVED) == "fault-plan-active"
    assert first_unserved(taken[0], FLUID_UNSERVED) == "fault-plan-active"
    assert result.warp.reason == "fault-plan-active"


# ---------------------------------------------------------------------------
# Graceful SIGINT/SIGTERM
# ---------------------------------------------------------------------------


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals")
def test_sigint_interrupts_campaign_with_resumable_store(tmp_path):
    campaign = grid(
        "interruptible", ["vale", "bess", "snabb"], scenarios=("p2p",),
        frame_sizes=(64,), directions=(False,), **_WINDOWS,
    )
    store_path = tmp_path / "store.jsonl"
    lines: list[str] = []

    def emit(message: str) -> None:
        lines.append(message)
        # Interrupt after the first completed run.
        if message.startswith("[1/"):
            os.kill(os.getpid(), signal.SIGINT)

    result = run_campaign(
        campaign,
        workers=1,
        store=CampaignStore(str(store_path)),
        progress=ProgressReporter(total=len(campaign), emit=emit),
    )
    assert result.interrupted
    assert 1 <= len(result.outcomes) < len(campaign)
    # The partial rows were flushed and are resumable.
    resumed = run_campaign(
        campaign, workers=1, store=CampaignStore(str(store_path)), resume=True
    )
    assert not resumed.interrupted
    assert resumed.resumed == len(result.outcomes)
    assert resumed.executed == len(campaign) - len(result.outcomes)
    assert len(resumed.outcomes) == len(campaign)


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals")
def test_sigterm_is_handled_like_sigint():
    campaign = grid(
        "terminable", ["vale", "bess"], scenarios=("p2p",),
        frame_sizes=(64,), directions=(False,), **_WINDOWS,
    )

    def emit(message: str) -> None:
        if message.startswith("[1/"):
            os.kill(os.getpid(), signal.SIGTERM)

    result = run_campaign(
        campaign, workers=1,
        progress=ProgressReporter(total=len(campaign), emit=emit),
    )
    assert result.interrupted
    assert len(result.outcomes) < len(campaign)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_resilience_happy_path(capsys):
    from repro.cli import main

    rc = main([
        "resilience", "p2p", "--switch", "vale",
        "--fault", "nic-link-flap@sut-nic.p1:at_ns=800000,duration_ns=300000",
        "--warmup-ns", "400000", "--measure-ns", "1600000",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resilience 'p2p'" in out
    assert "nic-link-flap@sut-nic.p1" in out
    assert "yes" in out  # recovered column


def test_cli_resilience_epsilon_and_bin_flow_into_the_report(capsys):
    from repro.cli import main

    rc = main([
        "resilience", "p2p", "--switch", "vale",
        "--fault", "nic-link-flap@sut-nic.p1:at_ns=800000,duration_ns=300000",
        "--epsilon", "0.2", "--bin-ns", "50000",
        "--warmup-ns", "400000", "--measure-ns", "1600000",
    ])
    assert rc == 0
