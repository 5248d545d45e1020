"""Idle-poll parking: a parked run equals the busy-poll reference.

Every poll-mode task declares the rings it drains (``park_rings``) and,
with a time obligation, the instant before which its polls are no-ops
(``park_deadline()``); ``Core`` then parks instead of dispatching no-op
polls.  The reference is the same testbed built with those declarations
stripped (``_helpers.strip_park_declarations``): both runs must end in the
same ``state_fingerprint`` -- engine clock, seq, event count and idle
streaks included -- with the same results.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from _helpers import strip_park_declarations
from repro.core.warp import state_fingerprint
from repro.cpu.cores import Core
from repro.faults.plan import FaultPlan, parse_fault
from repro.measure.resilience import measure_resilience
from repro.measure.runner import drive
from repro.scenarios import loopback, p2p, p2v, v2v

FAST = dict(warmup_ns=2e5, measure_ns=3e6)

#: (builder, build kwargs, sub-capacity rate): shapes replay never takes,
#: so every idle poll goes through ordinary dispatch.  At 100 Kpps the
#: l2fwd VNFs buffer single frames, so their TX drain timer (a park
#: deadline) fires while the vCPU is parked.
L2FWD_DRAIN_RATE = 100_000.0
MULTI_HOP = [
    pytest.param(p2p.build, {"bidirectional": True}, 2_000_000.0, id="p2p-bidi"),
    pytest.param(p2v.build, {}, 1_000_000.0, id="p2v"),
    pytest.param(v2v.build, {}, 800_000.0, id="v2v"),
    pytest.param(loopback.build, {"n_vnfs": 2}, L2FWD_DRAIN_RATE, id="loopback-2"),
]


def _run(build, kwargs, rate, switch="vpp", **drive_kwargs):
    tb = build(switch, frame_size=64, rate_pps=rate, seed=1, **kwargs)
    result = drive(
        tb, bidirectional=kwargs.get("bidirectional", False), **FAST, **drive_kwargs
    )
    return result, state_fingerprint(tb)


def _assert_parked_equals_busy(parked, busy):
    (r_parked, f_parked), (r_busy, f_busy) = parked, busy
    assert f_parked == f_busy
    assert [repr(v) for v in r_parked.per_direction_gbps] == [
        repr(v) for v in r_busy.per_direction_gbps
    ]
    assert r_parked.events == r_busy.events
    assert r_parked.events_parked > 0
    assert r_busy.events_parked == 0


@pytest.mark.parametrize("build,kwargs,rate", MULTI_HOP)
def test_parking_matches_busy_polling_on_multi_hop_shapes(build, kwargs, rate, monkeypatch):
    parked = _run(build, kwargs, rate)
    strip_park_declarations(monkeypatch)
    busy = _run(build, kwargs, rate)
    _assert_parked_equals_busy(parked, busy)


def test_parking_skips_idle_dispatches(monkeypatch):
    """Parking engages: fewer ``_iterate`` dispatches, same event count."""
    polls = [0]
    iterate = Core._iterate

    def counted(self):
        polls[0] += 1
        iterate(self)

    monkeypatch.setattr(Core, "_iterate", counted)
    parked = _run(loopback.build, {"n_vnfs": 2}, L2FWD_DRAIN_RATE)
    parked_polls, polls[0] = polls[0], 0
    strip_park_declarations(monkeypatch)
    busy = _run(loopback.build, {"n_vnfs": 2}, L2FWD_DRAIN_RATE)
    _assert_parked_equals_busy(parked, busy)
    assert polls[0] - parked_polls == parked[0].events_parked
    assert parked_polls < polls[0] / 5


def test_replay_engages_after_a_parked_warmup(monkeypatch):
    """Replay turns the parked SUT core back into its grid poll."""
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)  # replay declines it
    parked = _run(p2p.build, {}, None)
    assert parked[0].warp.engaged and parked[0].warp.mode == "replay"
    strip_park_declarations(monkeypatch)
    busy = _run(p2p.build, {}, None)
    assert busy[0].warp.engaged
    _assert_parked_equals_busy(parked, busy)


@pytest.mark.parametrize("switch", ["snabb", "vale"])
def test_switch_without_park_declaration_never_parks(switch):
    """Pipeline (Snabb) and interrupt-driven (VALE) switches keep polling."""
    tb = p2v.build(switch, frame_size=64, seed=1)
    assert tb.switch.park_rings is None
    assert tb.sut_core._park_rings is None
    assert all(core._park_rings for vm in tb.vms for core in vm.cores if core.tasks)


def test_parking_under_watchdog_matches_busy_polling(monkeypatch):
    monkeypatch.setenv("REPRO_WATCHDOG", "strict")
    parked = _run(p2v.build, {}, 1_000_000.0)
    strip_park_declarations(monkeypatch)
    busy = _run(p2v.build, {}, 1_000_000.0)
    _assert_parked_equals_busy(parked, busy)


def test_observer_turns_parking_off():
    from repro.obs import observe

    tb = p2v.build("vpp", frame_size=64, rate_pps=1e6, seed=1)
    observe(tb, trace=True)
    assert drive(tb, **FAST).events_parked == 0


def test_fluid_never_settles_parked_cores_across_its_span(monkeypatch):
    monkeypatch.delenv("REPRO_WATCHDOG", raising=False)  # fluid declines it

    def run():
        tb = p2v.build("vpp", frame_size=64, rate_pps=1e6, seed=1)
        result = drive(tb, warmup_ns=2e5, measure_ns=4e6, fluid=True)
        assert result.warp.mode == "fluid" and result.warp.engaged
        return result, tuple((m.packets, m.bytes) for m in tb.meters)

    (r_parked, m_parked) = run()
    strip_park_declarations(monkeypatch)
    (r_busy, m_busy) = run()
    assert m_parked == m_busy
    assert r_parked.events == r_busy.events
    assert r_parked.events_parked > 0


#: (scenario builder, build kwargs, fault) for every fault kind that
#: touches a parkable core or the rings it watches.
FAULTS = [
    pytest.param(p2p.build, {}, "nic-link-flap@sut-nic.p1:at_ns=1.2e6,duration_ns=4e5",
                 id="link-flap"),
    pytest.param(p2v.build, {}, "vif-disconnect@vm1.eth0:at_ns=1.2e6,duration_ns=4e5",
                 id="vif-disconnect"),
    pytest.param(p2v.build, {}, "core-preempt@numa0/sut:at_ns=1.2e6,duration_ns=4e5",
                 id="core-preempt"),
    pytest.param(p2v.build, {},
                 "core-throttle@numa0/sut:at_ns=1.2e6,duration_ns=4e5,factor=0.5",
                 id="core-throttle"),
    pytest.param(loopback.build, {"n_vnfs": 2}, "vnf-crash@vm1:at_ns=1.2e6,duration_ns=4e5",
                 id="vnf-crash"),
]


def _resilience(build, kwargs, fault):
    built = []

    def capture(*args, **build_kwargs):
        built.append(build(*args, **build_kwargs))
        return built[-1]

    result, report, _ = measure_resilience(
        capture, "vpp", 64, FaultPlan([parse_fault(fault)]),
        warmup_ns=6e5, measure_ns=3e6, rate_pps=1e6, **kwargs,
    )
    return result, report.to_dict(), state_fingerprint(built[0])


@pytest.mark.parametrize("build,kwargs,fault", FAULTS)
def test_resilience_parked_matches_busy_polling(build, kwargs, fault, monkeypatch):
    r_parked, rep_parked, f_parked = _resilience(build, kwargs, fault)
    strip_park_declarations(monkeypatch)
    r_busy, rep_busy, f_busy = _resilience(build, kwargs, fault)
    assert rep_parked == rep_busy
    assert f_parked == f_busy
    assert repr(r_parked.gbps) == repr(r_busy.gbps)
    assert r_parked.events == r_busy.events
    assert r_parked.events_parked > 0


#: Throttle a parked core: ``_unpark`` once looped forever on the reset
#: idle-delay memo.  Runs in a subprocess so a regression cannot hang.
_THROTTLE = """
import hashlib
from repro.core.warp import state_fingerprint
from repro.faults.plan import FaultPlan, parse_fault
from repro.measure.resilience import measure_resilience
from repro.scenarios import p2v

def digest(target):
    built = []
    def build(*args, **kwargs):
        built.append(p2v.build(*args, **kwargs))
        return built[-1]
    fault = parse_fault(f"core-throttle@{target}:at_ns=1e6,duration_ns=5e5,factor=0.5")
    result, report, _ = measure_resilience(
        build, "ovs-dpdk", 64, FaultPlan([fault]), rate_pps=1e6, warp=False
    )
    view = (state_fingerprint(built[0]), report.to_dict(), repr(result.gbps), result.events)
    return hashlib.sha256(repr(view).encode()).hexdigest()

TARGETS = ("numa0/vm1/vcpu1", "numa0/sut")
"""


def test_throttling_a_parked_core_terminates_and_matches_busy_polling(monkeypatch):
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = _THROTTLE + "print(' '.join(digest(t) for t in TARGETS))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    strip_park_declarations(monkeypatch)
    namespace: dict = {}
    exec(_THROTTLE, namespace)
    busy = " ".join(namespace["digest"](t) for t in namespace["TARGETS"])
    assert proc.stdout.split() == busy.split()
