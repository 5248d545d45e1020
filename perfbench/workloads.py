"""The three workloads: each a list of tasks driven through public entry points.

A workload is sized so that one pass takes a few host seconds on a
2-core container, and a run repeats whole passes until its time budget
is spent.  The workload seed reaches the simulator only as ``seed=`` /
``RunSpec.seed``; everything else in a pass is fixed.

* ``ndr-latency`` -- the paper reproduction: per switch, on p2p and on
  2-VNF loopback at 64 B, an unseeded 10-iteration RFC 2544 NDR search,
  then the Table 3 latency sweep (saturating R+ run, probes at
  0.10/0.50/0.99 R+).  Sub-capacity trials are idle-poll dominated, so
  the exact fast-forward tiers do most of the work (replay on uni p2p,
  turbo on loopback; snabb and vale decline).
* ``flow-campaign`` -- a serial 4-trial campaign at saturation with
  Zipf flow populations (100K on every switch x {p2p, p2v} x {64, 1024}
  B, 1M on three cache-bearing switches).  Every fast-forward tier
  declines (multi-flow traffic); NIC, traffic, flow-cache and the
  campaign record path carry the load.
* ``observed-faults`` -- ``measure_resilience`` per switch at a
  sub-capacity rate with metrics+profile observation and the strict
  invariant watchdog: p2p under a link flap plus a PCIe stall, p2v under
  a vif disconnect.  Every tier declines, so each idle poll is
  dispatched one by one; the only workload that runs faults, obs and
  the samplers.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

#: The seed whose outputs are committed under ``reference/``; it is also
#: the seed the repo's golden stats were captured with.
DEFAULT_SEED = 1

# ndr-latency windows (ns).  The p2p R+ run keeps the library's default
# throughput windows, which makes it a golden-stats cell (and replay
# makes it cheap); the loopback R+ run would cost 40% of a pass at those
# windows, so it gets its own.
NDR_WARMUP_NS = 40_000.0
NDR_MEASURE_NS = 200_000.0
NDR_ITERATIONS = 10
SWEEP_WARMUP_NS = 40_000.0
SWEEP_MEASURE_NS = 300_000.0
LOOPBACK_RPLUS_WARMUP_NS = 100_000.0
LOOPBACK_RPLUS_MEASURE_NS = 600_000.0
LOOPBACK_VNFS = 2

# flow-campaign
CAMPAIGN_WARMUP_NS = 90_000.0
CAMPAIGN_MEASURE_NS = 450_000.0
CAMPAIGN_TRIALS = 4
FLOWS_SMALL = 100_000
FLOWS_LARGE = 1_000_000
LARGE_FLOW_SWITCHES = ("ovs-dpdk", "vale", "t4p4s")

# observed-faults
FAULT_WARMUP_NS = 100_000.0
FAULT_MEASURE_NS = 2_000_000.0
FAULT_BIN_NS = 40_000.0
FAULT_RATE_PPS = 2_000_000.0


@dataclass(frozen=True)
class Task:
    """One user-level call; ``kind`` selects how its output is recorded."""

    name: str
    kind: str
    call: Callable[[int], Any]


def _switches() -> tuple[str, ...]:
    from repro.switches.registry import ALL_SWITCHES

    return ALL_SWITCHES


def ndr_latency() -> list[Task]:
    from repro.measure.latency import latency_sweep
    from repro.measure.ndr import ndr_search
    from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS
    from repro.measure.throughput import estimate_r_plus

    tasks = []
    for switch in _switches():
        for topo, scenario, kwargs, r_plus_windows in (
            ("p2p", "p2p", {}, (DEFAULT_WARMUP_NS, DEFAULT_MEASURE_NS)),
            (f"loopback{LOOPBACK_VNFS}", "loopback", {"n_vnfs": LOOPBACK_VNFS},
             (LOOPBACK_RPLUS_WARMUP_NS, LOOPBACK_RPLUS_MEASURE_NS)),
        ):
            def ndr(seed, switch=switch, scenario=scenario, kwargs=kwargs):
                from repro.scenarios import loopback, p2p

                # Looked up per call, so the pass's span probes see it.
                build = {"p2p": p2p, "loopback": loopback}[scenario].build
                return ndr_search(
                    build, switch, 64, iterations=NDR_ITERATIONS,
                    warmup_ns=NDR_WARMUP_NS, measure_ns=NDR_MEASURE_NS,
                    seed=seed, **kwargs,
                )

            def sweep(seed, switch=switch, scenario=scenario, kwargs=kwargs,
                      r_plus_windows=r_plus_windows):
                from repro.scenarios import loopback, p2p

                build = {"p2p": p2p, "loopback": loopback}[scenario].build
                warmup_ns, measure_ns = r_plus_windows
                r_plus = estimate_r_plus(
                    build, switch, 64, warmup_ns=warmup_ns, measure_ns=measure_ns,
                    seed=seed, **kwargs,
                )
                return latency_sweep(
                    build, switch, 64, r_plus_pps=r_plus,
                    warmup_ns=SWEEP_WARMUP_NS, measure_ns=SWEEP_MEASURE_NS,
                    seed=seed, **kwargs,
                )

            tasks.append(Task(f"ndr/{topo}/{switch}", "ndr", ndr))
            tasks.append(Task(f"sweep/{topo}/{switch}", "sweep", sweep))
    return tasks


def campaign_spec(seed: int):
    """The flow-campaign grid as a 4-trial :class:`CampaignSpec`."""
    from repro.campaign.spec import CampaignSpec, RunSpec
    from repro.flows import flow_axis_items

    def spec(switch, scenario, size, flows):
        return RunSpec(
            scenario=scenario, switch=switch, frame_size=size, seed=seed,
            warmup_ns=CAMPAIGN_WARMUP_NS, measure_ns=CAMPAIGN_MEASURE_NS,
            extra=flow_axis_items(flows=flows, flow_dist="zipf"),
        )

    runs = [
        spec(switch, scenario, size, FLOWS_SMALL)
        for switch in _switches()
        for scenario in ("p2p", "p2v")
        for size in (64, 1024)
    ]
    runs += [spec(switch, "p2p", 64, FLOWS_LARGE) for switch in LARGE_FLOW_SWITCHES]
    return CampaignSpec("flow-campaign", tuple(runs)).with_trials(CAMPAIGN_TRIALS, "trial")


def flow_campaign() -> list[Task]:
    from repro.campaign.executor import run_campaign

    def campaign(seed):
        return run_campaign(campaign_spec(seed), workers=1, cache=None)

    return [Task("campaign/flows", "campaign", campaign)]


def fault_plans():
    """p2p: link flap then PCIe stall on the SUT egress; p2v: vif disconnect."""
    from repro.faults.plan import FaultEvent, FaultPlan

    def event(kind, target, at, duration):
        return FaultEvent(
            at_ns=FAULT_WARMUP_NS + at * FAULT_MEASURE_NS, kind=kind, target=target,
            duration_ns=duration * FAULT_MEASURE_NS,
        )

    return {
        "p2p": FaultPlan.of(
            event("nic-link-flap", "sut-nic.p1", 0.2, 0.1),
            event("nic-pcie-stall", "sut-nic.p1", 0.5, 0.1),
        ),
        "p2v": FaultPlan.of(event("vif-disconnect", "vm1.eth0", 0.3, 0.1)),
    }


@contextmanager
def _strict_watchdog():
    """Attach the invariant watchdog (strict: a violation raises) to every drive."""
    saved = os.environ.get("REPRO_WATCHDOG")
    os.environ["REPRO_WATCHDOG"] = "strict"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_WATCHDOG", None)
        else:
            os.environ["REPRO_WATCHDOG"] = saved


def observed_faults() -> list[Task]:
    from repro.measure.resilience import measure_resilience
    from repro.obs import ObsConfig

    plans = fault_plans()
    tasks = []
    for switch in _switches():
        for scenario in ("p2p", "p2v"):
            def resilience(seed, switch=switch, scenario=scenario):
                from repro.scenarios import p2p, p2v

                build = {"p2p": p2p, "p2v": p2v}[scenario].build
                with _strict_watchdog():
                    return measure_resilience(
                        build, switch, 64, plans[scenario],
                        bin_ns=FAULT_BIN_NS, warmup_ns=FAULT_WARMUP_NS,
                        measure_ns=FAULT_MEASURE_NS, seed=seed,
                        observe_config=ObsConfig(metrics=True, profile=True),
                        rate_pps=FAULT_RATE_PPS,
                    )

            tasks.append(Task(f"resilience/{scenario}/{switch}", "resilience", resilience))
    return tasks


WORKLOADS: dict[str, Callable[[], list[Task]]] = {
    "ndr-latency": ndr_latency,
    "flow-campaign": flow_campaign,
    "observed-faults": observed_faults,
}
