"""Resilience measurement: what a fault costs and how fast it heals.

Drives a testbed with a :class:`~repro.faults.plan.FaultPlan` armed and a
read-only timeline :class:`~repro.core.trace.Telemetry` attached, then
computes:

* **pre-fault baseline** ``R_pre`` -- mean delivered rate over the bins
  between warm-up end and the first fault;
* **loss during the disruption window** -- the frames the baseline says
  should have arrived but did not, plus the drop counters' delta;
* **time to recover (TTR)** -- from the end of the last fault window to
  the first timeline bin whose rate is back within ``epsilon`` of
  ``R_pre``;
* **latency-tail inflation** -- p99 of probe RTTs recorded after the
  disruption vs before it (when the scenario carries probes);
* **degradation timeline** -- delivered rate and cumulative drops per
  ``bin_ns`` bin, for plotting and for the recovery scan.

The sampler only *reads* cumulative counters on a fixed grid, so the
simulated data plane is not perturbed; faulted runs are exactly the
unfaulted simulation plus the plan's start/stop events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.stats import LatencySample
from repro.core.trace import Telemetry
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.measure.runner import (
    DEFAULT_MEASURE_NS,
    DEFAULT_WARMUP_NS,
    RunResult,
    drive,
)
from repro.scenarios.base import Testbed

#: Default recovery tolerance: recovered == rate within 5% of R_pre.
DEFAULT_EPSILON = 0.05
#: Default timeline resolution.
DEFAULT_BIN_NS = 100_000.0


@dataclass
class ResilienceReport:
    """Recovery metrics for one faulted run (JSON-friendly)."""

    scenario: str
    switch: str
    frame_size: int
    epsilon: float
    bin_ns: float
    fault_start_ns: float
    fault_end_ns: float
    pre_fault_pps: float
    loss_during_fault_frames: float
    drops_during_fault_frames: int
    time_to_recover_ns: float | None
    recovered: bool
    latency_p99_pre_us: float | None = None
    latency_p99_post_us: float | None = None
    latency_tail_inflation: float | None = None
    timeline: list[dict[str, float]] = field(default_factory=list)
    fault_spans: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "switch": self.switch,
            "frame_size": self.frame_size,
            "epsilon": self.epsilon,
            "bin_ns": self.bin_ns,
            "fault_start_ns": self.fault_start_ns,
            "fault_end_ns": self.fault_end_ns,
            "pre_fault_pps": self.pre_fault_pps,
            "loss_during_fault_frames": self.loss_during_fault_frames,
            "drops_during_fault_frames": self.drops_during_fault_frames,
            "time_to_recover_ns": self.time_to_recover_ns,
            "recovered": self.recovered,
            "latency_p99_pre_us": self.latency_p99_pre_us,
            "latency_p99_post_us": self.latency_p99_post_us,
            "latency_tail_inflation": self.latency_tail_inflation,
            "timeline": self.timeline,
            "fault_spans": self.fault_spans,
        }


def _timeline(tb: Testbed, bin_ns: float) -> Telemetry:
    """Cumulative delivered frames, drops and probe-RTT counts per bin."""
    telemetry = Telemetry(tb.sim, bin_ns)
    rings = tb.rings()
    ports = tb.host_ports()
    telemetry.watch(
        "delivered",
        lambda: sum(meter.packets + meter.warmup_packets for meter in tb.meters),
    )
    telemetry.watch(
        "dropped",
        lambda: sum(ring.dropped for ring in rings)
        + sum(port.tx_dropped + port.driver_drops for port in ports),
    )
    for i, meter in enumerate(tb.latency_meters):
        telemetry.watch(f"latency.{i}", lambda m=meter: len(m.latency.samples_ns))
    return telemetry


def _percentile_us(samples: list[float], q: float = 99.0) -> float | None:
    if not samples:
        return None
    sample = LatencySample()
    for value in samples:
        sample.add(value)
    return sample.percentile_us(q)


def analyze(
    tb: Testbed,
    plan: FaultPlan,
    telemetry: Telemetry,
    injector: FaultInjector,
    warmup_ns: float,
    epsilon: float,
) -> ResilienceReport:
    """Fold the timeline's series + fault spans into a :class:`ResilienceReport`."""
    series = telemetry.series
    #: rows of (t_ns, delivered_cum, dropped_cum)
    rows = list(zip(
        series["delivered"].times_ns, series["delivered"].values, series["dropped"].values
    ))
    fault_start = plan.first_at_ns
    fault_end = plan.last_end_ns
    timeline: list[dict[str, float]] = []
    for (t0, d0, x0), (t1, d1, x1) in zip(rows, rows[1:]):
        width = t1 - t0
        pps = (d1 - d0) * 1e9 / width if width > 0 else 0.0
        timeline.append(
            {"t_ns": t1, "pps": pps, "delivered": float(d1), "drops": float(x1)}
        )

    # Baseline: bins entirely inside [warmup end, first fault start).
    pre_bins = [
        row["pps"]
        for prev, row in zip(rows, timeline)
        if prev[0] >= warmup_ns and row["t_ns"] <= fault_start
    ]
    if not pre_bins:  # fault starts inside warm-up: use any pre-fault bins
        pre_bins = [
            row["pps"] for row in timeline if row["t_ns"] <= fault_start
        ]
    r_pre = sum(pre_bins) / len(pre_bins) if pre_bins else 0.0

    def _cum_at(t: float, index: int) -> float:
        """Cumulative counter linearly interpolated onto the grid."""
        prev = rows[0]
        for row in rows:
            if row[0] >= t:
                span = row[0] - prev[0]
                if span <= 0:
                    return float(row[index])
                frac = (t - prev[0]) / span
                return prev[index] + frac * (row[index] - prev[index])
            prev = row
        return float(rows[-1][index])

    disruption_ns = max(0.0, min(fault_end, rows[-1][0]) - fault_start)
    delivered_during = _cum_at(fault_end, 1) - _cum_at(fault_start, 1)
    expected_during = r_pre * disruption_ns / 1e9
    drops_during = int(round(_cum_at(fault_end, 2) - _cum_at(fault_start, 2)))
    loss = max(0.0, expected_during - delivered_during)

    # Recovery: first bin fully after the last fault whose rate is back.
    ttr: float | None = None
    threshold = (1.0 - epsilon) * r_pre
    for prev, row in zip(rows, timeline):
        if prev[0] >= fault_end and row["pps"] >= threshold:
            ttr = row["t_ns"] - fault_end
            break
    recovered = ttr is not None

    # Latency tail: probe RTTs recorded before the first fault vs after
    # the last fault window.
    p99_pre = p99_post = inflation = None
    if tb.latency_meters:
        counts = list(zip(*(
            series[f"latency.{i}"].values for i in range(len(tb.latency_meters))
        )))
        pre_counts = [0] * len(tb.latency_meters)
        post_counts: list[int] | None = None
        for (t, _, _), row_counts in zip(rows, counts):
            if t <= fault_start:
                pre_counts = [int(n) for n in row_counts]
            if post_counts is None and t >= fault_end:
                post_counts = [int(n) for n in row_counts]
        if post_counts is None:
            post_counts = [len(m.latency.samples_ns) for m in tb.latency_meters]
        pre_samples: list[float] = []
        post_samples: list[float] = []
        for meter, n_pre, n_post in zip(tb.latency_meters, pre_counts, post_counts):
            samples = meter.latency.samples_ns
            pre_samples.extend(samples[:n_pre])
            post_samples.extend(samples[n_post:])
        p99_pre = _percentile_us(pre_samples)
        p99_post = _percentile_us(post_samples)
        if p99_pre and p99_post and p99_pre > 0:
            inflation = p99_post / p99_pre

    return ResilienceReport(
        scenario=tb.scenario,
        switch=tb.switch.params.name,
        frame_size=tb.frame_size,
        epsilon=epsilon,
        bin_ns=telemetry.period_ns,
        fault_start_ns=fault_start,
        fault_end_ns=fault_end,
        pre_fault_pps=r_pre,
        loss_during_fault_frames=loss,
        drops_during_fault_frames=drops_during,
        time_to_recover_ns=ttr,
        recovered=recovered,
        latency_p99_pre_us=p99_pre,
        latency_p99_post_us=p99_post,
        latency_tail_inflation=inflation,
        timeline=timeline,
        fault_spans=[span.to_dict() for span in injector.spans],
    )


def measure_resilience(
    build: Callable[..., Testbed],
    switch_name: str,
    frame_size: int,
    plan: FaultPlan,
    bidirectional: bool = False,
    epsilon: float = DEFAULT_EPSILON,
    bin_ns: float = DEFAULT_BIN_NS,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
    seed: int = 1,
    observe_config=None,
    warp: bool | None = None,
    **build_kwargs,
) -> tuple[RunResult, ResilienceReport, Any]:
    """Throughput run + fault plan + recovery analysis in one drive.

    Returns ``(run_result, resilience_report, observation)``;
    ``observation`` is None unless ``observe_config`` asks for an obs
    session (fault spans are then exported onto its tracer).

    ``warp`` pins the replay fast-forward (``None`` follows
    ``REPRO_WARP``); replay declines armed fault plans, so the run is
    dispatched.  Idle cores park through the stretches *between* fault
    events, and a fault that touches a parked core (preempt, throttle)
    first puts it back on its poll grid, so fault transients and the
    recovery timeline equal busy polling bit for bit.
    """
    if not plan:
        raise ValueError("measure_resilience needs a non-empty FaultPlan")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    tb = build(
        switch_name,
        frame_size=frame_size,
        bidirectional=bidirectional,
        seed=seed,
        **build_kwargs,
    )
    observation = None
    if observe_config is not None:
        from repro.obs import observe

        observation = observe(tb, observe_config)
    injector = FaultInjector(tb, plan)
    injector.arm()
    timeline = _timeline(tb, bin_ns)
    timeline.start(stop_at_ns=warmup_ns + measure_ns)
    result = drive(
        tb,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        bidirectional=bidirectional,
        warp=warp,
    )
    report = analyze(tb, plan, timeline, injector, warmup_ns, epsilon)
    if observation is not None:
        injector.export(observation)
        observation.finish(result)
    return result, report, observation
