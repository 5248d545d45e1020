"""Experiment execution: warm-up, measurement window, result records.

Setting ``REPRO_WATCHDOG=1`` in the environment attaches an
:class:`~repro.faults.watchdog.InvariantWatchdog` to every driven
testbed (``REPRO_WATCHDOG=strict`` raises on the first violation, a
value that is neither a flag nor ``strict`` raises ``ValueError``;
``REPRO_WATCHDOG_REPORT=path.jsonl`` appends one report row per run).
The watchdog is a read-only periodic scanner, so measured numbers are
unchanged -- it exists so CI can assert model invariants across the
whole tier-1 suite without instrumenting hot paths.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.core.fluid import try_fluid
from repro.core.stats import LatencySample
from repro.core.warp import FLAG_VALUES, WarpReport, env_setting, run_census, try_warp
from repro.scenarios.base import Testbed

#: Default windows.  Throughput stabilises within a few hundred
#: microseconds of simulated time; the defaults trade precision against
#: wall-clock cost and are overridable everywhere.
DEFAULT_WARMUP_NS = 600_000.0
DEFAULT_MEASURE_NS = 3_000_000.0

#: ``REPRO_WATCHDOG`` values: the flag spellings plus ``strict``.
WATCHDOG_MODES = {**FLAG_VALUES, "strict": "strict"}


def _env_watchdog(tb: Testbed):
    """Attach the opt-in invariant watchdog when the environment asks."""
    mode = env_setting("REPRO_WATCHDOG", False, WATCHDOG_MODES)
    if not mode:
        return None
    from repro.faults.watchdog import InvariantWatchdog

    watchdog = InvariantWatchdog(tb, strict=mode == "strict")
    watchdog.start()
    return watchdog


@dataclass
class RunResult:
    """Outcome of driving one testbed for one measurement window."""

    scenario: str
    switch: str
    frame_size: int
    bidirectional: bool
    duration_ns: float
    per_direction_gbps: list[float] = field(default_factory=list)
    per_direction_mpps: list[float] = field(default_factory=list)
    latency: LatencySample | None = None
    #: Events accounted by the engine (dispatched, replayed or parked).
    events: int = 0
    #: Idle polls among ``events`` that parked cores skipped, so
    #: dispatched = events - warp.events_replayed - events_parked.
    events_parked: int = 0
    #: What the fast-forward tiers did: the engaged tier's report, else
    #: the last attempted tier's decline (None when no tier was enabled).
    warp: WarpReport | None = None

    @property
    def gbps(self) -> float:
        """Aggregate throughput (the paper sums directions for bidi)."""
        return sum(self.per_direction_gbps)

    @property
    def mpps(self) -> float:
        return sum(self.per_direction_mpps)


def drive(
    tb: Testbed,
    warmup_ns: float = DEFAULT_WARMUP_NS,
    measure_ns: float = DEFAULT_MEASURE_NS,
    bidirectional: bool | None = None,
    warp: bool | None = None,
    fluid: bool | None = None,
) -> RunResult:
    """Run a wired testbed through warm-up + measurement; collect results.

    ``warp`` controls the exact fast-forward (:mod:`repro.core.warp`
    steady-state replay): ``None`` follows the ``REPRO_WARP`` environment
    switch (default on).  Results are bit-identical either way -- replay
    declines automatically whenever the run is not provably safe, and the
    run is then dispatched, with idle poll-mode cores parking (see
    :class:`repro.cpu.cores.Core`) unless an engine observer is attached.

    ``fluid`` opts into the approximate tier (:mod:`repro.core.fluid`):
    ``None`` follows ``REPRO_FLUID`` (default off).  When fluid engages
    it supersedes the exact tiers for that run; when it declines before
    the window opens the run falls through to them.

    Both tiers judge the run from one :func:`~repro.core.warp.run_census`,
    taken once here after the environment's watchdog is attached, and
    ``RunResult.warp`` says which tier advanced the window or why the
    last one tried declined.
    """
    if warmup_ns < 0:
        raise ValueError("warmup_ns must be non-negative")
    if measure_ns <= 0:
        raise ValueError("measure_ns must be positive")
    t_open = warmup_ns
    t_close = warmup_ns + measure_ns
    for meter in tb.meters:
        meter.open_window(t_open)
        meter.close_window(t_close)
    watchdog = _env_watchdog(tb)
    census = run_census(tb)
    report: WarpReport | None = None
    if fluid if fluid is not None else env_setting("REPRO_FLUID", False):
        report = try_fluid(tb, t_open, t_close, census)
    if (report is None or not (report.engaged or report.advanced)) and (
        warp if warp is not None else env_setting("REPRO_WARP", True)
    ):
        report = try_warp(tb, t_open, t_close, census)
    tb.sim.run_until(t_close)
    if watchdog is not None:
        watchdog.finalize()
        report_path = os.environ.get("REPRO_WATCHDOG_REPORT")
        if report_path:
            watchdog.append_report(
                report_path,
                label=f"{tb.scenario}/{tb.switch.params.name}/{tb.frame_size}B",
            )

    per_gbps = []
    per_mpps = []
    for meter in tb.meters:
        gbps = meter.gbps()
        per_gbps.append(0.0 if math.isnan(gbps) else gbps)
        pps = meter.pps
        per_mpps.append(0.0 if math.isnan(pps) else pps / 1e6)

    latency: LatencySample | None = None
    if tb.latency_meters:
        latency = LatencySample()
        for meter in tb.latency_meters:
            for sample in meter.latency.samples_ns:
                latency.add(sample)

    return RunResult(
        scenario=tb.scenario,
        switch=tb.switch.params.name,
        frame_size=tb.frame_size,
        bidirectional=bidirectional if bidirectional is not None else len(tb.meters) > 1,
        duration_ns=measure_ns,
        per_direction_gbps=per_gbps,
        per_direction_mpps=per_mpps,
        latency=latency,
        events=tb.sim.events_executed,
        events_parked=tb.sim.events_parked,
        warp=report,
    )
