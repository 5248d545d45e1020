"""Live campaign progress: per-run telemetry, counters, ETA.

The reporter is deliberately dumb about where its numbers come from --
the executor feeds it one outcome at a time tagged with its source
(executed, cache hit, resumed from a store) and it keeps the running
tallies the summary line needs: events executed, wall-clock, hit/miss
counts, failures.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

from repro.campaign.spec import RunFailure, RunRecord


def run_tier(outcome: RunRecord | RunFailure) -> str:
    """Cost tier of one run, from its record's ``warp`` column.

    Replayed and fluid runs complete orders of magnitude faster than
    dispatched runs, so averaging their wall-clocks into one pace would
    wreck the ETA whenever the mix shifts; the reporter tracks each
    tier's cost separately and blends them explicitly.  Any engaged label
    counts as warped (``turbo`` too, on rows cached before that tier was
    retired); idle-poll parking is ordinary dispatch, so declined runs
    are ``exact``.
    """
    label = getattr(outcome, "warp", None) or ""
    if label == "fluid":
        return "fluid"
    if label and not label.startswith("declined:"):
        return "warped"
    return "exact"


def emit_to_stderr(message: str) -> None:
    """Progress sink that keeps stdout clean for piped data.

    The CLI routes all campaign/suite telemetry through this, so
    ``repro-bench campaign ... --export-csv - > results.csv`` yields a
    parseable CSV with the live progress still visible on the terminal.
    """
    print(message, file=sys.stderr, flush=True)


class ProgressReporter:
    """Counts outcomes and renders ``[k/n] label ... ETA`` lines."""

    def __init__(
        self,
        total: int,
        emit: Callable[[str], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.emit = emit
        self.clock = clock
        self.done = 0
        self.executed = 0
        self.cache_hits = 0
        self.resumed = 0
        self.inapplicable = 0
        self.failures = 0
        self.events = 0
        self.sim_wall_clock_s = 0.0
        self._started: float | None = None
        #: Executed-run wall-clock per fast-forward tier:
        #: ``tier -> [runs, wall_clock_s]``.  Cache hits and store
        #: resumes never land here, so the pace stays cache-hit-blind.
        self.tier_costs: dict[str, list] = {}
        #: Per-run completion records, in completion order -- enough to
        #: reconstruct a campaign-execution timeline (``--trace-out``).
        self.timeline: list[dict] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        self._started = self.clock()
        self._say(f"campaign: {self.total} runs")

    def update(self, outcome: RunRecord | RunFailure, source: str = "executed") -> None:
        """Register one finished run.  ``source``: executed|cache|store."""
        if self._started is None:
            self.start()
        self.done += 1
        if source == "cache":
            self.cache_hits += 1
        elif source == "store":
            self.resumed += 1
        else:
            self.executed += 1
            bucket = self.tier_costs.setdefault(run_tier(outcome), [0, 0.0])
            bucket[0] += 1
            bucket[1] += outcome.wall_clock_s
        self.sim_wall_clock_s += outcome.wall_clock_s
        if isinstance(outcome, RunFailure):
            self.failures += 1
            status = f"FAILED ({outcome.error}: {outcome.message})"
        elif outcome.status == "inapplicable":
            self.inapplicable += 1
            status = "n/a (qemu)"
        else:
            self.events += outcome.events
            status = f"{outcome.gbps:.2f} Gbps"
            if outcome.latency_mean_us is not None:
                status += f", RTT {outcome.latency_mean_us:.1f} us"
        tag = {"cache": " [cached]", "store": " [resumed]"}.get(source, "")
        self.timeline.append(
            {
                "label": outcome.spec.label,
                "status": outcome.status,
                "source": source,
                "finished_s": self.elapsed_s,
                "wall_clock_s": outcome.wall_clock_s,
            }
        )
        self._say(
            f"[{self.done}/{self.total}] {outcome.spec.label}: {status}{tag}{self._eta_suffix()}"
        )

    def retire(self, count: int) -> None:
        """Shrink the expected total by ``count`` runs that will never
        happen (a trial point converged early, so its remaining repeat
        budget is cancelled).  The ETA shrinks immediately; the pace
        estimate stays executed-only, so it remains cache-hit-blind.
        """
        if count > 0:
            self.total = max(self.done, self.total - count)

    # -- derived -----------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        if self._started is None:
            return 0.0
        return self.clock() - self._started

    def eta_s(self) -> float | None:
        """Wall-clock estimate for the remainder, from the pace so far.

        Pace is derived from *executed* runs only: cache hits and store
        resumes complete in microseconds, and folding them into the mean
        would forecast a near-zero ETA for a campaign that still has real
        runs ahead of it.  Executed runs are costed per fast-forward tier
        (warped/fluid/exact, see :func:`run_tier`) and blended by the
        observed mix -- a campaign whose early runs all warped no longer
        forecasts warp pace for the event-by-event runs still queued,
        because the exact tier's own mean enters the blend the moment one
        completes.  The per-run cost model also keeps the estimate
        honest under parallel workers (recorded run cost is divided by
        the observed concurrency) and blind to reporter overhead between
        runs.  Falls back to elapsed-over-executed when the records
        carry no wall-clock telemetry.  Returns ``None`` when there is
        no basis for an estimate -- empty or fully-done grids (including
        the degenerate zero- and single-run grids) and campaigns that
        have only served hits so far.
        """
        if self._started is None or self.executed == 0:
            return None
        remaining = self.total - self.done
        if remaining <= 0:
            return None
        runs = sum(count for count, _ in self.tier_costs.values())
        cost = sum(spent for _, spent in self.tier_costs.values())
        if runs == 0 or cost <= 0.0:
            return self.elapsed_s / self.executed * remaining
        blended = cost / runs
        elapsed = self.elapsed_s
        concurrency = max(1.0, cost / elapsed) if elapsed > 0 else 1.0
        return remaining * blended / concurrency

    def _eta_suffix(self) -> str:
        eta = self.eta_s()
        return f" (ETA {eta:.0f}s)" if eta is not None and eta >= 1.0 else ""

    def summary(self) -> str:
        """One-paragraph campaign telemetry, printed at the end."""
        parts = [
            f"{self.done}/{self.total} runs",
            f"{self.executed} executed",
            f"{self.cache_hits} cache hits",
        ]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.inapplicable:
            parts.append(f"{self.inapplicable} n/a")
        parts.append(f"{self.failures} failed")
        parts.append(f"{self.events} sim events")
        parts.append(f"{self.elapsed_s:.1f}s elapsed")
        for tier in ("warped", "fluid", "exact"):
            bucket = self.tier_costs.get(tier)
            if bucket and bucket[1] > 0.0:
                parts.append(f"{tier} pace {bucket[1] / bucket[0]:.3f}s/run x{bucket[0]}")
        return "campaign summary: " + ", ".join(parts)

    def _say(self, message: str) -> None:
        if self.emit is not None:
            self.emit(message)
