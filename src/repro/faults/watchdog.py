"""Opt-in runtime invariant checking.

The :class:`InvariantWatchdog` periodically scans a built testbed for
model-corruption symptoms that would otherwise silently skew results --
especially under fault injection, where class swaps and instance
overrides could, if buggy, break ring accounting or packet conservation.

It is an *external* observer: a :class:`~repro.core.engine.Periodic`
schedule walks the structures every ``interval_ns``.  Nothing is hooked
into hot paths, so a run without a watchdog executes exactly the same
instructions as before this module existed, and the watchdog's own cost
is O(rings) per scan.

Checks per scan:

* **ring occupancy bounds** -- ``0 <= frames <= capacity``;
* **ring internal consistency** -- queued item counts sum to the frame
  counter;
* **counter monotonicity** -- ``enqueued``/``dropped`` and the derived
  cumulative pop count never decrease;
* **block seq-range integrity** -- every queued item carries a positive
  frame count and a non-negative base sequence number;
* **monotonic timestamps** -- no queued frame was created in the future;
* **per-hop conservation** -- a path never forwards more frames than its
  input ring has handed out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.engine import Periodic
from repro.core.packet import PacketBlock

if TYPE_CHECKING:
    from repro.scenarios.base import Testbed


@dataclass
class Violation:
    """One invariant breach, with enough context to debug it."""

    check: str
    subject: str
    message: str
    t_ns: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "subject": self.subject,
            "message": self.message,
            "t_ns": self.t_ns,
        }


class WatchdogError(RuntimeError):
    """Raised in strict mode when a scan finds violations."""

    def __init__(self, violations: list[Violation]) -> None:
        lines = "\n".join(
            f"  [{v.check}] {v.subject}: {v.message} (t={v.t_ns:.0f}ns)"
            for v in violations
        )
        super().__init__(f"invariant watchdog found {len(violations)} violation(s):\n{lines}")
        self.violations = violations


@dataclass
class _RingState:
    """Last-seen counters for monotonicity checks."""

    enqueued: int = 0
    dropped: int = 0
    popped: int = 0


class InvariantWatchdog:
    """Periodic invariant scanner over a testbed's rings and paths."""

    def __init__(
        self,
        tb: "Testbed",
        interval_ns: float = 100_000.0,
        strict: bool = False,
    ) -> None:
        self.tb = tb
        self._schedule = Periodic(tb.sim, interval_ns, self.scan_once, "watchdog-active")
        self.interval_ns = interval_ns
        self.strict = strict
        self.violations: list[Violation] = []
        self.scans = 0
        self.checks_run = 0
        #: Every ring the testbed owns, labelled for diagnostics.
        self._rings = [(ring.name, ring) for ring in tb.rings()]
        self._states = {id(ring): _RingState() for _, ring in self._rings}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin scanning: first scan one interval from now, then every
        interval; a restart voids the previous chain's queued scan."""
        self._schedule.start(delay_ns=self.interval_ns)

    def stop(self) -> None:
        self._schedule.stop()

    @property
    def running(self) -> bool:
        return self._schedule.running

    # -- the checks --------------------------------------------------------

    def scan_once(self) -> list[Violation]:
        """Run every check once; returns (and records) new violations."""
        now = self.tb.sim.now
        found: list[Violation] = []

        def flag(check: str, subject: str, message: str) -> None:
            found.append(Violation(check=check, subject=subject, message=message, t_ns=now))

        for name, ring in self._rings:
            state = self._states[id(ring)]
            frames = ring._frames
            self.checks_run += 6
            if not 0 <= frames <= ring.capacity:
                flag(
                    "ring-occupancy",
                    name,
                    f"occupancy {frames} outside [0, {ring.capacity}]",
                )
            queued = 0
            for item in ring._queue:
                count = item.count
                if count < 1:
                    flag("block-integrity", name, f"queued item with count {count}")
                if item.__class__ is PacketBlock and item.seq0 < 0:
                    flag("block-integrity", name, f"queued block with seq0 {item.seq0}")
                if item.t_created > now:
                    flag(
                        "timestamp-monotonic",
                        name,
                        f"queued frame created at {item.t_created:.0f}ns > now",
                    )
                queued += count
            if queued != frames:
                flag(
                    "ring-consistency",
                    name,
                    f"queued frames {queued} != occupancy counter {frames}",
                )
            if ring.enqueued < state.enqueued:
                flag(
                    "counter-monotonic",
                    name,
                    f"enqueued went backwards ({state.enqueued} -> {ring.enqueued})",
                )
            if ring.dropped < state.dropped:
                flag(
                    "counter-monotonic",
                    name,
                    f"dropped went backwards ({state.dropped} -> {ring.dropped})",
                )
            popped = ring.enqueued - frames
            if popped < state.popped:
                flag(
                    "counter-monotonic",
                    name,
                    f"cumulative pops went backwards ({state.popped} -> {popped})",
                )
            state.enqueued = ring.enqueued
            state.dropped = ring.dropped
            state.popped = max(state.popped, popped)

        for path in self.tb.switch.paths:
            self.checks_run += 1
            in_ring = path.input.input_ring
            handed_out = in_ring.enqueued - in_ring._frames
            if path.forwarded > handed_out:
                flag(
                    "conservation",
                    f"{path.input.name}->{path.output.name}",
                    f"forwarded {path.forwarded} frames but input ring only "
                    f"handed out {handed_out}",
                )

        self.scans += 1
        if found:
            self.violations.extend(found)
            if self.strict:
                raise WatchdogError(found)
        return found

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict[str, Any]:
        return {
            "scans": self.scans,
            "checks_run": self.checks_run,
            "rings_watched": len(self._rings),
            "interval_ns": self.interval_ns,
            "violations": [v.to_dict() for v in self.violations],
        }

    def finalize(self) -> dict[str, Any]:
        """Run one last scan (end-of-run state) and return the report."""
        self._schedule.stop()
        self.scan_once()
        return self.report()

    def append_report(self, path: str, label: str = "") -> None:
        """Append the report as one JSONL row (CI artifact format)."""
        row = self.report()
        if label:
            row["label"] = label
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
