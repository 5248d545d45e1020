"""Spans, run boundaries and layer attribution, applied from outside.

The benchmark never edits the simulator.  :class:`Recorder` wraps the
public callables every workload goes through -- the scenario ``build``s,
the measurement ``drive``, the campaign choke point ``execute_run`` and
the observation / fault-injector / watchdog attach points -- for the
duration of one pass, and restores them afterwards.  Each wrapper
records a span ``(name, run, parent, t0, t1)`` in memory; spans of one
driven run share its run id.  A *run* is one build + drive: it starts
when ``execute_run`` is entered or (outside a campaign) when a testbed
is built, and ends where the next run starts or the task ends, so the
runs of a task partition its host time.

:class:`LayerProfile` folds a deterministic ``cProfile`` of a traced
pass into the ``src/repro`` layer buckets of :data:`LAYERS` and into the
work counts of :data:`COUNTS`.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

#: Layer bucket -> module paths under ``src/repro`` (a directory means
#: the whole package).  Benchmark code and the few repro modules not
#: listed land in ``other``.  Time in builtins and the stdlib is charged
#: to the repro layer that called them.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.engine": ("core/engine.py",),
    "core.warp": ("core/warp.py", "core/turbo.py", "core/fluid.py"),
    "cpu": ("cpu",),
    "switches": ("switches",),
    "nic": ("nic",),
    "core.ring": ("core/ring.py",),
    "core.packet": ("core/packet.py",),
    "vif": ("vif",),
    "vm": ("vm",),
    "traffic": ("traffic",),
    "flows": ("flows",),
    "faults": ("faults",),
    "obs": ("obs",),
    "measure": ("measure",),
    "campaign": ("campaign",),
    "scenarios": ("scenarios",),
}
OTHER = "other"
BUCKETS = (*LAYERS, OTHER)

#: Per-layer work counts: metric -> (module path, function name) pairs
#: whose profiled call counts are summed.
COUNTS: dict[str, tuple[tuple[str, str], ...]] = {
    "cpu.polls": (("cpu/cores.py", "_iterate"),),
    "switches.batches": (("switches/", "_on_forward"),),
    "nic.tx_batches": (("nic/port.py", "send_batch"),),
    "vm.app_polls": (("vm/apps.py", "poll"),),
    "traffic.bursts": (("traffic/generator.py", "_tick"),),
    "flows.samples": (("flows/population.py", "sample_flows"),),
    "faults.injected": (("faults/injector.py", "_start"),),
    "obs.sampler_ticks": (
        ("measure/resilience.py", "_tick"),
        ("faults/watchdog.py", "_scan"),
        ("core/trace.py", "_sample"),
    ),
}

#: Spans whose time is set-up (``setup_s``) rather than driving.
SETUP_SPANS = ("build", "observe", "inject.arm", "watchdog.attach")


@dataclass
class Span:
    name: str
    run: int | None
    parent: int | None
    t0: float
    t1: float = 0.0


@dataclass
class Run:
    """One driven run: its boundaries, what it built and what it returned."""

    id: int
    task: str
    t0: float
    t1: float | None = None
    tb: Any = None
    result: Any = None
    drive_windows: tuple[float, float] | None = None
    failed: bool = False


class Recorder:
    """In-memory span recorder for one benchmark process.

    ``on_run_end(run)`` is called as each run closes, while its testbed
    is still referenced, so outputs can be captured and the testbed
    released before the next run builds.
    """

    def __init__(self) -> None:
        self.on_run_end: Callable[[Run], None] = lambda run: None
        self.spans: list[Span] = []
        self.runs: list[Run] = []
        self._stack: list[int] = []
        self._run: Run | None = None
        self._in_execute = False
        self._task = ""
        #: A :class:`hostspeed.HostSpeed` sampled as each run opens, or None.
        self.speed = None

    # -- runs --------------------------------------------------------------

    def _close_run(self, now: float) -> None:
        run = self._run
        if run is None:
            return
        self._run = None
        run.t1 = now
        self.on_run_end(run)
        run.tb = run.result = None

    def _open_run(self) -> Run:
        if self.speed is not None:
            self.speed.sample()
        now = time.perf_counter()
        self._close_run(now)
        run = Run(id=len(self.runs), task=self._task, t0=now)
        self.runs.append(run)
        self._run = run
        return run

    @contextmanager
    def task(self, name: str):
        """One task of a workload; its runs are attributed to ``name``."""
        self._task = name
        with self.span("task:" + name):
            try:
                yield
            except BaseException:
                if self._run is not None:
                    self._run.failed = True
                raise
            finally:
                self._close_run(time.perf_counter())

    @contextmanager
    def span(self, name: str):
        span = Span(
            name=name,
            run=self._run.id if self._run is not None else None,
            parent=self._stack[-1] if self._stack else None,
            t0=time.perf_counter(),
        )
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            self._stack.pop()
            span.t1 = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _wrap_build(self, build):
        @functools.wraps(build)
        def wrapped(*args, **kwargs):
            if self._in_execute and self._run is not None and self._run.tb is None:
                run = self._run
            else:
                run = self._open_run()
            with self.span("build"):
                tb = build(*args, **kwargs)
            run.tb = tb
            return tb

        return wrapped

    def _wrap_drive(self, drive):
        from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS

        @functools.wraps(drive)
        def wrapped(tb, warmup_ns=None, measure_ns=None, *args, **kwargs):
            warmup = DEFAULT_WARMUP_NS if warmup_ns is None else warmup_ns
            measure = DEFAULT_MEASURE_NS if measure_ns is None else measure_ns
            run = self._run
            with self.span("drive"):
                result = drive(tb, warmup, measure, *args, **kwargs)
            if run is not None:
                run.result = result
                run.drive_windows = (warmup, measure)
            return result

        return wrapped

    def _wrap_execute(self, execute_run):
        @functools.wraps(execute_run)
        def wrapped(spec):
            self._open_run()
            self._in_execute = True
            try:
                with self.span("execute_run"):
                    return execute_run(spec)
            except BaseException:
                self._run.failed = True
                raise
            finally:
                self._in_execute = False

        return wrapped

    def _wrap_simple(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    @contextmanager
    def installed(self):
        """Patch the probe points for the duration of the block."""
        import repro.campaign.executor as executor
        import repro.faults.injector as injector
        import repro.measure.latency as latency
        import repro.measure.ndr as ndr
        import repro.measure.resilience as resilience
        import repro.measure.runner as runner
        import repro.measure.throughput as throughput
        import repro.obs as obs
        from repro.scenarios import loopback, p2p, p2v

        patches: list[tuple[Any, str, Any]] = []
        for module in (p2p, p2v, loopback):
            patches.append((module, "build", self._wrap_build(module.build)))
        drive = self._wrap_drive(runner.drive)
        for module in (runner, ndr, latency, throughput, resilience):
            patches.append((module, "drive", drive))
        patches.append((executor, "execute_run", self._wrap_execute(executor.execute_run)))
        patches.append((obs, "observe", self._wrap_simple("observe", obs.observe)))
        patches.append(
            (injector.FaultInjector, "arm",
             self._wrap_simple("inject.arm", injector.FaultInjector.arm))
        )
        patches.append(
            (runner, "_env_watchdog",
             self._wrap_simple("watchdog.attach", runner._env_watchdog))
        )
        saved = [(target, name, getattr(target, name)) for target, name, _ in patches]
        try:
            for target, name, value in patches:
                setattr(target, name, value)
            yield self
        finally:
            for target, name, value in saved:
                setattr(target, name, value)

    # -- summaries ---------------------------------------------------------

    def span_seconds(self, names: tuple[str, ...], first_span: int = 0) -> float:
        return sum(
            s.t1 - s.t0 for s in self.spans[first_span:] if s.name in names
        )

    def execute_overhead_s(self, first_span: int = 0) -> float:
        """``execute_run`` inclusive time minus the builds and drives in it."""
        spans = self.spans[first_span:]
        total = 0.0
        for offset, span in enumerate(spans):
            if span.name != "execute_run":
                continue
            index = first_span + offset
            inner = sum(
                s.t1 - s.t0 for s in spans
                if s.parent == index and s.name in ("build", "drive")
            )
            total += (span.t1 - span.t0) - inner
        return total


# ---------------------------------------------------------------------------
# Layer attribution
# ---------------------------------------------------------------------------

def bucket_of(rel: str | None) -> str | None:
    """Layer bucket of a path relative to ``src/repro``; None outside it."""
    if rel is None:
        return None
    for bucket, paths in LAYERS.items():
        for path in paths:
            if rel == path or rel.startswith(path + "/"):
                return bucket
    return OTHER


class LayerProfile:
    """Deterministic profile of traced passes, folded into layers."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile(builtins=False)

    @contextmanager
    def active(self):
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def fold(self) -> tuple[dict[str, float], dict[str, int], int]:
        """(self seconds per bucket, counts per :data:`COUNTS` metric,
        polls that serviced a batch) over everything profiled so far."""
        import repro

        root = os.path.dirname(repro.__file__) + os.sep
        bench = os.path.dirname(os.path.abspath(__file__)) + os.sep

        def rel_path(filename: str) -> str | None:
            if not filename.startswith(root):
                return None
            return filename[len(root):].replace(os.sep, "/")

        stats = pstats.Stats(self.profile).stats
        self_s = dict.fromkeys(BUCKETS, 0.0)
        counts = dict.fromkeys(COUNTS, 0)
        busy_polls = 0
        for (filename, _, func), (_, ncalls, tottime, _, callers) in stats.items():
            rel = rel_path(filename)
            bucket = bucket_of(rel)
            if bucket is not None:
                self_s[bucket] += tottime
            elif filename.startswith(bench):
                self_s[OTHER] += tottime
            else:
                # Stdlib functions: charge each caller edge to its layer.
                # (Builtins are not profiled, so their time already sits
                # in their caller's self time.)
                charged = 0.0
                for (cfile, _, _), edge in callers.items():
                    caller_bucket = bucket_of(rel_path(cfile))
                    if caller_bucket is not None:
                        self_s[caller_bucket] += edge[2]
                        charged += edge[2]
                self_s[OTHER] += max(0.0, tottime - charged)
            if rel is None:
                continue
            for metric, targets in COUNTS.items():
                for path, name in targets:
                    if func == name and (rel == path or (path.endswith("/") and rel.startswith(path))):
                        counts[metric] += ncalls
            if rel == "cpu/cores.py" and func == "cycles_to_ns":
                # Core._iterate converts cycles when a task did work, and
                # on an idle poll only when the core's idle-delay memo is
                # empty (first idle poll, frequency change): an upper
                # bound that overcounts by a few polls per core per run.
                busy_polls += sum(
                    edge[1] for (_, _, caller), edge in callers.items()
                    if caller == "_iterate"
                )
        return self_s, counts, busy_polls
