#!/usr/bin/env python3
"""Task-level benchmark of the repro simulator.

    python3 perfbench/run.py --workload ndr-latency --seed 1 --seconds 30 --trace 0

Runs whole passes of one workload (see ``workloads.py``) back to back in
this process -- serial, no result cache, no worker processes -- until
``--seconds`` of host time are spent, checks every run's simulated
outputs, prints a metric table (name, value, unit, n) and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with
times in reference seconds: host seconds scaled by the host speed that
``hostspeed.py`` samples during the run.
``--trace 1`` first runs untraced passes, then traced passes under a
deterministic profiler, and reports the per-layer metrics; its spans,
layer table and the layer -> end-to-end map go to
``perfbench/out/<workload>-seed<seed>-trace.json``.

``--record`` runs one pass at the default seed and rewrites
``reference/<workload>.json`` (after a deliberate change to simulated
results).  Exits 2 when ``src/repro`` is not present next to this
directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
LAYER_MAP_PATH = os.path.join(HERE, "layer_map.json")

#: Fresh interpreters that time ``import repro`` for ``setup_s``.
IMPORT_PROBES = 9
#: Share of a traced run's budget spent on untraced passes (for
#: ``ns_per_dispatch`` and ``trace.overhead``).
UNTRACED_SHARE = 0.4
#: Fast-forward decline reasons always reported (0 where absent), so
#: every workload prints the same per-layer metric set.
DECLINE_REASONS = ("pipeline-switch", "interrupt-driven", "multi-flow-traffic", "watchdog-active")

IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from hostspeed import kernel_seconds
kernel = kernel_seconds(reps=8)
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import repro.campaign.executor, repro.measure.latency, repro.measure.ndr
import repro.measure.resilience, repro.obs, repro.faults.watchdog, repro.scenarios
print(repr(time.perf_counter() - t0), repr(kernel))
"""


def import_repro() -> str | None:
    """Import the checkout's ``repro``; an error message when impossible."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return f"no simulator sources at {os.path.relpath(SRC)}/repro"
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro: {exc}"
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


def import_seconds(probes: int) -> tuple[list[float], float]:
    """``import repro`` time in ``probes`` fresh interpreters, one at a time.

    Each probe also times the host-speed kernel just before its import.
    Returns the host seconds of each import and the factor that turns
    them into reference seconds: the reference kernel time over the
    median of the probes' kernel times (one probe's sample is too noisy
    to scale its own import).
    """
    import hostspeed

    times, kernels = [], []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, kernel = map(float, done.stdout.strip().splitlines()[-1].split())
        times.append(seconds)
        kernels.append(kernel)
    return times, hostspeed.REFERENCE_KERNEL_S / statistics.median(kernels)


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One pass.  Host seconds exclude host-speed sampling; ``ref_*`` are
    the same intervals in reference seconds (``hostspeed``), equal to
    host seconds when the pass was not sampled (traced passes)."""

    wall_s: float
    records: list[dict]
    run_s: list[float]
    setup_s: float
    drive_s: float
    build_s: float
    execute_overhead_s: float
    ref_wall_s: float
    ref_run_s: list[float]
    ref_setup_s: float

    # Work counts, derived from the (deterministic) run records.
    def total(self, fn) -> float:
        return sum(fn(r) for r in self.records if "_events" in r)

    @property
    def delivered(self) -> int:
        return int(self.total(lambda r: sum(p + w for p, w in r["meters"])))

    @property
    def events(self) -> int:
        return int(self.total(lambda r: r["_events"]))

    @property
    def replayed(self) -> int:
        return int(self.total(lambda r: r["_warp"][4] if r["_warp"] else 0))

    @property
    def dispatched(self) -> int:
        return self.events - self.replayed


def run_pass(tasks, seed: int, recorder, profile=None, speed=None) -> Pass:
    """Drive every task once; capture each run's outputs as it closes.

    With ``speed`` (a :class:`hostspeed.HostSpeed`), the host speed is
    sampled as the pass and each of its runs start.
    """
    import instrument
    import outputs

    records: list[dict] = []
    recorder.on_run_end = lambda run: records.append(_closed_record(run, outputs))
    first_run, first_span = len(recorder.runs), len(recorder.spans)
    # Every pass starts with no garbage left by the previous one, so the
    # collector runs at the same points in each pass and peak memory
    # does not depend on how many passes fit in the budget.
    gc.collect()
    recorder.speed = speed
    if speed is not None:
        speed.sample(force=True)
    t0 = time.perf_counter()
    with recorder.installed():
        for task in tasks:
            start = len(records)
            try:
                with recorder.task(task.name), (profile.active() if profile else nullcontext()):
                    output = task.call(seed)
            except Exception as exc:  # a raising run is a failed run
                if len(records) == start:
                    records.append({"task": task.name, "incomplete": True})
                records[-1]["_error"] = f"{type(exc).__name__}: {exc}"
                continue
            if len(records) == start:
                records.append({"task": task.name, "incomplete": True})
            else:
                _attach_task_output(task, output, records[start:], outputs)
    t1 = time.perf_counter()
    recorder.speed = None
    runs = recorder.runs[first_run:]
    setup = [s for s in recorder.spans[first_span:] if s.name in instrument.SETUP_SPANS]
    host = speed.host if speed is not None else (lambda a, b: b - a)
    ref = speed.scaled if speed is not None else host
    return Pass(
        wall_s=host(t0, t1),
        records=records,
        run_s=[host(run.t0, run.t1) for run in runs],
        setup_s=sum(s.t1 - s.t0 for s in setup),
        drive_s=recorder.span_seconds(("drive",), first_span),
        build_s=recorder.span_seconds(("build",), first_span),
        execute_overhead_s=recorder.execute_overhead_s(first_span),
        ref_wall_s=ref(t0, t1),
        ref_run_s=[ref(run.t0, run.t1) for run in runs],
        ref_setup_s=sum(ref(s.t0, s.t1) for s in setup),
    )


def tally(passes: list[Pass], reference, golden) -> tuple[int, int, list[str]]:
    """Runs attempted, runs failed and why, over all passes."""
    import outputs

    attempted = failed = 0
    reasons: list[str] = []
    for p in passes:
        bad, why = outputs.check_pass(p.records, reference, golden)
        attempted += len(p.records)
        failed += bad
        reasons.extend(why)
    return attempted, failed, reasons


def _closed_record(run, outputs) -> dict:
    record = outputs.run_record(run)
    if run.failed:
        record["_error"] = "run raised"
    return record


def _attach_task_output(task, output, records: list[dict], outputs) -> None:
    if task.kind == "campaign":
        outcomes = [outcome for _, outcome in output.outcomes]
        if len(outcomes) != len(records):
            records[-1]["_error"] = f"{len(outcomes)} outcomes for {len(records)} runs"
        for record, outcome in zip(records, outcomes):
            record.update(outputs.campaign_record(outcome))
        return
    records[-1].update(outputs.task_record(task.kind, output))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by :func:`statistics.quantiles` (n=100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list[Pass], import_s: list[float], reference: bool = True) -> dict:
    """End-to-end metrics; times in reference seconds unless ``reference`` is off."""
    wall = [p.ref_wall_s if reference else p.wall_s for p in passes]
    run_s = [t for p in passes for t in (p.ref_run_s if reference else p.run_s)]
    setup = [p.ref_setup_s if reference else p.setup_s for p in passes]
    p90 = _quantile(run_s, 90)
    beyond = sum(1 for t in run_s if t > p90)
    n_pass = len(passes)
    return {
        "wall_s": (statistics.median(wall), "s", n_pass),
        "sim_pkts_per_s": (
            statistics.median(p.delivered / w for p, w in zip(passes, wall)), "1/s", n_pass,
        ),
        "run_s_p50": (statistics.median(run_s), "s", len(run_s)),
        "run_s_p90": (p90, "s", len(run_s), beyond),
        "setup_s": (
            statistics.median(import_s) + statistics.median(setup),
            "s", min(len(import_s), n_pass),
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
        ),
    }


def per_layer(untraced: list[Pass], traced: list[Pass], profile) -> dict:
    import instrument

    self_s, counts, busy_polls = profile.fold()
    n = len(traced)
    total = sum(self_s.values())
    ref = traced[0]
    records = [r for r in ref.records if "_events" in r]
    warp = [r["_warp"] for r in records if r["_warp"] is not None]
    engaged = [w for w in warp if w[0]]
    declined = dict.fromkeys(DECLINE_REASONS, 0)
    for w in warp:
        if not w[0]:
            declined[w[2]] = declined.get(w[2], 0) + 1
    driven_ns = sum(r["windows"][0] + r["windows"][1] for r in records)
    metrics = {}
    for bucket in instrument.BUCKETS:
        metrics[f"{bucket}.self_s"] = (self_s[bucket] / n, "s", n)
        metrics[f"{bucket}.share"] = (self_s[bucket] / total if total else 0.0, "frac", n)
    untraced_drive = statistics.median(p.drive_s for p in untraced)
    polls = counts["cpu.polls"] / n
    metrics.update({
        "core.engine.events": (ref.events, "count", len(records)),
        "core.engine.dispatched": (ref.dispatched, "count", len(records)),
        "core.engine.events_per_pkt": (ref.events / max(1, ref.delivered), "events/pkt", len(records)),
        "core.engine.ns_per_dispatch": (
            untraced_drive * 1e9 / max(1, ref.dispatched), "ns", len(untraced),
        ),
        "core.warp.engaged_frac": (len(engaged) / len(warp) if warp else 0.0, "frac", len(warp)),
        "core.warp.warped_frac": (
            sum(w[3] for w in warp) / driven_ns if driven_ns else 0.0, "frac", len(warp),
        ),
        "core.warp.replayed_frac": (ref.replayed / max(1, ref.events), "frac", len(records)),
        "core.warp.declined": (len(warp) - len(engaged), "count", len(warp)),
        "cpu.polls": (polls, "count", n),
        "cpu.useful_poll_frac": (
            busy_polls / n / polls if polls else 0.0, "frac", n,
        ),
    })
    for name in instrument.COUNTS:
        if name != "cpu.polls":
            metrics[name] = (counts[name] / n, "count", n)
    metrics.update({
        "measure.runs": (len(ref.run_s), "count", n),
        "campaign.overhead_s": (statistics.median(p.execute_overhead_s for p in traced), "s", n),
        "scenarios.build_s": (statistics.median(p.build_s for p in untraced), "s", len(untraced)),
        "trace.overhead": (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced), "ratio", n,
        ),
    })
    for reason, count in sorted(declined.items()):
        metrics[f"core.warp.declined.{reason}"] = (count, "count", len(warp))
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the default-seed reference and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = import_repro()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import instrument
    import outputs
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    tasks = WORKLOADS[args.workload]()
    recorder = instrument.Recorder()

    if args.record:
        if seed != DEFAULT_SEED:
            print("perfbench: --record only at the default seed", file=sys.stderr)
            return 2
        first = run_pass(tasks, seed, recorder)
        bad = [r for r in first.records if outputs.invariant_problems(r)]
        if bad:
            print(f"perfbench: not recording, {len(bad)} runs break invariants", file=sys.stderr)
            return 1
        print(f"wrote {outputs.write_reference(args.workload, first.records)}")
        return 0

    reference = golden = None
    if seed == DEFAULT_SEED:
        reference = outputs.load_reference(args.workload)
        if reference is None:
            print(f"perfbench: no reference for {args.workload}", file=sys.stderr)
            return 2
        golden = outputs.load_golden()

    import hostspeed

    import_s, import_scale = import_seconds(IMPORT_PROBES)
    speed = hostspeed.HostSpeed()
    budget = args.seconds
    started = time.perf_counter()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    profile = instrument.LayerProfile() if args.trace else None

    def elapsed() -> float:
        return time.perf_counter() - started

    while True:
        untraced.append(run_pass(tasks, seed, recorder, speed=speed))
        typical = statistics.median(p.wall_s for p in untraced)
        limit = budget * UNTRACED_SHARE if args.trace else budget
        if elapsed() + typical > limit:
            break
    if args.trace:
        while True:
            traced.append(run_pass(tasks, seed, recorder, profile))
            typical = statistics.median(p.wall_s for p in traced)
            if elapsed() + typical > budget:
                break

    attempted, failed, reasons = tally(untraced + traced, reference, golden)

    facts = host_facts()
    print(f"perfbench workload={args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(untraced)}+{len(traced)} traced")
    print(f"host nproc={facts['nproc']} python={facts['python']} "
          f"loadavg={','.join(str(x) for x in facts['loadavg'])}")
    check = "reference (default seed)" if reference is not None else "invariants (non-default seed)"
    overlaps = outputs.golden_overlaps(untraced[0].records) if golden is not None else 0
    print(f"check: {check}; golden cells cross-checked: {overlaps}")
    print("pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in untraced + traced))
    print("import_s: " + " ".join(f"{t:.3f}" for t in import_s))
    print(f"host-speed kernel: median {statistics.median(speed.kernel_s) * 1e3:.4f} ms over "
          f"{len(speed.kernel_s)} samples (reference {hostspeed.REFERENCE_KERNEL_S * 1e3:g} ms)")
    for reason in reasons[:20]:
        print(f"  FAIL {reason}")

    e2e = end_to_end(untraced, [t * import_scale for t in import_s])
    extra = {"fail_frac": (failed / attempted if attempted else 1.0, "frac", attempted)}
    paper = outputs.paper_error_pct(untraced[0].records) if args.workload == "ndr-latency" else None
    if paper is not None:
        extra["paper_err_pct"] = (paper[0], "%", paper[1])
    _print_table("end-to-end (times in reference seconds)", {**e2e, **extra})
    host_e2e = end_to_end(untraced, import_s, reference=False)
    _print_table("end-to-end (times in host seconds)", {
        name: value for name, value in host_e2e.items() if name != "peak_rss_mb"
    })
    reported = e2e
    if args.trace:
        layers = per_layer(untraced, traced, profile)
        _print_table("per-layer (traced)", layers)
        _write_trace(args, seed, recorder, layers, facts)
        reported = layers

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {
        name: {"value": reported[name][0], "unit": reported[name][1]}
        for name in declared
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _print_table(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    print(f"{'metric':34} {'value':>16} {'unit':>10} {'n':>7}")
    for name, (value, unit, n, *rest) in metrics.items():
        note = f"  ({rest[0]} beyond)" if rest else ""
        print(f"{name:34} {value:16.6g} {unit:>10} {n:7d}{note}")


def _declared_metrics(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _write_trace(args, seed, recorder, layers, facts) -> None:
    with open(LAYER_MAP_PATH) as fh:
        layer_map = json.load(fh)
    origin = recorder.spans[0].t0 if recorder.spans else 0.0
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-trace.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": seed,
            "host": facts,
            "layers": {k: {"value": v[0], "unit": v[1], "n": v[2]} for k, v in layers.items()},
            "layer_map": layer_map,
            "spans": [
                [s.name, s.run, s.parent, s.t0 - origin, s.t1 - origin]
                for s in recorder.spans
            ],
        }, fh)
    print(f"trace: {os.path.relpath(path, ROOT)} ({len(recorder.spans)} spans)")


if __name__ == "__main__":
    sys.exit(main())
