"""What each run simulated, and the checks behind ``fail_frac``.

Every run yields one plain-data record of its simulated outputs:
per-meter delivered packets, ``switch.cache_stats()``, RTT n/mean/p99,
plus the task-level outputs attached to the run that completed the task
(NDR pps with the loss of every visited trial, resilience loss/TTR,
campaign record status and rates).  Floats are kept as ``repr`` strings
so equality is bit-exact.  Engine work counters (events executed, the
fast-forward report) ride along as check-only fields: they feed the
per-layer metrics but are not compared, since speed-only changes move
them.

On the default seed the records must equal the committed reference
(``reference/<workload>.json``) exactly, and the runs that overlap the
repo's golden stats (the saturating R+ runs of the p2p latency sweeps)
must match those cells.  On any other seed no reference exists, so the
records are held to invariants instead: losses in [0, 1], NDR at most
line rate, meter and ring conservation.  A run that raised, or came
back ``inapplicable``, fails on every seed.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
GOLDEN_PATH = os.path.join(os.path.dirname(HERE), "benchmarks", "golden", "golden_stats.json")


def canon(value: Any) -> Any:
    """JSON-safe, bit-exact form: floats become their ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def run_record(run) -> dict:
    """Simulated outputs of one closed run (testbed still attached)."""
    tb, result = run.tb, run.result
    record: dict[str, Any] = {"task": run.task}
    if tb is None or result is None:
        record["incomplete"] = True
        return record
    record["scenario"] = tb.scenario
    record["meters"] = [[m.packets, m.warmup_packets] for m in tb.meters]
    cache = tb.switch.cache_stats()
    if cache:
        record["cache"] = cache
    latency = result.latency
    if latency is not None and len(latency):
        record["rtt"] = [len(latency), latency.mean_us, latency.percentile_us(99)]
    # Engine work counters, not simulated outputs: a speed-only change
    # (parking idle polls, a different fast-forward tier) moves them
    # while every statistic stays bit-identical, so they are check-only.
    record["_events"] = result.events
    report = result.warp
    record["_warp"] = None if report is None else [
        report.engaged, report.mode, report.reason, report.warped_ns, report.events_replayed,
    ]
    record["windows"] = list(run.drive_windows)
    record["_invariants"] = _run_invariants(tb)
    if run.drive_windows == _golden_windows() and tb.scenario == "p2p" and len(tb.meters) == 1:
        record["_golden_view"] = _golden_view(tb, result)
    return record


def _golden_windows() -> tuple[float, float]:
    from repro.measure.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS

    return (DEFAULT_WARMUP_NS, DEFAULT_MEASURE_NS)


def _golden_view(tb, result) -> dict:
    """The fields ``tools/golden_stats.py`` records for a p2p cell."""
    return canon({
        "gbps": list(result.per_direction_gbps),
        "mpps": list(result.per_direction_mpps),
        "forwarded": tb.switch.total_forwarded,
        "meter_packets": [m.packets for m in tb.meters],
        "meter_bytes": [m.bytes for m in tb.meters],
        "warmup_packets": [m.warmup_packets for m in tb.meters],
        "path_forwarded": [p.forwarded for p in tb.switch.paths],
    })


def _run_invariants(tb) -> list[str]:
    """Meter and ring conservation for one driven testbed."""
    problems = []
    delivered = sum(m.packets + m.warmup_packets for m in tb.meters)
    if delivered > tb.switch.total_forwarded:
        problems.append(f"meters saw {delivered} frames, switch forwarded {tb.switch.total_forwarded}")
    for path in tb.switch.paths:
        ring = path.input.input_ring
        if not 0 <= ring._frames <= ring.capacity:
            problems.append(f"{ring.name}: occupancy {ring._frames} outside [0, {ring.capacity}]")
        if path.forwarded > ring.enqueued - ring._frames:
            problems.append(f"{ring.name}: forwarded {path.forwarded} > handed out")
    return problems


def task_record(kind: str, output: Any) -> dict:
    """Task-level outputs, attached to the run that completed the task."""
    if kind == "ndr":
        return {"ndr_pps": output.ndr_pps, "frame_size": output.frame_size,
                "trials": [list(t) for t in output.trials]}
    if kind == "sweep":
        return {"sweep": {repr(f): [len(p.sample), p.mean_us, p.offered_pps]
                          for f, p in sorted(output.items())}}
    if kind == "resilience":
        _, report, observation = output
        return {"resilience": {
            "loss_frames": report.loss_during_fault_frames,
            "drops_frames": report.drops_during_fault_frames,
            "ttr_ns": report.time_to_recover_ns,
            "recovered": report.recovered,
            "faults": len(report.fault_spans),
            "observed": observation is not None,
        }}
    raise ValueError(f"unknown task kind {kind!r}")


def campaign_record(outcome) -> dict:
    """Per-run slice of a campaign outcome (RunRecord or RunFailure)."""
    if not outcome.ok:
        return {"status": outcome.status, "error": getattr(outcome, "error", "")}
    return {"status": outcome.status, "mpps": list(outcome.per_direction_mpps),
            "label": outcome.spec.label}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def invariant_problems(record: dict) -> list[str]:
    """Seed-independent checks on one run record."""
    from repro.core.units import line_rate_pps

    problems = list(record.get("_invariants", ()))
    if "_error" in record:
        problems.append(f"raised {record['_error']}")
    if record.get("incomplete"):
        problems.append("run did not complete a build and drive")
    if "status" in record and record["status"] != "ok":
        problems.append(f"campaign run came back {record['status']}")
    if "ndr_pps" in record:
        line = line_rate_pps(record["frame_size"])
        if not 0.0 <= record["ndr_pps"] <= line:
            problems.append(f"NDR {record['ndr_pps']} outside [0, line rate {line}]")
        for rate, loss in record["trials"]:
            if not 0.0 <= loss <= 1.0:
                problems.append(f"loss {loss} at {rate} pps outside [0, 1]")
    for n, mean, _ in [record["rtt"]] if "rtt" in record else []:
        if n and not mean > 0:
            problems.append(f"RTT mean {mean} with {n} samples")
    res = record.get("resilience")
    if res is not None:
        if res["loss_frames"] < 0:
            problems.append(f"negative fault loss {res['loss_frames']}")
        if res["ttr_ns"] is not None and res["ttr_ns"] < 0:
            problems.append(f"negative TTR {res['ttr_ns']}")
    return problems


def comparable(record: dict) -> dict:
    """The record without its check-only fields, in canonical form."""
    return canon({k: v for k, v in record.items() if not k.startswith("_")})


def load_reference(workload: str) -> list | None:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def write_reference(workload: str, records: list[dict]) -> str:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, "w") as fh:
        json.dump([comparable(r) for r in records], fh, indent=0, sort_keys=True)
        fh.write("\n")
    return path


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_pass(
    records: list[dict], reference: list | None, golden: dict | None,
) -> tuple[int, list[str]]:
    """Failed-run count and the reasons, for one pass.

    ``reference`` is the default-seed record list and ``golden`` the
    golden-stats cells; both are None on other seeds.
    """
    failed = 0
    reasons: list[str] = []
    for index, record in enumerate(records):
        problems = invariant_problems(record)
        if reference is not None:
            if index >= len(reference):
                problems.append("run has no reference record")
            elif comparable(record) != reference[index]:
                problems.append("simulated outputs differ from the reference")
        if golden is not None and "_golden_view" in record:
            problems.extend(_golden_mismatch(record, golden))
        if problems:
            failed += 1
            reasons.extend(f"run {index} ({record.get('task')}): {p}" for p in problems)
    return failed, reasons


def _golden_mismatch(record: dict, golden: dict) -> list[str]:
    """Cross-check an R+ run against its golden ``p2p/<switch>/uni`` cell."""
    key = f"p2p/{record['task'].split('/')[-1]}/uni"
    cell = golden.get(key)
    if cell is None:
        return [f"no golden cell {key}"]
    mismatched = [k for k, v in record["_golden_view"].items() if cell.get(k) != v]
    return [f"differs from golden {key} in {mismatched}"] if mismatched else []


def golden_overlaps(records: list[dict]) -> int:
    return sum(1 for r in records if "_golden_view" in r)


# ---------------------------------------------------------------------------
# Paper error (ndr-latency)
# ---------------------------------------------------------------------------

def paper_error_pct(records: list[dict]) -> tuple[float, int] | None:
    """Median relative error (%) of Table 3 RTTs and Fig. 4a throughputs.

    Table 3 RTT cells come from the sweeps (p2p and 2-VNF loopback at
    0.10/0.50/0.99 R+); Fig. 4a cells from the R+ runs of the p2p sweeps.
    Only cells where the paper gives a number count.
    """
    from repro.analysis.paper_values import FIG4A_P2P_UNI_64B, TABLE3

    errors = []
    for record in records:
        task = record.get("task", "")
        parts = task.split("/")
        if parts[0] != "sweep" or "sweep" not in record:
            continue
        topo, switch = parts[1], parts[2]
        key = "p2p" if topo == "p2p" else int(topo.removeprefix("loopback"))
        paper = (TABLE3.get(switch) or {}).get(key)
        if paper:
            for frac, paper_us in zip(sorted(record["sweep"], key=float), paper):
                mean_us = record["sweep"][frac][1]
                if not math.isnan(mean_us) and paper_us:
                    errors.append(abs(mean_us - paper_us) / paper_us)
    for record in records:
        view = record.get("_golden_view")
        if view is None:
            continue
        switch = record["task"].split("/")[-1]
        paper_gbps = FIG4A_P2P_UNI_64B.get(switch)
        if paper_gbps:
            errors.append(abs(float(view["gbps"][0]) - paper_gbps) / paper_gbps)
    if not errors:
        return None
    return 100.0 * statistics.median(errors), len(errors)
