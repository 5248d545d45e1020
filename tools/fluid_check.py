"""Fluid validation tier: A/B fluid vs exact, tolerance-gated.

Drives a switch grid twice over the same measurement window -- once
event-by-event (the exact tiers) and once with the fluid tier engaged --
and gates the per-cell relative throughput error at the declared fluid
tolerance (``REPRO_FLUID_TOLERANCE``, default 5%).  Also asserts the
engagement contract: every gated cell must actually engage the fluid
tier (a silent decline would A/B exact against exact and prove nothing),
and runs that must stay exact (fault plans, watchdog scans, telemetry
samplers, short windows) must decline with their stable reasons.

Writes a JSON artifact (``--out``) with per-cell errors and speedups for
the CI ``fluid-validation`` job.

Usage: ``PYTHONPATH=src python tools/fluid_check.py [--out fluid.json]
[--measure-ns 2e8]``
"""

import argparse
import json
import sys
import time

sys.path.insert(0, "src")

from repro.core.fluid import fluid_tolerance, try_fluid
from repro.measure.runner import drive
from repro.scenarios import p2p, p2v, v2v

#: Three-switch grid spanning the cost model's extremes (fastest and
#: slowest exact switches plus the mid-field DPDK reference).
GRID = [
    ("vpp", "p2p", p2p.build, {}, 3_000_000.0),
    ("vpp", "p2p", p2p.build, {}, None),  # saturating
    ("ovs-dpdk", "p2v", p2v.build, {}, 1_000_000.0),
    ("fastclick", "v2v", v2v.build, {}, 800_000.0),
]


def run(build, switch, kwargs, rate, measure_ns, fluid):
    tb = build(switch, frame_size=64, rate_pps=rate, seed=1, **kwargs)
    t0 = time.perf_counter()
    res = drive(tb, measure_ns=measure_ns, fluid=fluid)
    return res, time.perf_counter() - t0


def engaged(result):
    return result.warp is not None and result.warp.engaged and result.warp.mode == "fluid"


def check_declines():
    """Runs that must stay exact decline with their stable reasons."""
    from repro.core.trace import Telemetry
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan, parse_fault
    from repro.faults.watchdog import InvariantWatchdog

    flap = parse_fault("nic-link-flap@sut-nic.p1:at_ns=1200000,duration_ns=300000")
    cases = {
        "fault-plan-active": (lambda tb: FaultInjector(tb, FaultPlan.of(flap)).arm(), 6e7),
        "watchdog-active": (lambda tb: InvariantWatchdog(tb).start(), 6e7),
        "sampler-active": (lambda tb: Telemetry(tb.sim).start(), 6e7),
        "span-too-short": (lambda tb: None, 1.5e6),
    }
    failures = []
    for reason, (attach, t_close) in cases.items():
        tb = p2p.build("vpp", frame_size=64)
        attach(tb)
        report = try_fluid(tb, 6e5, t_close)
        if report.engaged or report.reason != reason:
            failures.append(f"{reason}: expected decline, got {report.describe()}")
    return failures


def cell(label, r_ex, r_fl, w_ex, w_fl, tolerance):
    """One A/B cell; ``ok`` when fluid engaged within tolerance."""
    rel_err = abs(r_fl.mpps - r_ex.mpps) / r_ex.mpps if r_ex.mpps > 0 else 0.0
    return {
        "cell": label,
        "engaged": engaged(r_fl),
        "fluid": r_fl.warp.describe(),
        "mpps_exact": r_ex.mpps,
        "mpps_fluid": r_fl.mpps,
        "rel_error": rel_err,
        "tolerance": tolerance,
        "wall_exact_s": w_ex,
        "wall_fluid_s": w_fl,
        "speedup": w_ex / w_fl if w_fl > 0 else float("inf"),
        "ok": engaged(r_fl) and rel_err <= tolerance,
    }


def check_hour_scale(min_speedup: float):
    """Hour-scale acceptance: fluid covers a 1-hour window >= 50x faster.

    The fluid side really simulates the hour (8 ms exact calibration +
    extrapolation); the exact comparator runs a 0.5 s window and its
    wall-clock extrapolates linearly to the hour -- honest for this
    workload, whose event count is linear in the window at a fixed
    offered rate.  The rates must agree within tolerance (both estimate
    the same stationary throughput).
    """
    HOUR_NS = 3.6e12
    EXACT_NS = 5e8
    tolerance = fluid_tolerance()
    r_ex, w_ex = run(p2p.build, "vpp", {}, 3_000_000.0, EXACT_NS, fluid=False)
    r_fl, w_fl = run(p2p.build, "vpp", {}, 3_000_000.0, HOUR_NS, fluid=True)
    hour = cell("hour-scale/vpp/p2p", r_ex, r_fl, w_ex * (HOUR_NS / EXACT_NS), w_fl, tolerance)
    hour["min_speedup"] = min_speedup
    hour["ok"] = ok = hour["ok"] and hour["speedup"] >= min_speedup
    print(
        f"{'OK ' if ok else 'FAIL'} hour-scale vpp/p2p: fluid_wall={w_fl:.2f}s "
        f"est_exact_wall={hour['wall_exact_s']:.0f}s x{hour['speedup']:.0f} "
        f"(floor x{min_speedup:.0f}) err={hour['rel_error']:.4%} (tol {tolerance:.1%})"
    )
    return hour, (0 if ok else 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None, help="JSON artifact path")
    parser.add_argument("--measure-ns", type=float, default=2e8)
    parser.add_argument(
        "--hour-scale", action="store_true",
        help="also gate the hour-scale speedup (>= --min-speedup)",
    )
    parser.add_argument("--min-speedup", type=float, default=50.0)
    args = parser.parse_args()

    tolerance = fluid_tolerance()
    cells = []
    failures = 0
    for switch, scenario, build, kwargs, rate in GRID:
        label = f"{switch}/{scenario}/{'saturating' if rate is None else 'sub-capacity'}"
        r_ex, w_ex = run(build, switch, kwargs, rate, args.measure_ns, fluid=False)
        r_fl, w_fl = run(build, switch, kwargs, rate, args.measure_ns, fluid=True)
        cells.append(cell(label, r_ex, r_fl, w_ex, w_fl, tolerance))
        ok = cells[-1]["ok"]
        failures += not ok
        print(
            f"{'OK ' if ok else 'FAIL'} {label:28s} exact={r_ex.mpps:.4f} "
            f"fluid={r_fl.mpps:.4f} Mpps err={cells[-1]['rel_error']:.4%} "
            f"(tol {tolerance:.1%}) x{cells[-1]['speedup']:.0f}"
        )
        if not engaged(r_fl):
            print(f"  fluid did not engage: {r_fl.warp.describe()}")

    if args.hour_scale:
        hour, failed = check_hour_scale(args.min_speedup)
        cells.append(hour)
        failures += failed

    decline_failures = check_declines()
    for failure in decline_failures:
        print(f"FAIL decline contract: {failure}")
    failures += len(decline_failures)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "measure_ns": args.measure_ns,
                    "tolerance": tolerance,
                    "cells": cells,
                    "decline_failures": decline_failures,
                    "failures": failures,
                },
                fh,
                indent=2,
            )
        print(f"wrote {args.out}")
    print("failures:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
